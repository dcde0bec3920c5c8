"""Typed, seeded fault schedules for the simulated fabric.

A :class:`FaultSchedule` is an immutable, time-sorted list of typed fault
events — the scenario script a :class:`~repro.faults.injector.FaultInjector`
replays through ``Engine.schedule_event`` so faults interleave
deterministically with the engine's ``(timestamp, priority, token)`` heap.
The event types cover the taxonomy in the ROADMAP's failure-scenarios item:

* :class:`LinkDegrade` — a stage family (or a single stage) runs at a
  fraction of nominal capacity; with ``duration`` set it is a *flap* that
  restores itself.
* :class:`RailFailure` — one NIC rail of one node stops accepting new
  messages (``resolve_link`` re-routes onto the surviving rails); optionally
  self-healing via ``duration``.
* :class:`SlowRank` — one rank's compute slows by a factor (straggler);
  optionally transient.
* :class:`NodeLoss` — a node goes dark mid-run: its NIC stages collapse to a
  retransmit-class trickle and the workload layer stops placing jobs on it
  (and kills/restarts the jobs already there, per their failure policy).
* :class:`DomainOutage` — a correlated failure: one event over a
  :class:`FailureDomain` (switch, pod, power zone) expands into
  ``NodeLoss``/``RailFailure``/``LinkDegrade`` constituents for every member,
  all at the same timestamp.

Schedules are plain data: they sort and compare, and
:meth:`FaultSchedule.generate` derives a named *fault mix* from a seed, so
one ``(mix, seed)`` pair names a reproducible scenario everywhere — the
harness ``faults`` experiment, the workload CLI and the fuzzer all share it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

# the fabrics own their stage-family names (``topology.link_families``); the
# fat tree's are the default LinkDegrade mixes draw from
from repro.mpisim.topology.switch import DRAGONFLY_LINK_FAMILIES, FAT_TREE_LINK_FAMILIES
from repro.utils.validation import ensure_integer

__all__ = [
    "DRAGONFLY_LINK_FAMILIES",
    "FAT_TREE_LINK_FAMILIES",
    "FAULT_MIXES",
    "DomainOutage",
    "FailureDomain",
    "FaultEvent",
    "FaultSchedule",
    "LinkDegrade",
    "NodeLoss",
    "RailFailure",
    "SlowRank",
]

#: named fault mixes understood by :meth:`FaultSchedule.generate`
#: (``domain_outage`` appended last so pre-existing seeded draws reproduce)
FAULT_MIXES = (
    "none",
    "degraded_tier",
    "flaky_links",
    "stragglers",
    "rail_outage",
    "node_loss",
    "mixed",
    "domain_outage",
)


def _check_time(time: float) -> None:
    if not time >= 0.0:
        raise ValueError(f"fault event time must be >= 0, got {time}")


def _check_duration(duration: Optional[float]) -> None:
    if duration is not None and not duration > 0.0:
        raise ValueError(f"fault duration must be > 0 (or None), got {duration}")


@dataclass(frozen=True)
class LinkDegrade:
    """Stages under ``stage_prefix`` run at ``factor`` of nominal capacity.

    ``stage_prefix`` is a stage-id prefix as understood by
    ``SwitchFabricTopology.set_stage_fault`` — ``("ft-agg-core",)`` degrades a
    whole tier, ``("nic-up", 3)`` one node's injection rails.  ``duration``
    turns the degradation into a flap that clears after that many seconds.
    """

    time: float
    stage_prefix: Tuple
    factor: float
    duration: Optional[float] = None
    kind: str = "link_degrade"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_duration(self.duration)
        object.__setattr__(self, "stage_prefix", tuple(self.stage_prefix))
        if not self.stage_prefix:
            raise ValueError("LinkDegrade needs a non-empty stage prefix")
        if not self.factor > 0.0:
            raise ValueError(f"degradation factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class RailFailure:
    """NIC rail ``rail`` of ``node`` fails: new messages route around it.

    Routing-level only — in-flight transfers drain at their reserved rates
    (link-level retransmission finishes what already entered the wire); the
    next ``resolve_link`` on that node advances deterministically to the next
    live rail.  ``duration`` makes the failure self-healing.
    """

    time: float
    node: int
    rail: int
    duration: Optional[float] = None
    kind: str = "rail_failure"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_duration(self.duration)
        object.__setattr__(self, "node", ensure_integer(self.node, "RailFailure node", minimum=0))
        object.__setattr__(self, "rail", ensure_integer(self.rail, "RailFailure rail", minimum=0))


@dataclass(frozen=True)
class SlowRank:
    """Rank ``rank``'s compute takes ``factor`` times as long (straggler).

    ``factor > 1`` slows the rank; ``duration`` restores it to modelled speed
    after that many seconds.
    """

    time: float
    rank: int
    factor: float
    duration: Optional[float] = None
    kind: str = "slow_rank"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_duration(self.duration)
        object.__setattr__(self, "rank", ensure_integer(self.rank, "SlowRank rank", minimum=0))
        if not self.factor > 0.0:
            raise ValueError(f"compute factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class NodeLoss:
    """Node ``node`` goes dark at ``time``.

    The node's NIC stages collapse to retransmit-class rates and the
    workload layer quarantines the node (killing jobs placed on it, per
    their failure policy, :mod:`repro.workload.recovery`).  ``duration``
    makes the loss transient: the overlays clear and the node is healed
    (un-quarantined) after that many seconds; ``None`` is permanent.
    """

    time: float
    node: int
    duration: Optional[float] = None
    kind: str = "node_loss"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_duration(self.duration)
        object.__setattr__(self, "node", ensure_integer(self.node, "NodeLoss node", minimum=0))


@dataclass(frozen=True)
class FailureDomain:
    """A named group of components that fail together.

    ``kind`` labels the blast radius ("switch", "pod", "power", ...);
    members are ``nodes`` (lost outright), ``rails`` as ``(node, rail)``
    pairs, and ``stage_prefixes`` (degraded to
    :attr:`DomainOutage.degrade_factor`).  A domain is pure data — it only
    acts through a :class:`DomainOutage` event that expands over it.
    """

    name: str
    kind: str = "switch"
    nodes: Tuple[int, ...] = ()
    rails: Tuple[Tuple[int, int], ...] = ()
    stage_prefixes: Tuple[Tuple, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("FailureDomain needs a non-empty name")
        object.__setattr__(
            self,
            "nodes",
            tuple(ensure_integer(n, "FailureDomain node", minimum=0) for n in self.nodes),
        )
        rails = tuple(tuple(pair) for pair in self.rails)
        if any(len(pair) != 2 for pair in rails):
            raise ValueError("FailureDomain rails must be (node, rail) pairs")
        object.__setattr__(
            self,
            "rails",
            tuple(
                (
                    ensure_integer(node, "FailureDomain rail node", minimum=0),
                    ensure_integer(rail, "FailureDomain rail", minimum=0),
                )
                for node, rail in rails
            ),
        )
        object.__setattr__(
            self,
            "stage_prefixes",
            tuple(tuple(prefix) for prefix in self.stage_prefixes),
        )
        if not (self.nodes or self.rails or self.stage_prefixes):
            raise ValueError(f"FailureDomain {self.name!r} has no members")
        if any(not prefix for prefix in self.stage_prefixes):
            raise ValueError("FailureDomain stage prefixes must be non-empty")


@dataclass(frozen=True)
class DomainOutage:
    """Every member of ``domain`` fails at once (correlated failure).

    One seeded event standing for a whole switch / pod / power-zone outage:
    it expands (see :meth:`expand`) into one :class:`NodeLoss` per member
    node, one :class:`RailFailure` per member rail and one
    :class:`LinkDegrade` (at ``degrade_factor``) per member stage prefix,
    all at the same timestamp — so the constituents replay through the
    existing priority-tier ``-1`` path and interleave deterministically.
    ``duration`` (applied to every constituent) makes the outage heal.
    """

    time: float
    domain: FailureDomain
    duration: Optional[float] = None
    degrade_factor: float = 1e-3
    kind: str = "domain_outage"

    def __post_init__(self) -> None:
        _check_time(self.time)
        _check_duration(self.duration)
        if not isinstance(self.domain, FailureDomain):
            raise ValueError(
                f"DomainOutage domain must be a FailureDomain, "
                f"got {type(self.domain).__name__}"
            )
        if not self.degrade_factor > 0.0:
            raise ValueError(
                f"degrade factor must be > 0, got {self.degrade_factor}"
            )

    def expand(self) -> Tuple[FaultEvent, ...]:
        """The correlated constituent events, one per domain member."""
        events: List[FaultEvent] = []
        for prefix in self.domain.stage_prefixes:
            events.append(
                LinkDegrade(
                    time=self.time,
                    stage_prefix=prefix,
                    factor=self.degrade_factor,
                    duration=self.duration,
                )
            )
        for node, rail in self.domain.rails:
            events.append(
                RailFailure(
                    time=self.time, node=node, rail=rail, duration=self.duration
                )
            )
        for node in self.domain.nodes:
            events.append(
                NodeLoss(time=self.time, node=node, duration=self.duration)
            )
        return tuple(events)


FaultEvent = Any  # union of the event dataclasses above (kept duck-typed)


def _event_key(event: FaultEvent) -> Tuple[float, str, str]:
    # (time, kind, field repr): a total order so equal-time events of mixed
    # types sort identically everywhere, which is what makes schedule
    # construction independent of the order events were listed in
    return (event.time, event.kind, repr(event))


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted scenario of typed fault events.

    Construction sorts the events by ``(time, kind, fields)``, so two
    schedules with the same events compare equal regardless of listing
    order.  The empty schedule is the explicit "no faults" scenario: a
    :class:`~repro.faults.injector.FaultInjector` given one schedules
    nothing, leaving every golden makespan bit-for-bit unchanged.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_event_key))
        )

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def permanent_node_losses(self) -> frozenset:
        """Nodes permanently lost by this schedule (domain outages expanded).

        Transient losses (``duration`` set) heal, so they do not count — the
        workload fit precheck only refuses jobs that could *never* be placed.
        """
        lost = set()
        for event in self.events:
            constituents = (
                event.expand() if isinstance(event, DomainOutage) else (event,)
            )
            for member in constituents:
                if isinstance(member, NodeLoss) and member.duration is None:
                    lost.add(member.node)
        return frozenset(lost)

    @classmethod
    def generate(
        cls,
        mix: str,
        seed: int,
        *,
        n_nodes: int,
        n_ranks: Optional[int] = None,
        nics_per_node: int = 1,
        horizon: float = 2e-3,
        link_families: Sequence[str] = FAT_TREE_LINK_FAMILIES,
    ) -> "FaultSchedule":
        """A seeded instance of a named fault mix.

        ``horizon`` scales every event time (faults land in the first ~70% of
        it, so a run of roughly that makespan actually experiences them);
        ``link_families`` names the switch-tier stage families degradations
        draw from (pass the fabric's ``topology.link_families``).
        ``(mix, seed)`` fully determines the result.  Mixes:

        * ``none`` — the empty schedule.
        * ``degraded_tier`` — one persistent tier-wide degradation.
        * ``flaky_links`` — two to three transient flaps on distinct families.
        * ``stragglers`` — one or two slow ranks, possibly transient.
        * ``rail_outage`` — one NIC rail failure (needs ``nics_per_node >= 2``).
        * ``node_loss`` — one node goes dark mid-run.
        * ``mixed`` — a degraded tier plus a straggler.
        * ``domain_outage`` — a correlated power-zone outage: a contiguous
          block of nodes fails together (transient about half the time).
        """
        if mix not in FAULT_MIXES:
            raise ValueError(
                f"unknown fault mix {mix!r}; available: {', '.join(FAULT_MIXES)}"
            )
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if not horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if mix == "none":
            return cls()
        families = tuple(link_families)
        n_ranks = int(n_ranks) if n_ranks is not None else int(n_nodes)
        rng = random.Random(f"repro.faults:{mix}:{seed}")
        events: List[FaultEvent] = []

        def degraded_tier() -> None:
            events.append(
                LinkDegrade(
                    time=rng.uniform(0.1, 0.3) * horizon,
                    stage_prefix=(rng.choice(families),),
                    factor=rng.uniform(0.15, 0.5),
                )
            )

        def straggler() -> None:
            events.append(
                SlowRank(
                    time=rng.uniform(0.0, 0.4) * horizon,
                    rank=rng.randrange(n_ranks),
                    factor=rng.uniform(1.5, 4.0),
                    duration=(
                        rng.uniform(0.2, 0.5) * horizon if rng.random() < 0.5 else None
                    ),
                )
            )

        if mix == "degraded_tier":
            degraded_tier()
        elif mix == "flaky_links":
            count = min(rng.randint(2, 3), len(families))
            for family in rng.sample(families, count):
                events.append(
                    LinkDegrade(
                        time=rng.uniform(0.05, 0.5) * horizon,
                        stage_prefix=(family,),
                        factor=rng.uniform(0.2, 0.6),
                        duration=rng.uniform(0.1, 0.25) * horizon,
                    )
                )
        elif mix == "stragglers":
            for _ in range(rng.randint(1, 2)):
                straggler()
        elif mix == "rail_outage":
            if nics_per_node < 2:
                raise ValueError(
                    "the rail_outage mix needs nics_per_node >= 2 "
                    "(a single-rail node would lose all connectivity)"
                )
            events.append(
                RailFailure(
                    time=rng.uniform(0.1, 0.4) * horizon,
                    node=rng.randrange(n_nodes),
                    rail=rng.randrange(nics_per_node),
                )
            )
        elif mix == "node_loss":
            events.append(
                NodeLoss(
                    time=rng.uniform(0.3, 0.6) * horizon,
                    node=rng.randrange(n_nodes),
                )
            )
        elif mix == "domain_outage":
            span = 2 if n_nodes >= 4 else 1
            start = rng.randrange(n_nodes - span + 1)
            domain = FailureDomain(
                name=f"power-zone-{start}",
                kind="power",
                nodes=tuple(range(start, start + span)),
            )
            events.append(
                DomainOutage(
                    time=rng.uniform(0.3, 0.6) * horizon,
                    domain=domain,
                    duration=(
                        rng.uniform(0.3, 0.6) * horizon
                        if rng.random() < 0.5
                        else None
                    ),
                )
            )
        else:  # mixed
            degraded_tier()
            straggler()
        return cls(events=tuple(events))
