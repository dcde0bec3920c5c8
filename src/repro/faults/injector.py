"""Replays a :class:`~repro.faults.schedule.FaultSchedule` into a live engine.

The injector turns each typed fault event into one or two
``Engine.schedule_event`` callbacks (the second is the restore half of a
transient fault).  Scheduled callbacks occupy priority tier ``-1`` in the
engine's ``(timestamp, priority, token)`` heap, so a fault due at ``t``
commits before any fair-share departure or rank step at ``t`` — faults
interleave with the simulation exactly as deterministically as arrivals do,
and replaying the same schedule on the same scenario reproduces every
makespan bit-for-bit.

Fair-share plumbing is automatic: whenever a capacity change touches stages
carrying live fluid flows, the injector hands those stages to
``FairShareRegistry.apply_capacity_change``, so in-flight transfers in
``contention="fair"`` mode genuinely see mid-flight rate changes.

Faults may overlap on one stage prefix (a permanent degrade and a flap of
the same link family, two losses of one node): while they do, their factors
multiply, and each heal removes only its own fault.

An empty schedule schedules nothing and leaves the engine byte-identical to
an uninjected one — the empty-schedule golden-pin contract.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional, Tuple

from repro.faults.schedule import (
    DomainOutage,
    FaultSchedule,
    LinkDegrade,
    NodeLoss,
    RailFailure,
    SlowRank,
)

__all__ = ["FaultInjector"]

#: capacity factor a lost node's NIC stages collapse to: traffic drains at
#: retransmit-class rates instead of deadlocking mid-collective ranks
NODE_LOSS_FACTOR = 1e-3
#: a node's NIC stage families, injection first
_NIC_FAMILIES = ("nic-up", "nic-down")


class FaultInjector:
    """Schedules a fault scenario onto one engine run.

    Parameters
    ----------
    schedule:
        The :class:`FaultSchedule` to replay.
    on_node_loss:
        Optional ``(node, time)`` callback fired when a :class:`NodeLoss`
        event lands — the workload layer hooks its allocator's quarantine
        (and job-kill semantics) here so no later job is placed on the dead
        node.
    on_node_heal:
        Optional ``(node, time)`` callback fired when a *transient*
        :class:`NodeLoss` heals (its ``duration`` elapsed) and no other loss
        of the node is live — the workload layer un-quarantines the node here
        so flapping domains return capacity.

    A lost node's NIC stages collapse to :data:`NODE_LOSS_FACTOR` of their
    capacity.  ``install(engine)`` must be called after the engine is
    constructed and before ``run()``; an engine is single-use and building one
    clears the topology's fault overlays, so each run needs a fresh
    ``install``.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        on_node_loss: Optional[Callable[[int, float], None]] = None,
        on_node_heal: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.schedule = schedule
        self.on_node_loss = on_node_loss
        self.on_node_heal = on_node_heal

    def install(self, engine) -> int:
        """Schedule every event of the schedule onto ``engine``.

        Returns the number of engine callbacks scheduled (restore halves of
        transient faults count separately).  An empty schedule makes zero
        ``schedule_event`` calls and leaves the engine untouched.
        """
        events = self.schedule.events
        if not events:
            return 0
        topology = engine.topology
        if any(not isinstance(ev, SlowRank) for ev in events) and not hasattr(
            topology, "set_stage_fault"
        ):
            raise TypeError(
                f"link/rail/node fault events need a switch-fabric topology "
                f"with stage-fault overlays (SwitchFabricTopology); engine "
                f"has {type(topology).__name__ if topology is not None else None}"
            )
        live = _LiveFaults(engine)
        return sum(self._install_event(engine, event, live) for event in events)

    def _install_event(self, engine, event, live: "_LiveFaults") -> int:
        if isinstance(event, DomainOutage):
            # the correlated expansion: every member event rides the same
            # tier -1 path, all due at the outage timestamp
            return sum(
                self._install_event(engine, member, live) for member in event.expand()
            )
        if isinstance(event, SlowRank):
            rank, factor = event.rank, event.factor

            def apply(now: float) -> None:
                engine.set_compute_scale(rank, factor)

            def restore(now: float) -> None:
                engine.set_compute_scale(rank, 1.0)

        else:
            fault, overlays = object(), _overlays(event)  # ``fault`` keys it on each prefix
            node = event.node if isinstance(event, NodeLoss) else None

            def apply(now: float) -> None:
                for prefix, factor, failed in overlays:
                    live.add(prefix, fault, factor, failed, now)
                if node is not None:
                    live.losses[node] += 1
                    if self.on_node_loss is not None:
                        self.on_node_loss(node, now)

            def restore(now: float) -> None:
                for prefix, _, _ in overlays:
                    live.remove(prefix, fault, now)
                if node is not None:
                    live.losses[node] -= 1
                    if self.on_node_heal is not None and not live.losses[node]:
                        self.on_node_heal(node, now)

        engine.schedule_event(event.time, apply)
        if event.duration is None:
            return 1
        engine.schedule_event(event.time + event.duration, restore)
        return 2


def _overlays(event) -> Tuple[Tuple[tuple, float, bool], ...]:
    """The ``(stage prefix, factor, failed)`` overlays a link, rail or node fault installs."""
    if isinstance(event, LinkDegrade):
        return ((event.stage_prefix, event.factor, False),)
    if isinstance(event, RailFailure):
        return tuple(((family, event.node, event.rail), 1.0, True) for family in _NIC_FAMILIES)
    if isinstance(event, NodeLoss):
        return tuple(((family, event.node), NODE_LOSS_FACTOR, False) for family in _NIC_FAMILIES)
    raise TypeError(f"unknown fault event {event!r}")  # pragma: no cover


class _LiveFaults:
    """The faults live on one engine run, per stage prefix, and its lost nodes.

    A fabric keeps one overlay per prefix, so the faults live on a prefix go
    in as one: their factors multiply and any failure fails the stages.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.overlays: Dict[tuple, Dict[object, Tuple[float, bool]]] = defaultdict(dict)
        #: node -> live losses of it
        self.losses: Counter = Counter()

    def add(self, prefix, fault, factor: float, failed: bool, now: float) -> None:
        self.overlays[prefix][fault] = (factor, failed)
        self._refresh(prefix, now)

    def remove(self, prefix, fault, now: float) -> None:
        del self.overlays[prefix][fault]
        self._refresh(prefix, now)

    def _refresh(self, prefix, now: float) -> None:
        """Install the prefix's composed overlay; re-divide the fair flows it touches."""
        live = self.overlays[prefix].values()
        topology = self.engine.topology
        if live:
            changed = topology.set_stage_fault(
                prefix,
                factor=math.prod(factor for factor, _ in live),
                failed=any(failed for _, failed in live),
            )
        else:
            changed = topology.clear_stage_fault(prefix)
        fair = self.engine.fair_registry
        if fair is not None and changed:
            fair.apply_capacity_change(now, changed)
