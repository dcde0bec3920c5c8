"""Link primitives: how one stage is shared and metered.

A :class:`SharedLink` is one contended physical link — the one stage class of
both contention disciplines; a :class:`LinkModel` is what one rank pair sees
— latency, bottleneck bandwidth and the chain of stages its transfers cross.
See the package docstring's "Contention models" section for the two
disciplines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.mpisim.fairshare import FairFlow
from repro.utils.validation import ensure_non_negative, ensure_positive

__all__ = ["SharedLink", "LinkModel", "reserve_path"]


@dataclass(eq=False)
class SharedLink:
    """Contention meter for one shared physical link (e.g. a node uplink).

    Hashed by identity (``eq=False``): the fair-share registry and the audits
    key their per-stage tables by the stage itself.

    The link is modelled as a serial resource with a reservation queue:
    ``busy_until`` marks the time through which earlier bulk streams have
    reserved the wire.  A transfer that streams to completion reserves the
    link from ``max(start, busy_until)`` at full capacity and pushes
    ``busy_until`` to its finish time; windowed poll credits (capped at the
    transport's in-flight window) likewise earn bytes only after
    ``busy_until``.  Serialising overlapping streams this way yields the same
    aggregate finish times as fair bandwidth splitting for symmetric flows,
    keeps aggregate throughput bounded by ``capacity``, and — unlike an
    instantaneous share — is robust to the engine resolving completions
    eagerly, before sibling transfers have matched.

    Under ``contention="fair"`` the same stage is processor-shared: ``flows``
    (empty throughout a reservation run) holds the
    :class:`~repro.mpisim.fairshare.FairFlow` entries currently streaming
    across it, the run's :class:`~repro.mpisim.fairshare.FairShareRegistry`
    re-divides the capacity among them on every arrival/departure event and
    re-expresses the carried bytes as reservations, so ``busy_until`` (and
    the trace-based capacity audit) stay meaningful.  Windowed poll credits
    keep the reservation mechanics but are capped at the stage's *residual*
    rate — capacity not allocated to fluid flows — so the two accounting
    schemes never overcommit the wire.

    ``assigned`` counts messages a fabric has *routed* over this stage so
    far; adaptive routing balances on it because at post time a freshly
    routed flow has not reserved any wire yet (its backlog is only visible
    as placement history).  ``wire_seconds`` is the wire time
    reserved since the last :meth:`clear` (``bytes / capacity`` at reserve
    time, under both disciplines — fair mode re-expresses every fluid segment
    as a reservation); utilization reports divide it by the run's makespan.
    """

    capacity: float
    busy_until: float = float("-inf")
    assigned: int = 0
    wire_seconds: float = 0.0
    flows: Dict[int, FairFlow] = field(default_factory=dict)

    def reserve(self, start: float, nbytes: float) -> float:
        """Reserve the link for a bulk stream of ``nbytes`` from ``start``.

        Returns the finish time; the stream queues behind earlier reservations.
        """
        seconds = max(0.0, nbytes) / self.capacity
        finish = max(start, self.busy_until) + seconds
        self.busy_until = finish
        self.wire_seconds += seconds
        return finish

    def allocated_rate(self) -> float:
        """Bandwidth currently allocated to fluid flows crossing this stage."""
        return sum(flow.rate for flow in self.flows.values())

    @property
    def backlogged(self) -> bool:
        """Whether any fluid flow currently holds backlog on this stage."""
        return any(flow.remaining > 0.0 for flow in self.flows.values())

    def clear(self) -> None:
        """Forget all reservations, flows and routing history (simulation reset)."""
        self.busy_until = float("-inf")
        self.assigned = 0
        self.wire_seconds = 0.0
        self.flows.clear()


def reserve_path(stages: Iterable[SharedLink], start: float, nbytes: float) -> float:
    """Reserve a bulk stream of ``nbytes`` across every stage of a path.

    The stream starts on all stages at a common begin time — it cannot enter
    the path before the most-backlogged stage frees up — and occupies each
    stage for ``nbytes / stage.capacity`` of wire time, so per-stage capacity
    conservation holds exactly.  Returns the finish time at the bottleneck
    stage.  For a single stage this is identical to
    :meth:`SharedLink.reserve`.
    """
    stages = tuple(stages)
    begin = max([start] + [s.busy_until for s in stages])
    finish = begin
    for stage in stages:
        finish = max(finish, stage.reserve(begin, nbytes))
    return finish


@dataclass
class LinkModel:
    """The (latency, bandwidth) a specific rank pair sees, plus optional sharing.

    ``stages`` lists every :class:`SharedLink` a transfer over this link
    crosses — one node uplink, or the NIC and switch stages of a multi-hop
    fabric path; ``bandwidth`` is then the bottleneck (minimum) stage
    capacity and concurrent transfers contend stage by stage.  A dedicated
    link has no stages.  How the stages are shared — reservation queue or
    max-min fair — is decided per run by the engine, not by the link.
    """

    latency: float
    bandwidth: float
    stages: Tuple[SharedLink, ...] = ()

    def __post_init__(self) -> None:
        ensure_non_negative(self.latency, "latency")
        ensure_positive(self.bandwidth, "bandwidth")
