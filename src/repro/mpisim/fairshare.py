"""Processor-sharing (max-min fair) contention for shared fabric stages.

The reservation queue of :class:`~repro.mpisim.topology.SharedLink` serialises
overlapping bulk streams: the first flow to resolve occupies the wire at full
capacity and later flows queue behind it.  That is aggregate-exact for
symmetric traffic, but an asymmetric mix finishes in the wrong order — the
flow that happens to resolve first wins the whole wire, regardless of size.

This module implements the alternative the fluid-flow literature calls
*processor sharing with max-min fair rates* (progressive filling): every
stage's active-flow set re-divides the stage capacity on each arrival and
departure event, so a small flow sharing a stage with a large one always
drains first.  The pieces:

* :class:`FairFlow` — one registered bulk stream: the stages it crosses, its
  backlog, and its current max-min rate.  A flow has no precomputed finish
  time: its rate changes until the registry commits its departure.
* :class:`FairShareRegistry` — the fluid event loop.  ``open_flow`` is an
  arrival (advance the fluid clock, re-divide), ``commit_departure`` retires
  the earliest-draining flow (re-divide again), and the discrete-event engine
  drives both, interleaving departures with rank steps so in-flight transfers
  genuinely see mid-flight rate changes.

The next departure is read off a heap, not found by scanning: every streaming
flow keeps one live ``(drain_at, flow_id)`` entry, re-keyed whenever
progressive filling sets its rate and rebuilt whenever the fluid clock moves,
and stale entries are popped lazily.  Drained flows awaiting their commit sit
in a small table of their own.  The engine asks for the earliest departure
after every registry change, so that query costs O(log flows) rather than
O(flows); ``(time, flow_id)`` ordering keeps "the earliest-registered flow
wins a tie" exactly, because flow ids only increase.

Rates are assigned by progressive filling: repeatedly find the stage whose
residual capacity divided by its unfixed flow count is smallest, fix those
flows at that share, subtract the share from every stage they cross, and
repeat.  The result is the unique max-min fair allocation; every flow is
bottlenecked on at least one saturated stage (work conservation) and no
stage's allocated rates ever exceed its capacity (bandwidth conservation).
The property suite in ``tests/property`` pins both invariants, plus exact
aggregate equivalence with the reservation queue for symmetric flow sets.

As the fluid clock advances, each stage's carried bytes are re-expressed as
reservations (``stage.reserve(segment_start, carried_bytes)``), so the
trace-based capacity audit of
:func:`~repro.mpisim.audit.capacity_conservation_violations` applies to
fair-share runs unchanged, and windowed poll credits observe the wire time
fluid flows actually consumed.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CONTENTION_RESERVATION",
    "CONTENTION_FAIR",
    "CONTENTION_MODES",
    "FairFlow",
    "FairShareRegistry",
]

#: contention disciplines for shared fabric stages
CONTENTION_RESERVATION = "reservation"
CONTENTION_FAIR = "fair"
CONTENTION_MODES = (CONTENTION_RESERVATION, CONTENTION_FAIR)


class FairFlow:
    """One bulk stream registered with a :class:`FairShareRegistry`.

    ``rate`` is the flow's current max-min share (bytes/second); it changes on
    every arrival/departure that shifts the allocation.  ``token`` is an
    opaque owner handle (the engine stores its message there).
    """

    __slots__ = (
        "flow_id",
        "stages",
        "nbytes",
        "remaining",
        "rate",
        "start",
        "drained",
        "finish_time",
        "drain_at",
        "token",
        "group",
    )

    def __init__(
        self,
        flow_id: int,
        stages: Tuple[Any, ...],
        start: float,
        nbytes: float,
        token: Any = None,
        group: Any = None,
    ) -> None:
        self.flow_id = flow_id
        self.stages = stages
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.start = float(start)
        self.drained = False
        self.finish_time: Optional[float] = None
        # the key of the flow's live drain-heap entry (None: no entry)
        self.drain_at: Optional[float] = None
        self.token = token
        # accounting group (e.g. a job id): delivered bytes of grouped flows
        # accumulate in FairShareRegistry.group_bytes
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FairFlow(id={self.flow_id}, remaining={self.remaining:g}, "
            f"rate={self.rate:g}, drained={self.drained})"
        )


class FairShareRegistry:
    """Event-driven max-min fair bandwidth division over shared stages.

    The registry owns a fluid clock that only moves forward.  The engine
    drives it through two entry points:

    * :meth:`open_flow` — an *arrival*: settle all active flows up to the
      arrival time (draining any that finish en route), add the new flow, and
      re-divide every touched stage's bandwidth.
    * :meth:`commit_departure` — retire the earliest-draining flow.  The
      engine calls this only once no simulated rank can act before that
      departure, which is what makes deferred finish times
      sound: until the commit, later arrivals may still slow the flow down.

    A registry is run state: the :class:`~repro.mpisim.engine.Engine` of a
    fair run creates one and it dies with that engine.  Stages are
    :class:`~repro.mpisim.topology.SharedLink` objects: hashed by identity,
    with ``capacity``, ``reserve(start, nbytes)`` and the ``flows`` dict the
    registry files their active flows in.
    """

    def __init__(self) -> None:
        self._flows: Dict[int, FairFlow] = {}
        # drained flows awaiting their commit, by id
        self._drained: Dict[int, FairFlow] = {}
        # (drain_at, flow_id) per streaming flow; lazily invalidated: an entry
        # is live iff its flow is registered, undrained and still keyed at it
        self._drains: List[Tuple[float, int]] = []
        self._clock = float("-inf")
        self._next_id = 0
        #: monotone change counter: bumped whenever the flow set, the rates or
        #: the fluid clock change, i.e. whenever a previously computed earliest
        #: departure may be stale.  The event-heap engine stamps its scheduled
        #: commit events with it and lazily discards entries whose stamp no
        #: longer matches (see repro.mpisim.engine).
        self.version = 0
        # cached earliest departure; invalidated together with the version
        self._earliest: Optional[Tuple[float, FairFlow]] = None
        self._earliest_valid = False
        #: bytes delivered per accounting group (cross-job fair-share
        #: attribution; only flows opened with ``group=`` contribute)
        self.group_bytes: Dict[Any, float] = {}

    def _touch(self) -> None:
        """Record a state change: bump the version, drop the departure cache."""
        self.version += 1
        self._earliest_valid = False

    # -------------------------------------------------------------- protocol

    def open_flow(
        self,
        stages: Sequence[Any],
        start: float,
        nbytes: float,
        token: Any = None,
        group: Any = None,
    ) -> FairFlow:
        """Register a bulk stream of ``nbytes`` entering ``stages`` at ``start``.

        Arrival event: active flows first progress to ``start`` at their
        current rates, then bandwidth is re-divided across the enlarged flow
        set.  Returns the registered flow.
        """
        unique = tuple(dict.fromkeys(stages))
        if not unique:
            raise ValueError("a fair-share flow must cross at least one stage")
        start = max(float(start), self._clock)
        self._advance(start)
        self._next_id += 1
        flow = FairFlow(
            flow_id=self._next_id,
            stages=unique,
            start=start,
            nbytes=max(0.0, float(nbytes)),
            token=token,
            group=group,
        )
        self._flows[flow.flow_id] = flow
        for stage in flow.stages:
            stage.flows[flow.flow_id] = flow
        self._touch()
        self._redivide(start, seeds=flow.stages)
        return flow

    def earliest_departure(self) -> Optional[Tuple[float, FairFlow]]:
        """The next flow to finish and when, at current rates (``None`` if idle).

        Ties resolve to the earliest-registered flow (drained-but-uncommitted
        flows first), so commits are deterministic.  Drained flows are picked
        from their small table, streaming ones off the drain heap's top
        (:meth:`_top_drain`), so a query costs O(log flows) amortised rather
        than a scan of every flow; the result is also cached until the next
        state change (see :attr:`version`).
        """
        if self._earliest_valid:
            return self._earliest
        best_t: Optional[float] = None
        best_flow: Optional[FairFlow] = None
        if self._drained:
            best_t, fid = min((f.finish_time, fid) for fid, f in self._drained.items())
            best_flow = self._drained[fid]
        drain_t, drain_flow = self._top_drain()
        if drain_flow is not None and (best_t is None or drain_t < best_t):
            best_t, best_flow = drain_t, drain_flow
        self._earliest = None if best_flow is None else (best_t, best_flow)
        self._earliest_valid = True
        return self._earliest

    def commit_departure(self) -> Tuple[float, FairFlow]:
        """Retire the earliest-draining flow and return ``(finish, flow)``.

        The fluid clock advances to the departure, the freed bandwidth is
        re-divided among the surviving flows, and the flow leaves the
        registry for good.
        """
        pending = self.earliest_departure()
        if pending is None:
            raise RuntimeError("commit_departure called with no registered flow")
        finish, flow = pending
        if not flow.drained:
            self._advance(finish)
        if not flow.drained:  # pragma: no cover - fp guard
            self._drain(flow, finish)
        self._flows.pop(flow.flow_id, None)
        self._drained.pop(flow.flow_id, None)
        self._touch()
        assert flow.finish_time is not None
        return flow.finish_time, flow

    def cancel_flow(self, flow: FairFlow, now: float) -> bool:
        """Withdraw ``flow`` mid-stream (job kill): free its bandwidth *now*.

        Settles every active flow up to ``now`` (a cancellation is never
        retroactive), removes the flow from its stages and the registry
        without committing a departure, and re-divides the freed capacity
        across the flow's connected component — surviving tenants' rates
        rise immediately instead of sharing with a dead flow draining at
        retransmit rates.  Returns ``True`` if the flow was still
        streaming; ``False`` if it had already drained while settling (its
        bytes were fully delivered — the cancel just discards the pending
        departure commit) or was never registered.
        """
        if flow.flow_id not in self._flows:
            return False
        now = max(float(now), self._clock)
        self._advance(now)
        was_streaming = not flow.drained
        self._flows.pop(flow.flow_id, None)
        self._drained.pop(flow.flow_id, None)
        for stage in flow.stages:
            stage.flows.pop(flow.flow_id, None)
        self._touch()
        if was_streaming:
            flow.rate = 0.0
            flow.remaining = 0.0
            flow.drained = True
            self._redivide(now, seeds=flow.stages)
        return was_streaming

    def apply_capacity_change(self, now: float, stages: Sequence[Any]) -> None:
        """Re-divide after ``stages`` changed capacity mid-run (fault events).

        An arrival-like event without a new flow: every active flow first
        settles up to ``now`` at its *old* rate — capacity changes are never
        retroactive — then the connected component reachable from ``stages``
        re-divides against the new capacities.
        Stages carrying no fluid flow are left untouched (their next
        ``open_flow`` reads the live capacity anyway), so calling this with
        idle stages is free and changes nothing.
        """
        now = max(float(now), self._clock)
        self._advance(now)
        seeds = [stage for stage in stages if stage.flows]
        if not seeds:
            return
        self._touch()
        self._redivide(now, seeds=seeds)

    # --------------------------------------------------------- introspection

    @property
    def clock(self) -> float:
        """The fluid clock: the time progress has been settled up to."""
        return self._clock

    def active_flows(self) -> List[FairFlow]:
        """Registered flows not yet drained, in registration order.

        A flow stays here until its drain, including a zero-byte flow whose
        backlog is already empty but whose departure is not yet due.
        """
        return [f for f in self._flows.values() if not f.drained]

    def pending_count(self) -> int:
        """Registered flows the engine has not committed yet (incl. drained)."""
        return len(self._flows)

    # --------------------------------------------------------- fluid machinery

    def _top_drain(self) -> Tuple[Optional[float], Optional[FairFlow]]:
        """Earliest drain among streaming flows at current rates.

        The single source of truth for departure selection: both the engine's
        :meth:`earliest_departure` and the fluid loop of :meth:`_advance` read
        it, so the commit horizon and the internal drains can never diverge.
        Stale heap entries above the first live one are popped on the way.
        """
        drains = self._drains
        flows = self._flows
        while drains:
            t, fid = drains[0]
            flow = flows.get(fid)
            if flow is not None and not flow.drained and flow.drain_at == t:
                return t, flow
            heapq.heappop(drains)
        return None, None

    def _drain_key(self, flow: FairFlow) -> Optional[float]:
        """When a streaming ``flow`` drains at current clock and rate."""
        if flow.remaining <= 0.0:
            return max(self._clock, flow.start)
        if flow.rate > 0.0:
            return self._clock + flow.remaining / flow.rate
        return None  # pragma: no cover - zero share needs fp pathology

    def _rekey(self, flow: FairFlow) -> None:
        """Give ``flow`` a live drain-heap entry at its current key."""
        t = self._drain_key(flow)
        if t != flow.drain_at:
            flow.drain_at = t
            if t is not None:
                heapq.heappush(self._drains, (t, flow.flow_id))

    def _rebuild_drains(self, streaming: List[FairFlow]) -> None:
        """Re-key every streaming flow after the fluid clock moved."""
        drains = []
        for flow in streaming:
            t = flow.drain_at = self._drain_key(flow)
            if t is not None:
                drains.append((t, flow.flow_id))
        heapq.heapify(drains)
        self._drains = drains

    def _advance(self, target: float) -> None:
        """Progress every active flow to ``target``, draining along the way."""
        if target > self._clock:
            self._touch()
        if not self._flows or self._clock == float("-inf"):
            self._clock = max(self._clock, target)
            return
        while self._clock < target:
            streaming = [f for f in self._flows.values() if not f.drained]
            if not streaming:
                self._clock = target
                return
            dep_time, dep_flow = self._top_drain()
            if dep_time is None or dep_time > target:
                self._stream(self._clock, target, streaming)
                self._clock = target
                self._rebuild_drains(streaming)
                return
            if dep_time > self._clock:
                self._stream(self._clock, dep_time, streaming)
                self._clock = dep_time
                self._rebuild_drains(streaming)
            assert dep_flow is not None
            self._drain(dep_flow, dep_time)

    def _stream(self, t0: float, t1: float, streaming: List[FairFlow]) -> None:
        """Deliver one constant-rate fluid segment and book the wire time."""
        dt = t1 - t0
        if dt <= 0.0:
            return
        carried: Dict[Any, float] = {}
        group_bytes = self.group_bytes
        for flow in streaming:
            if flow.rate <= 0.0:
                continue
            flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            if flow.group is not None:
                group_bytes[flow.group] = (
                    group_bytes.get(flow.group, 0.0) + flow.rate * dt
                )
            for stage in flow.stages:
                carried[stage] = carried.get(stage, 0.0) + flow.rate * dt
        # re-express the segment as reservations: the trace-based capacity
        # audit and the windowed poll credits both read stage.busy_until
        for stage, nbytes in carried.items():
            if nbytes > 0.0:
                stage.reserve(t0, nbytes)

    def _drain(self, flow: FairFlow, time: float) -> None:
        """Departure event: fix the flow's finish and free its bandwidth."""
        flow.drained = True
        flow.finish_time = time
        flow.remaining = 0.0
        flow.rate = 0.0
        self._drained[flow.flow_id] = flow
        for stage in flow.stages:
            stage.flows.pop(flow.flow_id, None)
        self._touch()
        self._redivide(time, seeds=flow.stages)

    def _redivide(self, now: float, seeds: Sequence[Any]) -> None:
        """Progressive filling: recompute active flows' max-min rates.

        Implemented with a lazily-invalidated candidate heap keyed on
        ``(share, stage insertion index)``: each filling round pops the stage
        with the smallest current share instead of rescanning every stage.
        The share arithmetic (``residual / unfixed count``), the tie-break
        (earliest-registered stage wins an equal share) and the residual
        subtraction order are identical to the reference quadratic sweep, so
        the resulting rates are bit-for-bit the same — only the complexity
        drops from O(stages^2 x flows) to O(incidences x log stages).

        ``seeds`` (the stages of the flow that just arrived or drained, or
        the stages whose capacity changed) restricts the filling to the
        *connected component* of stages reachable from them through shared
        flows.  Max-min allocations decompose exactly over such components —
        a rate in one component never depends on another component's flows —
        so the restricted filling produces bit-for-bit the rates a sweep over
        every flow would, while independent stages (e.g. distinct node
        uplinks) stop paying for each other's arrivals.
        """
        self._touch()
        component = set()
        members: Dict[int, FairFlow] = {}
        frontier = list(seeds)
        while frontier:
            stage = frontier.pop()
            if stage in component:
                continue
            component.add(stage)
            for flow in stage.flows.values():
                if flow.flow_id not in members:
                    members[flow.flow_id] = flow
                    for other in flow.stages:
                        if other not in component:
                            frontier.append(other)
        if not members:
            return
        if len(members) == 1:
            # alone in its component, a flow is fixed by the filling's first round:
            # every share is capacity / 1 and the smallest one wins, whatever the tie
            (flow,) = members.values()
            flow.rate = max(0.0, min(float(stage.capacity) for stage in flow.stages))
            self._rekey(flow)
            return
        # registration order, exactly like the sweep over every flow
        active = [members[fid] for fid in sorted(members)]
        stage_idx: Dict[Any, int] = {}
        residual: Dict[Any, float] = {}
        counts: Dict[Any, int] = {}
        crossing: Dict[Any, List[FairFlow]] = {}
        for flow in active:
            for stage in flow.stages:
                if stage not in stage_idx:
                    stage_idx[stage] = len(stage_idx)
                    residual[stage] = float(stage.capacity)
                    counts[stage] = 0
                    crossing[stage] = []
                crossing[stage].append(flow)
                counts[stage] += 1
        unfixed = {f.flow_id: f for f in active}
        rates: Dict[int, float] = {}
        # idx is unique per stage, so the heap never compares two stages
        candidates = [
            (residual[stage] / counts[stage], idx, stage) for stage, idx in stage_idx.items()
        ]
        heapq.heapify(candidates)
        while unfixed and candidates:
            share, idx, stage = heapq.heappop(candidates)
            n = counts[stage]
            if n == 0:
                continue
            current = residual[stage] / n
            if current != share:
                # stale entry: the stage changed since it was pushed
                heapq.heappush(candidates, (current, idx, stage))
                continue
            share = max(0.0, share)
            touched: List[Any] = []
            for flow in crossing[stage]:
                if flow.flow_id not in unfixed:
                    continue
                del unfixed[flow.flow_id]
                rates[flow.flow_id] = share
                for other in flow.stages:
                    residual[other] = max(0.0, residual[other] - share)
                    counts[other] -= 1
                    touched.append(other)
            for other in touched:
                if counts[other] > 0:
                    heapq.heappush(
                        candidates,
                        (residual[other] / counts[other], stage_idx[other], other),
                    )
        for flow in active:
            flow.rate = rates.get(flow.flow_id, 0.0)
            self._rekey(flow)
