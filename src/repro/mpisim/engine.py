"""Discrete-event engine that executes rank programs in virtual time.

The engine is the heart of the MPI runtime simulator.  Every rank of the
simulated communicator is a Python generator (see
:mod:`repro.mpisim.commands`); the engine resumes ranks event by event and
interprets the commands they yield:

* ``Compute`` advances the rank's clock by a modelled duration;
* ``Isend``/``Irecv`` post messages and return request handles;
* ``Wait``/``Waitall`` complete requests, advancing the clock according to the
  network model (and blocking the rank when the outcome depends on another
  rank that has not progressed far enough yet);
* ``Test`` enters the progress engine without blocking, which is what lets
  transfers advance while a rank is busy compressing (the PIPE-SZx overlap).

Payloads are carried by reference, so all data-level results of a simulated
collective (reduced arrays, decompressed chunks) are numerically real; only
*time* is modelled.

Slots and jobs
--------------

The engine owns ``n_ranks`` *slots* — the endpoints of the fabric — and a
slot has one life cycle: idle -> ready/blocked (a job's program is bound to
it) -> idle (the program returned, or the job was killed).  Programs only
ever run as part of a job (:class:`EngineJob`), and the job is the
simulator's communicator: rank ``r`` of a job is the slot ``job.slots[r]``,
programs name their peers by job rank, and the ``Isend``/``Irecv`` handlers
translate to slots where they validate the peer, so a job cannot reach a
slot outside itself.  ``Barrier`` spans the issuing rank's job.
Matching keys, request handles and the diagnostics below are in slot
coordinates.  ``Engine(n, factory)`` is one job over all slots bound at
t=0 — for it job rank and slot coincide — and goes through the same bind
as a job a scheduler places mid-run (:meth:`Engine.bind_job`), which is why
a lone job on a shared fabric replays the standalone simulation bit for bit.

What the engine holds
---------------------

The request handle a program gets back from ``Isend``/``Irecv`` *is* the
engine's record of that operation (see :mod:`repro.mpisim.requests`); there
is no request table.  A posted send is one record, a ``_Message``: the message
and, as a :class:`~repro.mpisim.network.TransferState`, its transfer.  The
engine itself references only: the slots (program, clock, the handles of the
``Wait`` a rank is inside and the one it blocks on), unmatched postings
(``_unmatched_sends`` / ``_unmatched_recvs``, a key gone with its last
entry), matched messages still in flight (``_inflight[rank]``, keyed by the
message, in match order) and the event heap, whose entries are numbers.
For a finished operation it holds nothing: message and payload live exactly
as long as the program keeps a handle, and since a message never points back
at its handles, reference counting frees them the moment the last handle is
dropped.

Event-heap core
---------------

Scheduling is a single global min-heap of ``(timestamp, order, token)``
entries — O(log events) per scheduling decision regardless of rank count,
which is what lets one engine drive 10k+ ranks.  That holds for fair runs
too: the registry keeps its next departure on a heap of its own, so the
commit entry's refresh costs O(log flows), not a scan of every flow (see
:mod:`repro.mpisim.fairshare`).  ``order`` encodes the
priority tier and the tiebreak in one integer, and the heap holds three
tiers:

====================  =====================  ====================================
tier                  heap entry             live while
====================  =====================  ====================================
scheduled callback    ``(t, -1, index)``     always (:meth:`Engine.schedule_event`)
fair-share commit     ``(finish, 0, ver)``   ``ver`` is the registry version the
                                             last commit entry was stamped with
rank step             ``(clock, r+1, tok)``  rank ``r`` is ready and ``tok`` is
                                             its latest ``ready_token``
====================  =====================  ====================================

A rank step is pushed when a program starts, when a stepped rank yields the
minimum, and on every *wakeup*: a blocked receiver whose matching send was
posted, a rendezvous sender whose transfer the receiver finished, a
fair-mode receiver whose flow departure was committed, and every rank a
barrier releases (at the latest arrival's clock).

One peek decides what runs next: :meth:`Engine._live_top` refreshes the
commit entry (a registry whose version moved gets a fresh ``(earliest
departure, 0, version)``), pops the stale entries above the earliest live
one and returns it, left on the heap.  :meth:`Engine.run` pops it and
dispatches by tier; a stepped rank keeps running inline until the one
comparison ``top < (clock, r+1)`` says a live entry precedes it (a callback
or commit due at or before its clock sorts first: its order is below
``r+1``).  :attr:`Engine.event_counts` counts the three tiers.

Priority/tiebreak contract (what keeps golden makespans bit-for-bit):

* Rank events order by ``(clock, rank)`` exactly — ``order = rank + 1``
  preserves the historical "smallest clock, ties to the smallest rank id"
  schedule, so every reservation-mode simulation replays the same command
  interleaving (and therefore the same ``SharedLink`` reservation order) as
  the scan-loop engine it replaced.
* Fair-share commits use priority tier 0: a departure due at time ``t``
  commits before any rank steps at ``t``.  Departures only move *later* on
  new arrivals, so no rank command below the commit's timestamp can
  invalidate it — committing at the heap ordering point is sound.
* Wakeups triggered inside a step (a match established, a send completed, a
  flow committed) run their wait continuation synchronously — reservation
  bookkeeping happens in command execution order — and the woken rank
  re-enters the queue as an ordinary rank-ready event at its post-wakeup
  clock.

Determinism: heap entries are totally ordered (``token`` — a monotone
per-push counter or registry version — breaks the final tie), every push is
derived from simulation state alone, and pop timestamps are non-decreasing
(every event schedules successors at or after its own timestamp).  Stale
entries (a superseded rank push, an outdated commit projection) stay on the
heap until the peek reaches them.

Causality note: a rank program that branches on a ``Test`` result may see
a transfer complete one poll later than a wall-clock-accurate simulation
would (the engine evaluates a poll against the progress made so far).
All algorithms in this package use polling purely as a progress hook, for
which the effect is bounded by a single polling interval.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.mpisim.commands import (
    Barrier,
    Command,
    Compute,
    Irecv,
    Isend,
    Test,
    Wait,
    Waitall,
)
from repro.mpisim.errors import (
    DeadlockError,
    InvalidCommandError,
    RankProgramError,
    RunawayProgramError,
)
from repro.mpisim.fairshare import CONTENTION_FAIR, FairShareRegistry
from repro.mpisim.network import NetworkModel, TransferState
from repro.mpisim.requests import RecvRequest, Request, SendRequest
from repro.mpisim.topology import Topology
from repro.mpisim.timeline import TimeBreakdown

__all__ = ["Engine", "EngineJob", "RankResult", "payload_nbytes"]

RankProgram = Generator[Command, Any, Any]
ProgramFactory = Callable[[int, int], RankProgram]

_READY = "ready"
_BLOCKED = "blocked"
#: a slot with no program bound: it contributes no events and does not gate
#: run completion.  A job occupies idle slots and returns each one to idle
#: when its program finishes (or the job is killed).
_IDLE = "idle"

_BLOCK_RECV_MATCH = "recv-match"
_BLOCK_SEND_COMPLETION = "send-completion"
_BLOCK_BARRIER = "barrier"
_BLOCK_FLOW_COMPLETION = "flow-completion"
#: what a deadlock report says of a rank blocked ``on`` a request handle
_DEADLOCK_DIAGNOSES = {
    _BLOCK_RECV_MATCH: "Wait on receive from rank {on.peer} (tag {on.tag}) that was never sent",
    _BLOCK_SEND_COMPLETION: "Wait on send to rank {on.peer} that the receiver never completed",
    _BLOCK_FLOW_COMPLETION: (
        "Wait on a fair-share flow from rank {on.peer} whose departure was never committed"
    ),
}


def payload_nbytes(data: Any) -> int:
    """Size in bytes of a message payload that carries its own size.

    ``None`` is 0 bytes, an array its ``nbytes``, a bytes-like its length; any
    other object raises ``TypeError`` — send it with ``Isend(nbytes=...)``.
    """
    if data is None:
        return 0
    nbytes = getattr(data, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    raise TypeError(f"a {type(data).__name__} payload has no nbytes and no length; pass nbytes=")


@dataclass(slots=True, eq=False, init=False)
class _Message(TransferState):
    """A posted send, one record: the message and, once matched, the
    :class:`~repro.mpisim.network.TransferState` of its transfer (``__init__``
    sets the inherited fields too).  Hashed by identity: ``_inflight`` is keyed
    by the message.  Handles point here; nothing here points back at a handle.
    """

    src: int
    dst: int
    data: Any
    send_post_time: float

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, src, dst, data, send_post_time, nbytes, network, eager, link, fair):
        self.src = src
        self.dst = dst
        self.data = data
        self.send_post_time = send_post_time
        self.nbytes = nbytes
        self.network = network
        self.eager = eager
        self.link = link
        self.fair = fair
        self.eligible_time = self.last_ack_time = self.completion_time = self.fair_flow = None
        self.delivered_bytes = 0.0
        self.completed = False


@dataclass(slots=True)
class _RankState:
    """Execution state of one simulated rank."""

    rank: int
    gen: Optional[RankProgram] = None
    #: the job occupying this slot, bind to retire/kill (``None`` while idle)
    job: Optional["EngineJob"] = None
    clock: float = 0.0
    status: str = _IDLE
    resume_value: Any = None
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    result: Any = None
    bytes_sent: int = 0
    messages_sent: int = 0
    commands_executed: int = 0
    # wait continuation (shared by Wait and Waitall); wait_pos is the cursor
    # into wait_pending so resuming a blocked wait never mutates the list
    wait_pending: Sequence[Request] = ()
    wait_pos: int = 0
    wait_results: List[Any] = field(default_factory=list)
    wait_category: str = "Wait"
    wait_single: bool = True
    block_kind: Optional[str] = None
    # the handle whose operation this rank blocks on (None in a barrier)
    block_on: Optional[Request] = None
    barrier_category: str = "Others"
    # token of this rank's latest entry in the engine's event heap; older
    # heap entries with a stale token are skipped during lazy pop
    ready_token: int = 0


@dataclass
class RankResult:
    """Per-rank outcome of a simulation (see :class:`repro.mpisim.launcher.SimulationResult`)."""

    rank: int
    value: Any
    finish_time: float
    breakdown: TimeBreakdown
    bytes_sent: int
    messages_sent: int


class EngineJob:
    """The simulator's communicator: rank programs bound to engine slots as one job.

    Created by :meth:`Engine.bind_job` (and, for ``Engine(n, factory)``, by
    the engine itself over every slot).  ``slots[r]`` is the engine slot of
    the job's rank ``r``: the engine resolves every ``dest``/``source`` a
    program of this job yields through that tuple, and a ``Barrier`` waits
    for exactly these ranks, so a job cannot address a slot it does not
    occupy.  The job is *retired* once every one of its slot programs runs
    to completion; at that point ``finished``, ``results``, ``bytes_sent``
    and ``messages_sent`` are final (``results`` and ``finish_times`` are
    keyed by slot) and the ``on_retire`` callback (if any) fires with this
    handle.
    """

    __slots__ = (
        "tag",
        "slots",
        "started",
        "finished",
        "killed",
        "finish_times",
        "results",
        "bytes_sent",
        "messages_sent",
        "on_retire",
        "_pending",
        "_barrier",
    )

    def __init__(
        self,
        tag: Any,
        slots: Tuple[int, ...],
        started: float,
        on_retire: Optional[Callable[["EngineJob"], None]],
    ) -> None:
        self.tag = tag
        self.slots = slots
        self.started = started
        self.finished: Optional[float] = None
        # set by Engine.kill_job: the virtual time the job was torn down
        self.killed: Optional[float] = None
        self.finish_times: Dict[int, float] = {}
        self.results: Dict[int, Any] = {}
        self.bytes_sent = 0
        self.messages_sent = 0
        self.on_retire = on_retire
        self._pending = set(slots)
        # (slot, arrival clock) of the ranks waiting in the job's barrier
        self._barrier: List[Tuple[int, float]] = []

    @property
    def retired(self) -> bool:
        return self.finished is not None

    @property
    def makespan(self) -> float:
        if self.finished is None:
            raise RuntimeError(f"job {self.tag!r} has not retired yet")
        return self.finished - self.started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"finished={self.finished}" if self.retired else "running"
        return f"EngineJob(tag={self.tag!r}, slots={self.slots}, {state})"


class Engine:
    """Runs ``n_ranks`` rank programs to completion in virtual time.

    An engine is single-use: it runs one simulation and ``run()`` raises on a
    second call.  What is reused across simulations is the *topology* — each
    new engine rewinds the stage clocks, flow sets and routing history of the
    topology it is given (``topology.reset()``), so a run never sees
    reservations, flows or faults a previous engine left behind, even one
    that aborted mid-flight.  ``engine.topology`` is always the caller's
    object; what belongs to the run is ``fair_registry`` (read-only), its
    :class:`~repro.mpisim.fairshare.FairShareRegistry` — created here iff the
    topology has shared stages and either it or ``network`` asks for
    ``contention="fair"``, ``None`` otherwise, and gone with the engine.

    Every slot starts *idle* and every program runs as part of a job (see
    "Slots and jobs" in the module docstring).  ``program_factory`` is the
    single-job shorthand: the engine binds one job of
    ``program_factory(r, n_ranks)`` over all slots at t=0.  With ``None``
    the engine is driven by scheduled events (:meth:`schedule_event`) that
    bind jobs onto free slots (:meth:`bind_job`).  Scheduled callbacks
    occupy priority tier ``-1`` in the event heap — at equal timestamps a
    job start commits before fair departures and before any rank steps, so
    a job arriving at ``t`` sees exactly the same event order it would see
    starting a fresh simulation at ``t``.  The run completes when the heap
    drains and every slot is idle.
    """

    def __init__(
        self,
        n_ranks: int,
        program_factory: Optional[ProgramFactory],
        network: Optional[NetworkModel] = None,
        max_commands: int = 50_000_000,
        topology: Optional[Topology] = None,
        trace_events: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = int(n_ranks)
        self.network = network if network is not None else NetworkModel()
        self.topology = topology
        #: fair-share registry driving this run's deferred flow completions
        self.fair_registry: Optional[FairShareRegistry] = None
        if (
            topology is not None
            and topology.shares_uplinks
            and CONTENTION_FAIR in (topology.contention, self.network.contention)
        ):
            self.fair_registry = FairShareRegistry()
        self.max_commands = int(max_commands)
        self._trace_events = bool(trace_events)
        # type-keyed command dispatch (replaces the isinstance chain on the
        # hottest path; a command is exactly one of these types)
        self._handlers: Dict[type, Callable[[_RankState, Command], None]] = {
            Compute: self._handle_compute,
            Isend: self._handle_isend,
            Irecv: self._handle_irecv,
            Wait: self._handle_wait,
            Waitall: self._handle_waitall,
            Test: self._handle_test,
            Barrier: self._handle_barrier,
        }
        if topology is not None:
            topology.reset()
        self._states = [_RankState(rank=r) for r in range(self.n_ranks)]
        # (dst, src, tag) -> FIFO of unmatched sends (_Message) / receives
        # (RecvRequest); a FIFO that empties leaves its table
        self._unmatched_sends: Dict[Tuple[int, int, int], deque] = {}
        self._unmatched_recvs: Dict[Tuple[int, int, int], deque] = {}
        # receiver rank -> matched inbound messages whose transfer is still
        # *in flight*, as the keys of an insertion-ordered dict (never a set:
        # progress order is match order).  Completed transfers are removed as
        # they finish, so the per-wait progress sweep touches only live ones.
        self._inflight: Dict[int, Dict[_Message, None]] = {r: {} for r in range(self.n_ranks)}
        # scheduled callbacks, indexed by heap token of the (t, -1, idx) tier
        self._events: List[Callable[[float], None]] = []
        # rank -> compute-rate multiplier installed by fault events (slow
        # ranks); empty means every Compute runs at its modelled duration, so
        # fault-free simulations take the exact historical code path
        self._compute_scale: Dict[int, float] = {}
        self._ran = False
        # the event heap of (timestamp, order, token) entries in three tiers:
        # order -1 callbacks, 0 fair commits, rank+1 rank steps
        self._heap: List[Tuple[float, int, int]] = []
        # rank steps pushed; the latest is each rank's live ready_token
        self._ready_tokens = 0
        # registry version the latest fair-commit entry was stamped with
        self._fair_event_version = -1
        self._commits_run = 0
        self._callbacks_run = 0
        #: popped (timestamp, order) pairs when ``trace_events`` is set —
        #: the deterministic pop-order witness used by the equivalence suite
        self.event_trace: List[Tuple[float, int]] = []
        if program_factory is not None:
            n_ranks = self.n_ranks
            programs = {r: partial(program_factory, r, n_ranks) for r in range(n_ranks)}
            self._bind(0.0, programs, None, None)

    # ------------------------------------------------------------------ run

    @property
    def event_counts(self) -> Dict[str, int]:
        """Scheduling telemetry per heap tier: rank steps pushed, commits and callbacks run."""
        return {
            "rank-step": self._ready_tokens,
            "fair-commit": self._commits_run,
            "scheduled-callback": self._callbacks_run,
        }

    def _push_ready(self, state: _RankState) -> None:
        """(Re)insert a ready rank into the event heap at its current clock."""
        self._ready_tokens += 1
        state.ready_token = self._ready_tokens
        heapq.heappush(self._heap, (state.clock, state.rank + 1, self._ready_tokens))

    def _live_top(self) -> Optional[Tuple[float, int, int]]:
        """The earliest live heap entry, left on the heap (``None`` when there is none).

        Refreshes the commit entry, then pops the stale entries above the
        live one (tiers and liveness rules: module docstring)."""
        heap = self._heap
        fair = self.fair_registry
        if fair is not None and fair.version != self._fair_event_version:
            version = self._fair_event_version = fair.version
            pending = fair.earliest_departure()
            if pending is not None:
                heapq.heappush(heap, (pending[0], 0, version))
        states = self._states
        while heap:
            top = heap[0]
            order = top[1]
            if order < 0:
                return top
            if order == 0:
                if top[2] == self._fair_event_version:
                    return top
            else:
                state = states[order - 1]
                if state.status == _READY and top[2] == state.ready_token:
                    return top
            heapq.heappop(heap)
        return None

    # ---------------------------------------------------------------- jobs

    def clock_of(self, rank: int) -> float:
        """Current virtual clock of one slot (read-only telemetry hook)."""
        return self._states[rank].clock

    def schedule_event(self, time: float, fn: Callable[[float], None]) -> None:
        """Run ``fn(time)`` at virtual time ``time`` in priority tier ``-1``.

        Tier ``-1`` sorts before fair commits (tier 0) and rank steps
        (tier rank+1) at the same timestamp, and the token is an index into
        an append-only callback list, so scheduled events are never stale.
        Callbacks typically call :meth:`bind_job` (workload arrivals) or
        mutate fabric state (fault injection, see :mod:`repro.faults`); they
        must not schedule events in the past (heap pops must stay
        non-decreasing in time).
        """
        heapq.heappush(self._heap, (float(time), -1, len(self._events)))
        self._events.append(fn)

    def set_compute_scale(self, rank: int, factor: float) -> None:
        """Scale every subsequent ``Compute`` of ``rank`` by ``factor``.

        The slow-rank fault hook (see :mod:`repro.faults`): ``factor > 1``
        models a straggling rank (thermal throttling, a noisy neighbour),
        ``factor == 1`` restores the rank to its modelled speed.  Takes
        effect from the next ``Compute`` the rank executes; in-progress
        waits are unaffected.
        """
        if not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} outside 0..{self.n_ranks - 1}")
        if not factor > 0.0:
            raise ValueError(f"compute scale factor must be > 0, got {factor}")
        if factor == 1.0:
            self._compute_scale.pop(rank, None)
        else:
            self._compute_scale[rank] = float(factor)

    def bind_job(
        self,
        time: float,
        programs: Dict[int, Callable[[], RankProgram]],
        tag: Any = None,
        on_retire: Optional[Callable[[EngineJob], None]] = None,
    ) -> EngineJob:
        """Bind rank-program thunks onto idle slots as one job starting at ``time``.

        ``programs`` maps slot id -> zero-argument generator factory, in the
        job's rank order: the slot of the first entry is the job's rank 0,
        and that is the numbering the programs address each other by.
        Every slot must currently be idle; the slots become ready at
        ``time`` (or their current clock, if later — a slot freed at
        ``t > time`` cannot travel back).  Returns the :class:`EngineJob`
        handle; when every program finishes, the slots are idle again and
        ``on_retire(job)`` fires (from which a scheduler may immediately
        bind the next job).
        """
        return self._bind(time, programs, tag, on_retire)

    def _bind(
        self,
        time: float,
        programs: Dict[int, Callable[[], RankProgram]],
        tag: Any,
        on_retire: Optional[Callable[[EngineJob], None]],
    ) -> EngineJob:
        """The one place rank programs start (see :meth:`bind_job`).

        ``__init__`` binds its all-slots job here rather than through the
        public method, so a wrapper installed around ``bind_job`` sees exactly
        the jobs a caller binds.
        """
        if not programs:
            raise ValueError("bind_job needs at least one slot program")
        states = self._states
        for slot in programs:
            if not (0 <= slot < self.n_ranks):
                raise ValueError(f"slot {slot} outside 0..{self.n_ranks - 1}")
            holder = states[slot].job
            if holder is not None:
                raise RuntimeError(
                    f"slot {slot} is not idle (job {holder.tag!r} holds it); "
                    f"cannot bind job {tag!r}"
                )
        job = EngineJob(tag=tag, slots=tuple(programs), started=float(time), on_retire=on_retire)
        for slot, program in programs.items():
            state = states[slot]
            state.gen = program()
            state.job = job
            state.status = _READY
            state.resume_value = None
            state.result = None
            if time > state.clock:
                state.clock = float(time)
            self._push_ready(state)
        return job

    def _retire_slot(self, job: EngineJob, state: _RankState) -> None:
        """One slot of a job finished its program; retire the job when all have."""
        job.finish_times[state.rank] = state.clock
        job.results[state.rank] = state.result
        job._pending.discard(state.rank)
        if job._pending:
            return
        job.finished = max(job.finish_times.values())
        # unbind only at full retirement: fair flows whose sender program
        # finished early still attribute to this job until the job ends
        for slot in job.slots:
            self._states[slot].job = None
        if job.on_retire is not None:
            job.on_retire(job)

    def kill_job(self, job: EngineJob, now: float) -> None:
        """Tear down a bound job mid-run (node loss): slots return to idle.

        Only callable from a tier ``-1`` scheduled callback (never mid rank
        step), mirroring how faults land.  Every slot program is closed, all
        of the job's posted-but-unmatched sends/receives are dropped, every
        in-flight transfer is cancelled — fair flows are withdrawn from the
        :class:`~repro.mpisim.fairshare.FairShareRegistry`, releasing their
        bandwidth to surviving tenants immediately — and barrier waiters
        vanish with the job.  The job's slots end idle and rebindable; slot
        clocks never rewind, so wire time a cancelled reservation-mode
        transfer had already committed stands (fair-mode flows, by contrast,
        stop accruing at ``now``).  The handle records ``killed = now``, its
        byte counters settle to what was sent before the kill, and
        ``on_retire`` does *not* fire (a kill is not a completion — callers
        observe it via their own hooks).
        """
        if job.retired:
            raise RuntimeError(f"cannot kill retired job {job.tag!r}")
        if job.killed is not None:
            raise RuntimeError(f"job {job.tag!r} was already killed")
        now = float(now)
        states = self._states
        slots = set(job.slots)
        for slot in job.slots:
            if states[slot].job is not job:  # pragma: no cover - guard
                raise RuntimeError(
                    f"slot {slot} is no longer bound to job {job.tag!r}"
                )
        for slot in job.slots:
            state = states[slot]
            if state.gen is not None:
                state.gen.close()
                state.gen = None
            state.status = _IDLE
            state.block_kind = None
            state.block_on = None
            state.wait_pending = ()
            state.wait_pos = 0
            state.wait_results = []
            state.resume_value = None
            if now > state.clock:
                state.clock = now
            state.job = None
        # drop unmatched postings: programs address job ranks only, so any key
        # with an endpoint in the job's slots belongs to it (keys are
        # (dst, src, tag))
        for table in (self._unmatched_sends, self._unmatched_recvs):
            for key in [k for k in table if k[0] in slots or k[1] in slots]:
                del table[key]
        # cancel matched in-flight transfers (receiver is always a job slot)
        for slot in job.slots:
            inflight = self._inflight[slot]
            for message in inflight:
                message.cancel(now)
            inflight.clear()
        job._barrier.clear()
        job._pending.clear()
        job.killed = now

    def _commit_fair_departure(self) -> None:
        """Retire the registry's earliest fair-share departure.

        Fair flows have no precomputed finish time: the registry keeps
        re-dividing bandwidth while arrivals trickle in, and a departure
        becomes final only once no rank event precedes it in the heap —
        which is exactly when its commit event reaches the top.
        """
        finish, flow = self.fair_registry.commit_departure()
        message: _Message = flow.token
        message.finish_fair(finish)
        self._inflight[message.dst].pop(message, None)
        self._notify_send_completion(message)
        receiver = self._states[message.dst]
        if (
            receiver.status == _BLOCKED
            and receiver.block_kind == _BLOCK_FLOW_COMPLETION
            and receiver.block_on.message is message
        ):
            self._continue_wait(receiver)

    def run(self) -> List[RankResult]:
        """Execute every rank program to completion and return per-rank results."""
        if self._ran:
            raise RuntimeError(
                "this Engine already ran a simulation; build a new Engine "
                "(on the same topology, if any) to run another"
            )
        self._ran = True
        heap = self._heap
        states = self._states
        fair = self.fair_registry
        live_top = self._live_top
        handlers, max_commands, commands = self._handlers, self.max_commands, 0
        trace = self.event_trace if self._trace_events else None
        while True:
            top = live_top()
            if top is None:
                # safety net: a pending flow with no live commit entry (cannot
                # happen while the peek refreshes it, but a deadlock report
                # must never mask a pending departure)
                if fair is not None and fair.earliest_departure() is not None:
                    self._commit_fair_departure()
                    continue
                if all(s.status == _IDLE for s in states):
                    break
                raise DeadlockError(self._describe_deadlock())
            heapq.heappop(heap)
            timestamp, order, token = top
            if trace is not None:
                trace.append((timestamp, order))
            if order < 0:
                # job start/retire plumbing or a fault: runs before anything
                # else due at this timestamp
                self._callbacks_run += 1
                self._events[token](timestamp)
                continue
            if order == 0:
                # the registry is unchanged since this entry was stamped, so
                # its earliest departure is still exactly this one
                self._commits_run += 1
                self._commit_fair_departure()
                continue
            # ---- inline stepping: resume this rank command by command (the end of
            # its program counts as one) until a live entry precedes (clock, rank + 1)
            state = states[order - 1]
            while True:
                value, state.resume_value = state.resume_value, None
                try:
                    command = state.gen.send(value)
                except StopIteration as stop:
                    state.result = stop.value
                    state.status = _IDLE
                    state.gen = None
                    self._retire_slot(state.job, state)
                except Exception as exc:  # surfaces bugs in rank programs with context
                    raise RankProgramError(f"rank {state.rank} raised {exc!r}") from exc
                else:
                    state.commands_executed += 1
                    handler = handlers.get(type(command))
                    if handler is None:
                        raise InvalidCommandError(
                            f"rank {state.rank} yielded {command!r}, "
                            "which is not a simulator command"
                        )
                    handler(state, command)
                commands += 1
                if commands > max_commands:
                    raise RunawayProgramError(self._describe_runaway())
                if state.status != _READY or state.ready_token != token:
                    # done, blocked, or a completed wait/barrier already pushed
                    # a fresh heap entry for this rank
                    break
                top = live_top()
                if top is not None and top < (state.clock, order):
                    self._push_ready(state)
                    break
        return [
            RankResult(
                rank=s.rank,
                value=s.result,
                finish_time=s.clock,
                breakdown=s.breakdown,
                bytes_sent=s.bytes_sent,
                messages_sent=s.messages_sent,
            )
            for s in self._states
        ]

    # ------------------------------------------------------------- commands

    def _handle_wait(self, state: _RankState, cmd: Wait) -> None:
        self._start_wait(state, [cmd.request], cmd.category, single=True)

    def _handle_waitall(self, state: _RankState, cmd: Waitall) -> None:
        self._start_wait(state, list(cmd.requests), cmd.category, single=False)

    def _handle_compute(self, state: _RankState, cmd: Compute) -> None:
        seconds = cmd.seconds
        if self._compute_scale:
            seconds *= self._compute_scale.get(state.rank, 1.0)
        state.clock += seconds
        # inlined TimeBreakdown.add (Compute is the single hottest command)
        acc = state.breakdown.seconds
        category = cmd.category
        acc[category] = acc.get(category, 0.0) + seconds
        state.resume_value = None

    def _handle_isend(self, state: _RankState, cmd: Isend) -> None:
        job = state.job
        slots = job.slots
        if not (0 <= cmd.dest < len(slots)):
            raise InvalidCommandError(
                f"rank {state.rank} sent to invalid destination {cmd.dest}"
            )
        dest = slots[cmd.dest]
        try:
            nbytes = int(cmd.nbytes) if cmd.nbytes is not None else payload_nbytes(cmd.data)
        except TypeError as exc:
            raise InvalidCommandError(f"rank {state.rank}: {exc}") from None
        # resolve_link (not link) so stateful fabrics can stripe rails and
        # route adaptively per posted send
        link = (
            self.topology.resolve_link(state.rank, dest)
            if self.topology is not None
            else None
        )
        network = self.network
        message = _Message(
            state.rank,
            dest,
            cmd.data,
            state.clock,
            nbytes,
            network,
            network.is_eager(nbytes),
            link,
            # only a transfer that crosses shared stages is fair-shared
            self.fair_registry if link is not None and link.stages else None,
        )
        # per rank for RankResult, per job for whoever retires or kills it
        state.bytes_sent += nbytes
        state.messages_sent += 1
        job.bytes_sent += nbytes
        job.messages_sent += 1

        key = (dest, state.rank, cmd.tag)
        postings = self._unmatched_recvs.get(key)
        if postings:
            posting = postings.popleft()
            if not postings:
                del self._unmatched_recvs[key]
            self._establish_match(message, posting)
        else:
            self._unmatched_sends.setdefault(key, deque()).append(message)
        state.resume_value = SendRequest(state.rank, dest, cmd.tag, state, message)

    def _handle_irecv(self, state: _RankState, cmd: Irecv) -> None:
        slots = state.job.slots
        if not (0 <= cmd.source < len(slots)):
            raise InvalidCommandError(
                f"rank {state.rank} posted a receive from invalid source {cmd.source}"
            )
        source = slots[cmd.source]
        posting = RecvRequest(state.rank, source, cmd.tag, state, None, state.clock)
        key = (state.rank, source, cmd.tag)
        sends = self._unmatched_sends.get(key)
        if sends:
            message = sends.popleft()
            if not sends:
                del self._unmatched_sends[key]
            self._establish_match(message, posting)
        else:
            self._unmatched_recvs.setdefault(key, deque()).append(posting)
        state.resume_value = posting

    def _establish_match(self, message: _Message, posting: RecvRequest) -> None:
        """Bind a posted send to a posted receive and start the transfer clock."""
        posting.message = message
        message.set_eligible(max(message.send_post_time, posting.post_time))
        self._inflight[message.dst][message] = None
        # If the receiver is already blocked waiting for exactly this request,
        # it can now make progress.
        receiver = self._states[message.dst]
        if (
            receiver.status == _BLOCKED
            and receiver.block_kind == _BLOCK_RECV_MATCH
            and receiver.block_on is posting
        ):
            self._continue_wait(receiver)

    # --------------------------------------------------------------- waiting

    def _start_wait(
        self, state: _RankState, requests: Sequence[Request], category: str, single: bool
    ) -> None:
        for req in requests:
            if not isinstance(req, Request) or req.owner is not state:
                raise self._not_posted_by(state, req, "waited on")
        state.wait_pending = requests
        state.wait_pos = 0
        state.wait_results = []
        state.wait_category = category
        state.wait_single = single
        self._continue_wait(state)

    def _not_posted_by(self, state: _RankState, request: Any, verb: str) -> InvalidCommandError:
        return InvalidCommandError(
            f"rank {state.rank} {verb} {request!r}, which is not a request handle "
            f"rank {state.rank} of this engine posted"
        )

    def _continue_wait(self, state: _RankState) -> None:
        """Advance the rank's pending wait list as far as currently possible."""
        pending = state.wait_pending
        pos = state.wait_pos
        while pos < len(pending):
            request = pending[pos]
            if isinstance(request, RecvRequest):
                done = self._complete_recv(state, request)
            else:
                done = self._complete_send(state, request)
            if not done:
                state.wait_pos = pos
                state.status = _BLOCKED
                return
            pos += 1
        # every request completed: the handles are the program's alone again
        state.wait_pending = ()
        state.wait_pos = 0
        state.status = _READY
        state.block_kind = None
        state.block_on = None
        self._push_ready(state)
        if state.wait_single:
            state.resume_value = state.wait_results[0] if state.wait_results else None
        else:
            state.resume_value = list(state.wait_results)
        state.wait_results = []

    def _complete_recv(self, state: _RankState, request: RecvRequest) -> bool:
        message: Optional[_Message] = request.message
        if message is None:
            # not matched yet: block until the sender posts
            state.block_kind = _BLOCK_RECV_MATCH
            state.block_on = request
            return False
        now = state.clock
        if not message.completed and message.fair is not None:
            # fair-share path: progress everything inbound, then hand the flow
            # to the registry and block until the engine commits its departure
            # (instead of precomputing a reservation finish time)
            self._ack_incoming(state.rank, now, False)
            if not message.completed:
                if message.fair_flow is None:
                    # delivered bytes are attributed to the job (the sender's
                    # and the receiver's are the same one)
                    message.activate_fair(now, message, state.job.tag)
                state.block_kind = _BLOCK_FLOW_COMPLETION
                state.block_on = request
                return False
        inflight = self._inflight[state.rank]
        if message.completed:
            completion = message.completion_time
        else:
            # entering the progress engine: everything inbound advances first
            if inflight:
                self._ack_incoming(state.rank, now, False)
            completion = message.completion_from(now)
            inflight.pop(message, None)
            self._notify_send_completion(message)
        effective = completion if completion > now else now
        # other inbound transfers keep flowing while this rank sits in MPI_Wait
        if inflight:
            self._ack_incoming(state.rank, effective, True, message)
        state.breakdown.add(state.wait_category, effective - now)
        state.clock = effective
        state.wait_results.append(message.data)
        return True

    def _complete_send(self, state: _RankState, request: SendRequest) -> bool:
        message: _Message = request.message
        now = state.clock
        if message.eager:
            # buffered by the transport: the sender's wait returns immediately
            state.wait_results.append(None)
            return True
        if message.completed:
            effective = max(now, message.completion_time)
            state.breakdown.add(state.wait_category, effective - now)
            state.clock = effective
            state.wait_results.append(None)
            return True
        # rendezvous send: completion is driven by the receiver
        state.block_kind = _BLOCK_SEND_COMPLETION
        state.block_on = request
        return False

    def _notify_send_completion(self, message: _Message) -> None:
        """Wake the sender if it is blocked waiting for this send to finish.

        The sender re-enters the event heap at the transfer's completion
        time — this is the transfer-completion event of the taxonomy above.
        """
        if not message.completed:
            return
        sender = self._states[message.src]
        if (
            sender.status == _BLOCKED
            and sender.block_kind == _BLOCK_SEND_COMPLETION
            and sender.block_on.message is message
        ):
            self._continue_wait(sender)

    def _ack_incoming(
        self,
        rank: int,
        now: float,
        continuous: bool,
        skip: Optional[_Message] = None,
    ) -> None:
        """Let every in-flight inbound transfer of ``rank`` progress up to ``now``.

        ``self._inflight[rank]`` holds only matched, incomplete transfers, so
        the sweep neither copies the dict nor re-visits completed messages.
        Completions are collected and removed after the iteration; the
        immediate sender notifications cannot mutate this rank's in-flight set
        (the rank is the one currently stepping, so no wait continuation of a
        *blocked* rank can post or consume messages on its behalf).
        """
        completed: List[_Message] = []
        for message in self._inflight[rank]:
            if message is skip:
                continue
            if message.ack(now, continuous):
                completed.append(message)
                self._notify_send_completion(message)
        if completed:
            inflight = self._inflight[rank]
            for message in completed:
                inflight.pop(message, None)

    # ---------------------------------------------------------------- polling

    def _handle_test(self, state: _RankState, cmd: Test) -> None:
        request = cmd.request
        if not isinstance(request, Request) or request.owner is not state:
            raise self._not_posted_by(state, request, "tested")
        self._ack_incoming(state.rank, state.clock, False)
        message: Optional[_Message] = request.message
        state.resume_value = message is not None and (
            message.completed or (message.eager and isinstance(request, SendRequest))
        )

    # ---------------------------------------------------------------- barrier

    def _handle_barrier(self, state: _RankState, cmd: Barrier) -> None:
        job = state.job
        waiting = job._barrier
        waiting.append((state.rank, state.clock))
        state.block_kind = _BLOCK_BARRIER
        state.barrier_category = cmd.category
        state.status = _BLOCKED
        if len(waiting) == len(job.slots):
            job._barrier = []
            release = max(t for _, t in waiting)
            for rank, arrival in waiting:
                blocked = self._states[rank]
                blocked.breakdown.add(blocked.barrier_category, release - arrival)
                blocked.clock = release
                blocked.status = _READY
                blocked.block_kind = None
                blocked.resume_value = None
                self._push_ready(blocked)

    # ------------------------------------------------------------ diagnostics

    def _describe_runaway(self) -> str:
        lines = [f"simulation exceeded max_commands={self.max_commands}; the busiest slots:"]
        for s in sorted(self._states, key=lambda s: -s.commands_executed)[:3]:
            tag = s.job.tag if s.job is not None else None
            status = s.status + (f" ({s.block_kind})" if s.block_kind else "")
            lines.append(f"  slot {s.rank}, job {tag!r}: {s.commands_executed} commands, {status}")
        return "\n".join(lines)

    def _describe_deadlock(self) -> str:
        lines = ["simulation deadlocked; blocked ranks:"]
        for s in self._states:
            if s.status != _BLOCKED:
                continue
            if s.block_kind == _BLOCK_BARRIER:
                lines.append(f"  rank {s.rank}: waiting in Barrier at t={s.clock:.6f}")
            else:
                diagnosis = _DEADLOCK_DIAGNOSES[s.block_kind].format(on=s.block_on)
                lines.append(f"  rank {s.rank}: {diagnosis}")
        done = [s.rank for s in self._states if s.status == _IDLE and s.job is not None]
        if done:
            lines.append(f"  finished ranks: {done}")
        idle = sum(1 for s in self._states if s.job is None)
        if idle:
            lines.append(f"  idle slots: {idle}")
        return "\n".join(lines)
