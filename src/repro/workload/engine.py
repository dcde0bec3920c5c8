"""WorkloadEngine: N concurrent jobs multiplexed onto one simulated fabric.

The multi-tenant core.  One :class:`~repro.mpisim.engine.Engine` spans every
slot of the shared fabric (``n_fabric_nodes x ranks_per_node``), starts with
all slots idle, and is driven by scheduled arrival events:

1. a job arrives (``schedule_event`` at its arrival time) and asks the
   :class:`~repro.workload.placement.NodeAllocator` for whole nodes;
2. if placed, its collective steps are *compiled* on the spot — captured via
   :meth:`repro.api.Communicator.capture` against a
   :class:`~repro.workload.placement.PlacementView` of the live fabric — and
   bound, unchanged, onto its slots as one engine job
   (:meth:`Engine.bind_job`): the engine resolves the programs' job-local
   ranks to slots and scopes their barriers to the job;
3. if not, it queues; every job retirement frees nodes and re-drains the
   queue first-fit in arrival order;
4. flows of different jobs meet in the fabric's shared stages, where
   ``contention="fair"`` max-min fair sharing arbitrates across tenants
   (and attributes delivered bytes per job via the registry's group
   accounting).

Degenerate guarantee (pinned by ``tests/workload``): a single job arriving
at t=0 on a packed placement replays the standalone Communicator simulation
bit-for-bit — same makespan, same values — because the standalone
simulation is itself one engine job over all slots, started by the same
bind.

Slowdown baselines re-run each job *alone* on the same slots (arrival 0,
freshly compiled — seeded inputs make recompiles bit-identical), so
``makespan / isolated`` isolates cross-tenant interference from placement.
The job's host work happens once: a job that can execute more than once in
one ``run()`` — ``baseline=True``, or a non-empty fault schedule and a failure
policy that restarts (:meth:`WorkloadEngine._runs_again`) — gets one
:class:`~repro.workload.job.JobMemo` at its first compile.  The memo lives on
the job's row, every compile of the job (restart attempts, the baseline)
receives the same object, and it is dropped the moment no execution can
follow: when the row turns FAILED, when it turns DONE and no baseline is
wanted, otherwise right after the job's baseline has run.  It holds the job's
drawn step inputs (read-only, shared by the compiles) and a tape per step of
what the step's adapters were queued or compressed (``repro.ccoll.adapter``),
so a restart recompresses nothing the killed attempt compressed and a
baseline costs engine and rank-program time only; an execution that plans
differently pays codec calls for what no longer matches, never a wrong value.
Without a memo, what a job retains while it runs is the rounds its ring
collective steps compressed ahead: the warm of a step queues each rank's
rounds on that rank's adapter when the step's first rank first compresses,
and each rank pops its own as it compresses them, so a step that completes
leaves nothing queued; a killed attempt's queues go with its compiled job
(a 6-step ``allreduce compression="on"`` job on 4 ranks, 16-node fair fat
tree, ``policy="packed"``, holds 8 / 14 / 0 queued rounds at 20 / 50 / 90 %
of its makespan).  Nothing is left after ``run()``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from dataclasses import dataclass
from functools import partial

from repro.api import Cluster
from repro.faults import FaultInjector, FaultSchedule
from repro.mpisim.engine import Engine, EngineJob
from repro.mpisim.fairshare import CONTENTION_FAIR, CONTENTION_RESERVATION
from repro.mpisim.launcher import DEFAULT_MAX_COMMANDS
from repro.utils.validation import ensure_integer
from repro.workload.job import CompiledJob, JobMemo, JobSpec, compile_job
from repro.workload.metrics import JobRecord, WorkloadReport
from repro.workload.placement import NodeAllocator, slots_for
from repro.workload.recovery import (
    FAILURE_POLICY_MODES,
    MAX_RETRIES,
    AttemptRecord,
    JobFailed,
    checkpoint_cost,
    retry_delay,
    takes_checkpoint,
)

__all__ = ["WorkloadEngine"]


def _job_program(
    engine: Engine,
    compiled: CompiledJob,
    local: int,
    record: JobRecord,
    record_values: bool,
    start_step: int,
) -> Generator:
    """One slot's whole job: its rank program of every step, back to back.

    ``start_step`` skips steps already covered by a durable checkpoint
    (restart attempts resume mid-program).  Steps reuse the same tags: a
    rank posts its steps in program order and matching is first-posted
    first-matched per (destination, source, tag).
    """
    slot = compiled.slots[local]
    n_ranks = compiled.spec.n_ranks
    value = None
    for step in range(start_step, len(compiled.step_factories)):
        begin = engine.clock_of(slot)
        value = yield from compiled.step_factories[step](local, n_ranks)
        record.note_step(
            step, local, begin, engine.clock_of(slot), value if record_values else None
        )
    return value


def _launch_job(
    engine: Engine,
    now: float,
    compiled: CompiledJob,
    record: JobRecord,
    record_values: bool,
    start_step: int,
    on_retire: Callable[[EngineJob], None],
) -> EngineJob:
    """Start ``compiled`` on its slots as one engine job."""
    programs: Dict[int, Callable[[], Generator]] = {
        slot: (
            lambda local=local: _job_program(
                engine, compiled, local, record, record_values, start_step
            )
        )
        for local, slot in enumerate(compiled.slots)
    }
    return engine.bind_job(now, programs, tag=compiled.spec.job_id, on_retire=on_retire)


#: a job's life: DUE until its arrival fires, then only along these edges (DONE
#: and FAILED have none).  A retry that cannot be placed backs off again,
#: burning budget — it never rejoins the queue
_DUE, _QUEUED, _RUNNING, _BACKOFF, _DONE, _FAILED = (
    "DUE", "QUEUED", "RUNNING", "BACKOFF", "DONE", "FAILED"
)
_TRANSITIONS = {
    _DUE: (_QUEUED, _RUNNING),
    _QUEUED: (_RUNNING,),
    _RUNNING: (_DONE, _BACKOFF, _FAILED),
    _BACKOFF: (_RUNNING, _BACKOFF, _FAILED),
}


@dataclass
class _Job:
    """One row of the scheduler's table: a job and where in its life it is."""

    spec: JobSpec
    record: JobRecord
    state: str = _DUE
    #: retry-budget bookkeeping (kills + failed placements both count)
    retries_used: int = 0
    #: the live execution attempt on the shared fabric (RUNNING rows only);
    #: it runs on ``record.nodes`` / ``record.slots`` since ``live.started``
    live: Optional[EngineJob] = None
    #: what the job's compiles share, from its first compile until nothing in
    #: this scheduler can execute it again (``None`` if nothing ever could)
    memo: Optional[JobMemo] = None


class _Scheduler:
    """The concurrent run as a machine: one table of jobs, one method per event.

    All state is attributes — the ``jobs`` table (spec order), the ``queue`` of
    rows waiting for nodes (arrival order), the allocator, the shared engine —
    and every state change goes through :meth:`_move`, so single events can be
    fired by hand and the table read back without calling ``Engine.run``.
    """

    def __init__(
        self,
        owner: "WorkloadEngine",
        specs: Sequence[JobSpec],
        baselines: Optional[Dict[str, JobMemo]],
    ) -> None:
        self.owner = owner
        #: job id -> the memo a DONE job hands on to its isolated baseline;
        #: ``None`` when no baseline follows this run
        self.baselines = baselines
        self.engine = owner._fresh_engine()
        self.allocator = NodeAllocator(owner.n_nodes, owner.policy, owner.seed)
        self.jobs = {spec.job_id: _Job(spec, JobRecord(spec=spec)) for spec in specs}
        self.queue: List[_Job] = []

    def run(self) -> Tuple[List[JobRecord], Engine]:
        """Schedule the faults and every arrival, run the engine dry."""
        faults = self.owner.faults
        if not faults.empty:
            # faults interleave with arrivals on the same event heap; node
            # loss additionally quarantines the node (so the drain never
            # re-places a queued job on dead hardware) and kills the jobs
            # running on it, handing them to their failure policies
            FaultInjector(
                faults, on_node_loss=self.node_lost, on_node_heal=self.node_healed
            ).install(self.engine)
        for job in self.jobs.values():
            self.engine.schedule_event(job.spec.arrival, partial(self.arrive, job))
        self.engine.run()
        rows = self.jobs.values()
        if any(job.state not in (_DONE, _FAILED) for job in rows):  # pragma: no cover
            # fit is validated upfront and every started job retires or is killed
            raise RuntimeError(f"not terminal: {[(j.spec.job_id, j.state) for j in rows]}")
        return [job.record for job in rows], self.engine

    def _check(self, job: _Job, state: str) -> None:
        """Raise unless the table has the edge from the row's state to ``state``."""
        if state not in _TRANSITIONS.get(job.state, ()):
            raise RuntimeError(
                f"job {job.spec.job_id!r}: illegal transition {job.state} -> {state}"
            )

    def _move(self, job: _Job, state: str) -> None:
        """The one place a row changes state; an edge off the table raises."""
        self._check(job, state)
        job.state = state

    def arrive(self, job: _Job, now: float) -> None:
        self._check(job, _QUEUED)  # only a row that may still queue can arrive
        if not self.start(job, now):
            self._move(job, _QUEUED)
            self.queue.append(job)

    def start(self, job: _Job, now: float) -> bool:
        """Place ``job`` (DUE, QUEUED or BACKOFF) and bind its next attempt;
        ``False``, and nothing changed, when it does not fit."""
        owner, spec, record = self.owner, job.spec, job.record
        self._check(job, _RUNNING)  # before the allocator: an illegal start leases nothing
        restart = job.state == _BACKOFF
        if restart and owner._policy_for(spec) == "restart":
            # in-place: the original node set, whole or not at all
            nodes = record.nodes if self.allocator.acquire(record.nodes) else None
        else:  # first placement, or restart_elsewhere
            nodes = self.allocator.allocate(owner._nodes_needed(spec))
        if nodes is None:
            return False
        self._move(job, _RUNNING)
        record.nodes = nodes
        record.slots = tuple(slots_for(nodes, owner.ranks_per_node, spec.n_ranks))
        record.resume_step = record.last_durable_step
        if not restart and owner._runs_again(spec, self.baselines is not None):
            job.memo = JobMemo()
        compiled = compile_job(spec, owner.cluster, record.slots, job.memo)
        if restart:
            # count it, remember the outage gap, and forget per-step
            # observations the new attempt will re-produce
            record.restarts += 1
            record.recovery_times.append(now - record.attempts[-1].ended)
            record.reset_steps_from(record.resume_step)
        else:
            record.started = now
            record.prepare(spec.n_steps)
        job.live = _launch_job(
            self.engine, now, compiled, record, owner.record_values, record.resume_step,
            partial(self.retire, job),
        )
        return True

    def drain(self, now: float) -> None:
        # first-fit drain in arrival order: a big job at the head does
        # not starve smaller jobs behind it, but started jobs keep
        # arrival order whenever they all fit
        self.queue = [job for job in self.queue if not self.start(job, now)]

    def _close_attempt(self, job: _Job, upto: int, kill_time: Optional[float]) -> int:
        """Settle the live attempt: traffic onto the record, nodes back to the
        allocator, checkpoint writes booked for steps ``[resume_step, upto)``.

        Returns the durable resume step: with ``kill_time`` set, only
        checkpoints whose write committed (step exit + cost <= kill)
        count — a write caught mid-flight protects nothing.
        """
        spec, record, live = job.spec, job.record, job.live
        job.live = None
        record.bytes_sent += live.bytes_sent
        record.messages_sent += live.messages_sent
        self.allocator.release(record.nodes)
        every = self.owner._checkpoint_for(spec)
        durable = record.last_durable_step
        if not every:
            return durable
        for step in range(record.resume_step, upto):
            if not takes_checkpoint(step, every, spec.n_steps):
                continue
            cost = checkpoint_cost(spec, step)
            record.checkpoints_written += 1
            record.checkpoint_overhead += cost
            if kill_time is None or record.step_bounds[step][1] + cost <= kill_time:
                durable = max(durable, step + 1)
        return durable

    def retire(self, job: _Job, live: EngineJob) -> None:
        """The engine's ``on_retire``: every rank of the attempt returned."""
        self._move(job, _DONE)
        spec, record = job.spec, job.record
        record.finished = live.finished
        record.outcome = "completed"
        record.useful_time += live.finished - live.started
        self._close_attempt(job, spec.n_steps, None)
        record.last_durable_step = spec.n_steps
        memo, job.memo = job.memo, None  # only the baseline can still execute it
        if self.baselines is not None:
            self.baselines[spec.job_id] = memo
        self.drain(live.finished)

    def kill(self, job: _Job, node: int, now: float) -> None:
        """``node`` died under the running ``job``: tear the attempt down, book it."""
        if job.state != _RUNNING:  # only a RUNNING row holds a live attempt
            raise RuntimeError(f"job {job.spec.job_id!r}: cannot kill a {job.state} row")
        record, live = job.record, job.live
        self.engine.kill_job(live, now)
        done = record.completed_through()
        durable = self._close_attempt(job, done, now)
        useful = 0.0
        if durable > record.resume_step:
            useful = record.step_bounds[durable - 1][1] - live.started
        record.useful_time += useful
        record.wasted_time += max(0.0, (now - live.started) - useful)
        record.attempts.append(
            AttemptRecord(
                index=len(record.attempts),
                nodes=record.nodes,
                slots=record.slots,
                started=live.started,
                resume_step=record.resume_step,
                ended=now,
                completed_steps=done - record.resume_step,
                next_resume_step=durable,
                reason=f"node_loss:{node}",
            )
        )
        record.last_durable_step = durable
        self.back_off(job, now)

    def back_off(self, job: _Job, now: float) -> None:
        """Back off and retry, or fail for good once the budget is gone (a kill
        and a retry that could not be placed both burn it)."""
        if self.owner._policy_for(job.spec) != "fail" and job.retries_used < MAX_RETRIES:
            self._move(job, _BACKOFF)
            delay = retry_delay(job.retries_used)
            job.retries_used += 1
            self.engine.schedule_event(now + delay, partial(self.retry, job))
            return
        self._move(job, _FAILED)
        job.memo = None  # nothing executes a failed job again, baseline included
        record = job.record
        record.outcome = "failed"
        record.failure = JobFailed(
            job_id=job.spec.job_id,
            time=now,
            reason=record.attempts[-1].reason,
            attempts=len(record.attempts),
        )
        # a failed job's retained progress is lost with it
        record.wasted_time += record.useful_time
        record.useful_time = 0.0

    def retry(self, job: _Job, now: float) -> None:
        if not self.start(job, now):
            self.back_off(job, now)

    def node_lost(self, node: int, now: float) -> None:
        self.allocator.quarantine(node)
        # nodes are leased whole, so at most one running job holds ``node``
        for job in self.jobs.values():
            if job.state == _RUNNING and node in job.record.nodes:
                self.kill(job, node, now)
        self.drain(now)

    def node_healed(self, node: int, now: float) -> None:
        # the injector heals a node once, when its last live loss ends
        self.allocator.unquarantine(node)
        self.drain(now)


class WorkloadEngine:
    """Runs a job mix on one shared fabric and reports tenant-level metrics.

    Parameters
    ----------
    cluster:
        The shared machine.  Its topology must fix a node count — a preset
        fabric (``fat_tree`` / ``dragonfly`` / ``rail_fat_tree``) via
        ``n_fabric_nodes``, or any block-placed topology with ``nodes=``
        passed explicitly.  ``contention="fair"`` is the intended discipline
        for cross-tenant arbitration; reservation mode works too (and is
        what the degenerate-equivalence tests pin).
    nodes:
        Node count override for topologies that size themselves per run
        (``shared_uplink``, ``two_level``).
    policy / seed:
        Placement policy (``packed``/``spread``/``random``) and the seed
        driving its random variant.
    record_values:
        Keep per-step per-rank collective results on each
        :class:`JobRecord` (the equivalence tests read them; large runs
        leave this off).
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` injected into
        the *concurrent* run (a :class:`~repro.faults.injector.FaultInjector`
        is installed on the shared engine before ``run()``).  Node-loss
        events quarantine the node in the allocator — and *kill* the jobs
        running on it: their in-flight collectives are torn down
        (``Engine.kill_job``), fair-share flows are cancelled with their
        bandwidth re-divided immediately, and the per-job failure policy
        decides what happens next.  Transient losses heal: the node is
        un-quarantined when its duration elapses.  Isolated baselines run
        fault-free on purpose: the reported slowdown then includes the
        fault impact alongside cross-tenant interference.  ``None`` or an
        empty schedule changes nothing, bit-for-bit.
    failure_policy:
        Engine-level default recovery mode, one of
        :data:`~repro.workload.recovery.FAILURE_POLICY_MODES` (``fail`` /
        ``restart`` / ``restart_elsewhere``), for jobs whose spec does not
        override it.  Retry budget and backoff are the constants of
        :mod:`repro.workload.recovery`.
    checkpoint:
        Engine-level default checkpoint interval in steps (0 disables) for
        jobs whose spec does not override it.  Checkpoint costs are metered
        out-of-band — they never perturb the event heap — so any mode and
        interval is bit-for-bit identical to the uninjected run when no
        fault fires.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        nodes: Optional[int] = None,
        policy: str = "packed",
        seed: int = 0,
        record_values: bool = False,
        faults: Optional[FaultSchedule] = None,
        failure_policy: str = "fail",
        checkpoint: int = 0,
    ) -> None:
        if failure_policy not in FAILURE_POLICY_MODES:
            raise ValueError(
                f"unknown failure policy {failure_policy!r}; "
                f"available: {', '.join(FAILURE_POLICY_MODES)}"
            )
        checkpoint = ensure_integer(checkpoint, "checkpoint", minimum=0)
        topology = cluster.topology
        if topology is None:
            raise ValueError(
                "WorkloadEngine needs a cluster with an explicit topology "
                "(build one with Cluster.from_preset)"
            )
        if getattr(topology, "placement", None) is not None:
            raise ValueError(
                "the workload layer owns placement; build the cluster without "
                "an explicit placement list"
            )
        self.cluster = cluster
        self.ranks_per_node = int(getattr(topology, "ranks_per_node", 1))
        fabric_nodes = getattr(topology, "n_fabric_nodes", None)
        if fabric_nodes is None:
            fabric_nodes = nodes
        if fabric_nodes is None:
            raise ValueError(
                f"topology {topology.describe()!r} does not fix a node count; "
                "pass nodes="
            )
        self.n_nodes = int(fabric_nodes)
        self.total_slots = self.n_nodes * self.ranks_per_node
        for slot in range(self.total_slots):
            if topology.node_of(slot) != slot // self.ranks_per_node:
                raise ValueError(
                    "workload slot mapping requires the fabric's native block "
                    f"placement; slot {slot} maps to node {topology.node_of(slot)}"
                )
        self.policy = policy
        self.seed = int(seed)
        self.record_values = bool(record_values)
        self.faults = faults if faults is not None else FaultSchedule()
        self.failure_policy = failure_policy
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------ runs

    def run(self, jobs: Sequence[JobSpec], *, baseline: bool = True) -> WorkloadReport:
        """Simulate the whole mix; optionally add isolated-run baselines."""
        specs = sorted(jobs, key=lambda s: (s.arrival, s.job_id))
        if len({s.job_id for s in specs}) != len(specs):
            raise ValueError("job ids must be unique within one run")
        losable = len(self.faults.permanent_node_losses())
        for spec in specs:
            if self._nodes_needed(spec) > self.n_nodes - losable:
                raise ValueError(
                    f"job {spec.job_id!r} needs {self._nodes_needed(spec)} nodes "
                    f"but the fabric has {self.n_nodes}"
                    + (
                        f" of which {losable} may be lost to faults"
                        if losable
                        else ""
                    )
                )
        # job id -> what a completed job's baseline shares with its concurrent run
        baselines: Optional[Dict[str, JobMemo]] = {} if baseline else None
        # run() keeps no reference to the concurrent engine (its messages, its
        # compiled jobs) while the baselines run
        report = self._collect(*_Scheduler(self, specs, baselines).run())
        if baseline:
            for record in report.records:
                if record.completed:
                    record.isolated = self._isolated_makespan(
                        record.spec, record.slots, baselines.pop(record.spec.job_id)
                    )
        return report

    # -------------------------------------------------------------- internals

    def _nodes_needed(self, spec: JobSpec) -> int:
        return -(-spec.n_ranks // self.ranks_per_node)

    def _policy_for(self, spec: JobSpec) -> str:
        """The job's failure mode: spec override, else the engine default."""
        return self.failure_policy if spec.failure_policy is None else spec.failure_policy

    def _runs_again(self, spec: JobSpec, baseline: bool) -> bool:
        """Whether one ``run()`` can execute the job more than once — its isolated
        baseline, or a restart after a kill: such a job's compiles share a memo."""
        return baseline or (not self.faults.empty and self._policy_for(spec) != "fail")

    def _checkpoint_for(self, spec: JobSpec) -> int:
        """The job's checkpoint interval (0: none): spec override, else the engine default."""
        return self.checkpoint if spec.checkpoint_every is None else spec.checkpoint_every

    def _fresh_engine(self) -> Engine:
        return Engine(
            n_ranks=self.total_slots,
            program_factory=None,
            network=self.cluster.network,
            topology=self.cluster.topology,
            max_commands=DEFAULT_MAX_COMMANDS,
        )

    def _collect(self, records: List[JobRecord], engine: Engine) -> WorkloadReport:
        topology = engine.topology  # never None: the constructor requires one
        registry = engine.fair_registry
        if registry is not None:
            for record in records:
                record.fair_bytes = registry.group_bytes.get(record.spec.job_id, 0.0)
        # failed jobs never retire: their terminal event still bounds the run
        endings = [
            record.finished if record.finished is not None else record.failure.time
            for record in records
        ]
        makespan = max(endings, default=0.0)
        utilization: Dict[str, float] = {}
        if makespan > 0.0:
            # the run just ended: every stage still holds the wire time it
            # reserved since the engine was built
            utilization = {
                ":".join(str(part) for part in key): stage.wire_seconds / makespan
                for key, stage in topology.stages().items()
                if stage.wire_seconds > 0.0
            }
        return WorkloadReport(
            records=records,
            makespan=makespan,
            policy=self.policy,
            contention=CONTENTION_FAIR if registry is not None else CONTENTION_RESERVATION,
            seed=self.seed,
            stage_utilization=utilization,
            latency=WorkloadReport.collect_latency(records),
        )

    def _isolated_makespan(
        self, spec: JobSpec, slots: Tuple[int, ...], memo: Optional[JobMemo]
    ) -> float:
        engine = self._fresh_engine()
        compiled = compile_job(spec.at_arrival(0.0), self.cluster, slots, memo)
        record = JobRecord(spec=spec)
        record.prepare(spec.n_steps)
        outcome: List[float] = []
        engine.schedule_event(
            0.0,
            lambda now: _launch_job(
                engine, now, compiled, record, False, 0, lambda job: outcome.append(job.finished)
            ),
        )
        engine.run()
        if not outcome:  # pragma: no cover - defensive
            raise RuntimeError(f"isolated run of {spec.job_id!r} never retired")
        return outcome[0]
