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
The job's codec results are reused: with ``baseline=True`` every job gets one
content-addressed :class:`~repro.ccoll.adapter.CodecMemo` at its first
compile, shared by its restart attempts and its baseline and dropped as soon
as that baseline has run, so a baseline costs engine and rank-program time
only.  What that retains is a job's codec inputs and outputs between its
first compile and its baseline — the same order as the step inputs
``compile_job`` materialises anyway.  Content keys need no invalidation: a
fault-free baseline that plans differently from the faulted concurrent run
feeds the codec different bytes and simply misses.  With ``baseline=False``
no memo exists.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from dataclasses import dataclass, replace

from repro.api import Cluster
from repro.ccoll import CodecMemo
from repro.faults import FaultInjector, FaultSchedule
from repro.mpisim.engine import Engine, EngineJob
from repro.mpisim.launcher import DEFAULT_MAX_COMMANDS
from repro.workload.job import CompiledJob, JobSpec, compile_job
from repro.workload.metrics import JobRecord, WorkloadReport
from repro.workload.placement import NodeAllocator, slots_for
from repro.workload.recovery import (
    AttemptRecord,
    CheckpointPolicy,
    FailurePolicy,
    JobFailed,
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


@dataclass
class _Tenancy:
    """One live execution attempt of a job on the shared fabric."""

    spec: JobSpec
    record: JobRecord
    job: EngineJob
    nodes: Tuple[int, ...]
    slots: Tuple[int, ...]
    started: float


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
        Engine-level default :class:`~repro.workload.recovery.FailurePolicy`
        (or bare mode string) applied to jobs whose spec does not override
        it.  Default ``"fail"``.
    checkpoint:
        Engine-level default
        :class:`~repro.workload.recovery.CheckpointPolicy` (or bare
        interval int; 0/None disables) for jobs whose spec does not
        override it.  Checkpoint costs are metered out-of-band — they
        never perturb the event heap — so any policy combination is
        bit-for-bit identical to the uninjected run when no fault fires.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        nodes: Optional[int] = None,
        policy: str = "packed",
        seed: int = 0,
        record_values: bool = False,
        max_commands: int = DEFAULT_MAX_COMMANDS,
        faults: Optional[FaultSchedule] = None,
        failure_policy: Any = "fail",
        checkpoint: Any = None,
    ) -> None:
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
        self.max_commands = int(max_commands)
        self.faults = faults if faults is not None else FaultSchedule()
        self.failure_policy = FailurePolicy.coerce(failure_policy)
        self.checkpoint = CheckpointPolicy.coerce(checkpoint)

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
        # job id -> the codec results its compiles share (baselines only)
        memos: Optional[Dict[str, CodecMemo]] = {} if baseline else None
        # run() keeps no reference to the concurrent engine (its messages, its
        # compiled jobs) while the baselines run
        report = self._collect(*self._run_concurrent(specs, memos))
        if baseline:
            for record in report.records:
                memo = memos.pop(record.spec.job_id, None)
                if record.completed:
                    record.isolated = self._isolated_makespan(
                        record.spec, record.slots, memo
                    )
        return report

    # -------------------------------------------------------------- internals

    def _nodes_needed(self, spec: JobSpec) -> int:
        return -(-spec.n_ranks // self.ranks_per_node)

    def _policy_for(self, spec: JobSpec) -> FailurePolicy:
        """The job's failure policy: spec override over the engine default."""
        if spec.failure_policy is None:
            return self.failure_policy
        return replace(self.failure_policy, mode=spec.failure_policy)

    def _checkpoint_for(self, spec: JobSpec) -> Optional[CheckpointPolicy]:
        """The job's checkpoint policy: spec override over the engine default."""
        if spec.checkpoint_every is None:
            return self.checkpoint
        if spec.checkpoint_every == 0:
            return None
        if self.checkpoint is not None:
            return replace(self.checkpoint, every=spec.checkpoint_every)
        return CheckpointPolicy(every=spec.checkpoint_every)

    def _fresh_engine(self) -> Engine:
        return Engine(
            n_ranks=self.total_slots,
            program_factory=None,
            network=self.cluster.network,
            topology=self.cluster.topology,
            max_commands=self.max_commands,
        )

    def _compile_cluster(self, engine: Engine) -> Cluster:
        """The cluster jobs compile against (the engine's live topology)."""
        if engine.topology is self.cluster.topology:
            return self.cluster
        # the engine upgraded the topology to its fair clone: compile against
        # that clone so build-time decisions see the fabric that will run
        return self.cluster.with_updates(topology=engine.topology)

    def _run_concurrent(
        self, specs: List[JobSpec], memos: Optional[Dict[str, CodecMemo]]
    ) -> Tuple[List[JobRecord], Engine]:
        engine = self._fresh_engine()
        compile_cluster = self._compile_cluster(engine)
        allocator = NodeAllocator(self.n_nodes, self.policy, self.seed)
        records = {spec.job_id: JobRecord(spec=spec) for spec in specs}
        pending: List[JobSpec] = []
        running: Dict[str, _Tenancy] = {}
        # retry-budget bookkeeping (kills + failed placements both count)
        retries_used: Dict[str, int] = {}

        def start_attempt(spec: JobSpec, now: float, nodes: Tuple[int, ...]) -> None:
            slots = tuple(slots_for(nodes, self.ranks_per_node, spec.n_ranks))
            memo = memos.setdefault(spec.job_id, CodecMemo()) if memos is not None else None
            compiled = compile_job(spec, compile_cluster, slots, memo)
            record = records[spec.job_id]
            resume = record.last_durable_step
            if record.started is None:
                record.started = now
                record.prepare(spec.n_steps)
            else:
                # a restart: count it, remember the outage gap, and forget
                # per-step observations the new attempt will re-produce
                record.restarts += 1
                record.recovery_times.append(now - record.attempts[-1].ended)
                record.reset_steps_from(resume)
            record.nodes = nodes
            record.slots = slots
            record.resume_step = resume
            job = _launch_job(
                engine,
                now,
                compiled,
                record,
                self.record_values,
                resume,
                lambda job: retire(job, spec),
            )
            running[spec.job_id] = _Tenancy(
                spec=spec,
                record=record,
                job=job,
                nodes=nodes,
                slots=slots,
                started=now,
            )

        def try_start(spec: JobSpec, now: float) -> bool:
            nodes = allocator.allocate(self._nodes_needed(spec))
            if nodes is None:
                return False
            start_attempt(spec, now, nodes)
            return True

        def drain(now: float) -> None:
            # first-fit drain in arrival order: a big job at the head does
            # not starve smaller jobs behind it, but started jobs keep
            # arrival order whenever they all fit
            started = [spec for spec in pending if try_start(spec, now)]
            for spec in started:
                pending.remove(spec)

        def account_checkpoints(
            record: JobRecord, spec: JobSpec, upto: int, kill_time: Optional[float]
        ) -> int:
            """Book checkpoint writes for steps ``[resume_step, upto)``.

            Returns the durable resume step: with ``kill_time`` set, only
            checkpoints whose write committed (step exit + cost <= kill)
            count — a write caught mid-flight protects nothing.
            """
            policy = self._checkpoint_for(spec)
            durable = record.last_durable_step
            if policy is None:
                return durable
            for step in range(record.resume_step, upto):
                if not policy.takes_after(step, spec.n_steps):
                    continue
                cost = policy.cost(spec, step)
                record.checkpoints_written += 1
                record.checkpoint_overhead += cost
                if kill_time is None:
                    durable = max(durable, step + 1)
                else:
                    committed = record.step_bounds[step][1] + cost
                    if committed <= kill_time:
                        durable = max(durable, step + 1)
            return durable

        def retire(job: EngineJob, spec: JobSpec) -> None:
            tenancy = running.pop(spec.job_id)
            record = tenancy.record
            record.finished = job.finished
            record.bytes_sent += job.bytes_sent
            record.messages_sent += job.messages_sent
            record.outcome = "completed"
            record.useful_time += job.finished - tenancy.started
            account_checkpoints(record, spec, spec.n_steps, None)
            record.last_durable_step = spec.n_steps
            allocator.release(tenancy.nodes)
            drain(job.finished)

        def finalize_failed(record: JobRecord, now: float, reason: str) -> None:
            record.outcome = "failed"
            record.failure = JobFailed(
                job_id=record.spec.job_id,
                time=now,
                reason=reason,
                attempts=len(record.attempts),
            )
            # a failed job's retained progress is lost with it
            record.wasted_time += record.useful_time
            record.useful_time = 0.0

        def schedule_retry(spec: JobSpec, now: float, reason: str) -> None:
            """Back off and retry, or fail for good once the budget is gone."""
            record = records[spec.job_id]
            policy = self._policy_for(spec)
            used = retries_used.get(spec.job_id, 0)
            if not policy.restarts or used >= policy.max_retries:
                finalize_failed(record, now, reason)
                return
            retries_used[spec.job_id] = used + 1
            engine.schedule_event(
                now + policy.delay(used), retry_callback(spec, reason)
            )

        def retry_callback(spec: JobSpec, reason: str) -> Callable[[float], None]:
            def fire(now: float) -> None:
                record = records[spec.job_id]
                policy = self._policy_for(spec)
                if policy.mode == "restart":
                    # in-place: the original node set, whole or not at all
                    nodes = record.attempts[-1].nodes
                    placed = allocator.acquire(nodes)
                    nodes = nodes if placed else None
                else:  # restart_elsewhere
                    nodes = allocator.allocate(self._nodes_needed(spec))
                if nodes is None:
                    schedule_retry(spec, now, reason)
                    return
                start_attempt(spec, now, nodes)

            return fire

        def fail_attempt(tenancy: _Tenancy, node: int, now: float) -> None:
            spec, record = tenancy.spec, tenancy.record
            del running[spec.job_id]
            engine.kill_job(tenancy.job, now)
            record.bytes_sent += tenancy.job.bytes_sent
            record.messages_sent += tenancy.job.messages_sent
            done = record.completed_through()
            durable = account_checkpoints(record, spec, done, now)
            if durable > record.resume_step:
                useful = record.step_bounds[durable - 1][1] - tenancy.started
            else:
                useful = 0.0
            record.useful_time += useful
            record.wasted_time += max(0.0, (now - tenancy.started) - useful)
            record.attempts.append(
                AttemptRecord(
                    index=len(record.attempts),
                    nodes=tenancy.nodes,
                    slots=tenancy.slots,
                    started=tenancy.started,
                    resume_step=record.resume_step,
                    ended=now,
                    completed_steps=done - record.resume_step,
                    next_resume_step=durable,
                    reason=f"node_loss:{node}",
                )
            )
            record.last_durable_step = durable
            allocator.release(tenancy.nodes)
            schedule_retry(spec, now, f"node_loss:{node}")

        def on_node_loss(node: int, now: float) -> None:
            allocator.quarantine(node)
            for tenancy in [t for t in running.values() if node in t.nodes]:
                fail_attempt(tenancy, node, now)
            drain(now)

        def on_node_heal(node: int, now: float) -> None:
            if node in allocator.quarantined:
                allocator.unquarantine(node)
            drain(now)

        if not self.faults.empty:
            # faults interleave with arrivals on the same event heap; node
            # loss additionally quarantines the node (so the drain never
            # re-places a queued job on dead hardware) and kills the jobs
            # running on it, handing them to their failure policies
            FaultInjector(
                self.faults,
                on_node_loss=on_node_loss,
                on_node_heal=on_node_heal,
            ).install(engine)

        def arrival(spec: JobSpec) -> Callable[[float], None]:
            def fire(now: float) -> None:
                if not try_start(spec, now):
                    pending.append(spec)

            return fire

        for spec in specs:
            engine.schedule_event(spec.arrival, arrival(spec))
        engine.run()
        if pending:  # pragma: no cover - fit is validated upfront
            raise RuntimeError(
                f"jobs never placed: {[s.job_id for s in pending]}"
            )
        ordered = [records[spec.job_id] for spec in specs]
        for record in ordered:
            if record.finished is None and record.outcome != "failed":
                # pragma: no cover - defensive
                raise RuntimeError(f"job {record.spec.job_id!r} never retired")
        return ordered, engine

    def _collect(self, records: List[JobRecord], engine: Engine) -> WorkloadReport:
        topology = engine.topology  # never None: the constructor requires one
        registry = topology.fair_registry
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
            contention=topology.contention,
            seed=self.seed,
            stage_utilization=utilization,
            latency=WorkloadReport.collect_latency(records),
        )

    def _isolated_makespan(
        self, spec: JobSpec, slots: Tuple[int, ...], memo: Optional[CodecMemo]
    ) -> float:
        engine = self._fresh_engine()
        compiled = compile_job(
            spec.at_arrival(0.0), self._compile_cluster(engine), slots, memo
        )
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
