"""A job's host work happens once: counts, what is shared, and lifetime.

That reuse moves no simulated number is ``test_baseline_pin.py``'s job; here:
baselines and restart attempts cost zero codec calls and share their drawn
inputs, a lying tape costs codec calls and never a value, nothing is digested,
a memo is per job and per ``run()``, it exists only where a second execution
can happen, and nothing keeps one alive once none can.
"""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

import repro.ccoll.computation as computation
import repro.workload.engine as workload_engine
import repro.workload.job as workload_job
from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.ccoll.adapter import warm_round
from repro.faults import DomainOutage, FailureDomain, FaultSchedule, NodeLoss
from repro.workload import (
    CollectiveCall,
    JobMix,
    JobSpec,
    WorkloadEngine,
    call_inputs,
    compile_job,
)
from repro.workload.job import JobMemo
from repro.workload.metrics import JobRecord


def _cluster():
    return Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=2, contention="fair")


def _ledger_mix():
    """The job list of the ledger's ``workload_mix`` (payload seeds aside)."""
    return JobMix(n_jobs=16, arrival_rate=500.0, sizes=(2, 4, 8)).generate(7)


def _four_jobs_and_a_loss(iterations=(4, 4, 4, 4)):
    """Four compressed jobs side by side (nodes 0-1, 2-3, 4-5, 6-7 when packed) and
    the loss of node 1 while all four are mid-flight."""
    calls = (CollectiveCall(op="allreduce", msg_elems=2048, compression="on"),)
    specs = [
        JobSpec(job_id=name, n_ranks=4, iterations=count, seed=seed, calls=calls)
        for seed, (name, count) in enumerate(zip("abcd", iterations), start=1)
    ]
    healthy = WorkloadEngine(_cluster(), policy="packed").run(specs, baseline=False)
    first_done = min(record.finished for record in healthy.records)
    return specs, FaultSchedule(events=(NodeLoss(time=0.5 * first_done, node=1),))


def _recovery_shape():
    """The ledger's ``workload_recovery`` at its seed 7: six compressed jobs, their
    healthy makespan, and the node loss and domain outage it runs under."""
    rng = np.random.default_rng(7)
    calls = (CollectiveCall(op="allreduce", msg_elems=8192, compression="on"),)
    specs = [
        JobSpec(job_id=f"long-{index}", n_ranks=n_ranks, arrival=1e-4 * index,
                iterations=4, seed=int(rng.integers(1, 2**31)), calls=calls)
        for index, n_ranks in enumerate((8, 4, 2, 8, 4, 2))
    ]  # fmt: skip
    healthy = WorkloadEngine(_cluster(), policy="packed").run(specs, baseline=False)
    zone = FailureDomain(name="pz0", kind="power", nodes=(4, 5))
    faults = FaultSchedule(
        events=(
            NodeLoss(time=0.45 * healthy.makespan, node=1),
            DomainOutage(time=0.70 * healthy.makespan, domain=zone,
                         duration=0.10 * healthy.makespan),
        )
    )  # fmt: skip
    return specs, faults


def _recovery_run(specs, faults):
    engine = WorkloadEngine(
        _cluster(), policy="packed", faults=faults,
        failure_policy="restart_elsewhere", checkpoint=2,
    )  # fmt: skip
    return engine.run(specs, baseline=False)


def _taped(memo: JobMemo) -> int:
    """The entries on every tape of ``memo``."""
    return sum(len(entries) for tape in memo.tapes.values() for _, entries in tape)


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile_job`` call a run makes, as ``(job id, memo)``: ``memo`` is ``None``
    or, of the ``JobMemo`` the compile was handed, ``(id, weak reference, tape entries
    held when the compile began)``."""
    seen = []
    real = workload_engine.compile_job

    def recording(spec, cluster, slots, memo=None):
        watched = None
        if memo is not None:
            watched = (id(memo), weakref.ref(memo), _taped(memo))
        seen.append((spec.job_id, watched))
        return real(spec, cluster, slots, memo)

    monkeypatch.setattr(workload_engine, "compile_job", recording)
    return seen


def _live_memos():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, JobMemo)]


class TestCodecCalls:
    def test_baselines_cost_no_codec_calls(self, codec_calls):
        """343 compressions and no decode (a message carries its reconstruction), with
        or without the 16 baselines (686 / 1 090 before results were reused) — gated
        here exactly because the committed ledger still holds the old counts.  336
        of them are ring rounds, one ``compressed_nbytes`` batch each (the flat rings'
        and the topology-aware leader ring's: 2 rounds of 2 leaders, which were 4
        calls of their own); the 7 a rank makes on its own are the bcast roots.  None
        packs a payload (``compress_bytes``: 7 and 14 before messages carried their
        length instead of their bytes)."""
        engine = WorkloadEngine(_cluster(), policy="spread")
        engine.run(_ledger_mix(), baseline=False)
        assert codec_calls == {
            "compress_bytes": 0, "compress": 7, "decompress": 0,
            "compressed_nbytes": 50, "nbytes_inputs": 336,
        }  # fmt: skip
        engine.run(_ledger_mix(), baseline=True)
        assert codec_calls == {
            "compress_bytes": 0, "compress": 14, "decompress": 0,
            "compressed_nbytes": 100, "nbytes_inputs": 672,
        }  # fmt: skip

    @pytest.mark.parametrize("baseline", [False, True])
    def test_a_restart_reuses_what_the_killed_attempt_computed(self, codec_calls, baseline):
        calls = (CollectiveCall(op="allreduce", msg_elems=4096, compression="on"),)
        specs = [JobSpec(job_id="long", n_ranks=8, iterations=4, seed=3, calls=calls)]
        healthy = WorkloadEngine(_cluster(), policy="packed").run(specs, baseline=False)
        once = dict(codec_calls)
        faults = FaultSchedule(events=(NodeLoss(time=0.6 * healthy.makespan, node=1),))
        engine = WorkloadEngine(
            _cluster(), policy="packed", faults=faults, failure_policy="restart_elsewhere"
        )
        report = engine.run(specs, baseline=baseline)
        assert report.total_restarts == 1
        assert (report.records[0].isolated is not None) == baseline
        # killed attempt + full re-execution (+ baseline): still one job's worth
        assert {kind: count - once[kind] for kind, count in codec_calls.items()} == once

    def test_the_recovery_ledger_shape_compresses_what_a_healthy_run_does(
        self, codec_calls, monkeypatch
    ):
        """The ledger's ``workload_recovery`` at its seed 7: 672 compressions healthy,
        672 under two kills and two restarts from checkpoints (876 before a restart
        reused the killed attempt's results) — gated here exactly because the
        committed ledger still holds the old count.  Every one is part of a ring
        round batch: 112 ``compressed_nbytes`` calls, no rank compresses on its own."""
        specs, faults = _recovery_shape()
        once = {
            "compress_bytes": 0, "compress": 0, "decompress": 0,
            "compressed_nbytes": 112, "nbytes_inputs": 672,
        }  # fmt: skip
        assert codec_calls == once
        report = _recovery_run(specs, faults)
        assert codec_calls == {kind: 2 * count for kind, count in once.items()}
        assert report.total_restarts == 2
        # the control: the same run with no memo anywhere pays for every replayed
        # step, and a killed attempt's last collective was warmed whole (928 inputs
        # where its ranks alone compressed 876)
        monkeypatch.setattr(WorkloadEngine, "_runs_again", lambda self, spec, baseline: False)
        assert _recovery_run(specs, faults) == report
        assert codec_calls == {
            "compress_bytes": 0, "compress": 0, "decompress": 0,
            "compressed_nbytes": 2 * 112 + 144,
            "nbytes_inputs": 2 * 672 + 928,
        }  # fmt: skip

    def test_a_workload_run_digests_nothing(self, sha256_calls):
        """The ledger's two job mixes, baselines and restarts included: a re-execution
        finds its codec results on its tape by position and a byte compare (686 and
        928 SHA-256 digests when they were content-addressed)."""
        WorkloadEngine(_cluster(), policy="spread").run(_ledger_mix(), baseline=True)
        assert _recovery_run(*_recovery_shape()).total_restarts == 2
        ours = {
            module: count
            for module, count in sha256_calls.items()
            if module.startswith(("repro.ccoll", "repro.workload"))
        }
        assert ours == {}


def _execute(spec, memo):
    """``spec`` run alone on slots ``0..n-1`` from time 0, as a baseline runs:
    its makespan and every rank's value of every step."""
    owner = WorkloadEngine(_cluster(), policy="packed")
    engine = owner._fresh_engine()
    compiled = compile_job(spec, owner.cluster, tuple(range(spec.n_ranks)), memo)
    record = JobRecord(spec=spec)
    record.prepare(spec.n_steps)
    finished = []
    engine.schedule_event(
        0.0,
        lambda now: workload_engine._launch_job(
            engine, now, compiled, record, True, 0, lambda job: finished.append(job.finished)
        ),
    )
    engine.run()
    values = [[step[rank].tobytes() for rank in sorted(step)] for step in record.step_values]
    return finished, values


class TestALyingTape:
    """A tape is checked like any queue: what it gets wrong costs codec calls, never values."""

    SPEC = JobSpec(
        job_id="j", n_ranks=4, iterations=2, seed=11,
        calls=(CollectiveCall(op="allreduce", msg_elems=4096, compression="on"),),
    )  # fmt: skip
    #: inputs one step compresses: 3 reduce-scatter rounds of 4 chunks, and the
    #: allgather stage's 4 reduced chunks
    PER_STEP = 4 * 3 + 4

    def test_a_flipped_bit_costs_one_codec_call(self, codec_calls):
        memo = JobMemo()
        truth = _execute(self.SPEC, memo)
        assert codec_calls["nbytes_inputs"] == 2 * self.PER_STEP and _taped(memo) == 2 * self.PER_STEP
        assert _execute(self.SPEC, memo) == truth
        assert codec_calls["nbytes_inputs"] == 2 * self.PER_STEP and codec_calls["compress"] == 0
        # one bit of the input rank 2's second reduce-scatter round was recorded with
        describe, entries = memo.tapes[1][2]
        recorded, buf, decoded = entries[1]
        lied = recorded.copy()
        lied.view(np.uint8)[5] ^= 0x10
        lied.setflags(write=False)
        entries[1] = (lied, buf, decoded)
        assert _execute(self.SPEC, memo) == truth
        assert codec_calls["compress"] == 1
        assert codec_calls["nbytes_inputs"] == 2 * self.PER_STEP  # no warm ran either
        assert entries[1][0] is lied  # a miss leaves the tape as it was

    def test_another_steps_tape_misses_everywhere_and_changes_nothing(self, codec_calls):
        truth = _execute(self.SPEC, None)
        untaped = dict(codec_calls)
        assert untaped["nbytes_inputs"] == 2 * self.PER_STEP
        memo = JobMemo()
        _execute(self.SPEC, memo)
        memo.tapes[1] = memo.tapes[0]  # step 1 replays what step 0 compressed
        before = dict(codec_calls)
        assert _execute(self.SPEC, memo) == truth
        # step 0 hits everything; step 1 skips its warm and every rank compresses
        # its own: one codec call per input the tape-less run batched for that step
        assert codec_calls["compress"] - before["compress"] == self.PER_STEP
        assert codec_calls["nbytes_inputs"] == before["nbytes_inputs"]


def _no_warm(arrays, ranks):
    return None


class TestTheLeaderRingOnATape:
    """``compression="auto"`` on 2-rank nodes: the topology-aware leader ring, whose
    warm compresses one round each time a leader finds its queue empty."""

    #: 8 ranks packed on 4 nodes: 4 leaders, 3 reduce-scatter rounds and the
    #: allgather's blocks per step, 3 steps
    SPEC = JobSpec(
        job_id="auto", n_ranks=8, iterations=3, seed=3,
        calls=(CollectiveCall(op="allreduce", msg_elems=8192, compression="auto"),),
    )  # fmt: skip
    PER_STEP = 4 * 4

    @pytest.fixture
    def leader_warm(self, monkeypatch):
        """The inputs the leader warm compressed, and a switch that turns it off."""
        warmed = [0]

        def counting(arrays, ranks):
            warmed[0] += len(arrays)
            return warm_round(arrays, ranks)

        monkeypatch.setattr(computation, "warm_round", counting)
        return warmed, partial(monkeypatch.setattr, computation, "warm_round", _no_warm)

    def test_a_baseline_replays_its_tape_and_warms_nothing(self, codec_calls, leader_warm):
        warmed, _ = leader_warm
        report = WorkloadEngine(_cluster(), policy="packed").run([self.SPEC], baseline=True)
        assert report.records[0].isolated is not None
        assert warmed[0] == codec_calls["nbytes_inputs"] == 3 * self.PER_STEP
        assert codec_calls["compress"] == 0

    def test_a_step_killed_mid_ring_restarts_from_its_partial_tape(
        self, codec_calls, compiles, leader_warm, monkeypatch
    ):
        """Node 1 is lost while step 1's leader ring has warmed 2 of its 4 rounds: the
        restart replays steps 0 and 1 from the tape, its leaders compress step 1's
        other 2 rounds themselves (and record them), step 2 warms as usual, and the
        baseline replays everything.  The report is the one a run without a memo,
        and one without the warm, makes."""
        _, off = leader_warm
        healthy = WorkloadEngine(_cluster(), policy="packed").run([self.SPEC], baseline=False)
        faults = FaultSchedule(events=(NodeLoss(time=0.45 * healthy.makespan, node=1),))

        def run():
            return WorkloadEngine(
                _cluster(), policy="packed", faults=faults, failure_policy="restart_elsewhere"
            ).run([self.SPEC], baseline=True)

        before = dict(codec_calls)
        compiles.clear()
        report = run()
        assert report.total_restarts == 1
        # the restart's compile found step 0's 4 rounds and step 1's first 2 taped
        assert [taped for _, (_, _, taped) in compiles] == [0, 4 * 4 + 2 * 4, 3 * self.PER_STEP]
        assert {kind: count - before[kind] for kind, count in codec_calls.items()} == {
            "compress_bytes": 0, "compress": 2 * 4, "decompress": 0,
            "compressed_nbytes": 4 + 2 + 4,
            "nbytes_inputs": 4 * 4 + 2 * 4 + 4 * 4,
        }  # fmt: skip
        with monkeypatch.context() as patch:
            patch.setattr(WorkloadEngine, "_runs_again", lambda self, spec, baseline: False)
            assert run() == report
        off()
        assert run() == report


class TestMemoLifetime:
    def test_no_memo_without_baselines(self, compiles):
        """... unless a restart can execute the job a second time."""
        WorkloadEngine(_cluster(), policy="spread").run(_ledger_mix()[:4], baseline=False)
        assert len(compiles) == 4
        assert all(memo is None for _, memo in compiles)
        assert _live_memos() == []
        specs, faults = _four_jobs_and_a_loss()

        def faulted(policy):
            del compiles[:]
            engine = WorkloadEngine(
                _cluster(), policy="packed", faults=faults, failure_policy=policy
            )
            return engine.run(specs, baseline=False)

        # a policy that never restarts executes nothing twice either
        assert faulted("fail").failed_jobs == 1 and len(compiles) == 4
        assert all(memo is None for _, memo in compiles)
        assert faulted("restart_elsewhere").total_restarts == 1 and len(compiles) == 5
        memos = {}
        for job_id, memo in compiles:
            # one per job, the same object across that job's attempts
            assert memos.setdefault(job_id, memo)[0] == memo[0]
        assert len({memo[0] for memo in memos.values()}) == 4
        # the restart compiles against what the killed attempt left
        assert compiles[-1][0] == "a" and compiles[-1][1][2] > 0
        assert _live_memos() == []
        assert all(memo[1]() is None for _, memo in compiles)

    def test_a_failed_jobs_memo_dies_with_its_row(self, compiles, monkeypatch):
        """No memo outlives its job: FAILED drops it on the spot — with a baseline
        wanted, and while the other jobs (and their memos) are still running."""
        # b, c and d run long enough to outlast a's MAX_RETRIES backoffs
        specs, faults = _four_jobs_and_a_loss(iterations=(4, 24, 24, 24))
        del compiles[:]
        seen = []
        real = workload_engine._Scheduler.back_off

        def watching(self, job, now):
            real(self, job, now)
            if job.state == "FAILED":
                gc.collect()
                mine = [memo[1]() for job_id, memo in compiles if job_id == job.spec.job_id]
                running = [row for row in self.jobs.values() if row.state == "RUNNING"]
                seen.append((job.memo, mine, [row.memo is not None for row in running]))

        monkeypatch.setattr(workload_engine._Scheduler, "back_off", watching)
        # in place, on a node that never comes back: every retry burns budget
        engine = WorkloadEngine(
            _cluster(), policy="packed", faults=faults, failure_policy="restart"
        )
        report = engine.run(specs, baseline=True)
        assert report.failed_jobs == 1
        assert seen == [(None, [None], [True, True, True])]
        assert _live_memos() == []

    def test_one_memo_per_job_dropped_with_its_baseline(self, compiles):
        calls = (CollectiveCall(op="allgather", msg_elems=1024, compression="on"),)
        specs = [
            JobSpec(job_id=name, n_ranks=4, seed=seed, calls=calls)
            for name, seed in (("a", 1), ("b", 2), ("c", 3))
        ]
        report = WorkloadEngine(_cluster(), policy="spread").run(specs, baseline=True)
        assert [job_id for job_id, _ in compiles] == ["a", "b", "c", "a", "b", "c"]
        for (_, concurrent), (_, isolated) in zip(compiles[:3], compiles[3:]):
            assert concurrent[0] == isolated[0]  # the same memo object...
            # ...fresh at the job's first compile, and holding the job's own four
            # blocks (not its neighbours' eight) when its baseline compiles
            assert (concurrent[2], isolated[2]) == (0, 4)
        assert len({memo[0] for _, memo in compiles}) == 3
        # by the time run() returns every memo is gone, though the report is still held
        assert _live_memos() == []
        assert all(memo[1]() is None for _, memo in compiles)
        assert all(record.isolated is not None for record in report.records)

    def test_runs_and_engines_never_see_each_others_entries(self, compiles):
        specs = _ledger_mix()[:3]
        one = WorkloadEngine(_cluster(), policy="spread")
        other = WorkloadEngine(_cluster(), policy="spread")
        reports = [engine.run(specs, baseline=True) for engine in (one, other, one, other)]
        assert len(compiles) == 4 * 6
        for run in range(4):
            concurrent = compiles[run * 6 : run * 6 + 3]
            assert all(memo[2] == 0 for _, memo in concurrent)
        assert _live_memos() == []
        for report in reports[1:]:
            assert [r.isolated for r in report.records] == [r.isolated for r in reports[0].records]
            assert [r.finished for r in report.records] == [r.finished for r in reports[0].records]

    def test_nothing_is_left_behind_when_a_run_raises(self, compiles, monkeypatch):
        specs = _ledger_mix()[:4]
        # a call only job "broken" issues fails when the job compiles, mid-run
        doomed = CollectiveCall(op="bcast", msg_elems=4321)
        broken = JobSpec(
            job_id="broken", n_ranks=2, arrival=specs[-1].arrival + 1e-3, calls=(doomed,)
        )
        real = workload_job.issue_collective

        def failing(comm, op, inputs, **options):
            if op == doomed.op and len(inputs[0]) == doomed.msg_elems:
                raise ValueError("job 'broken' cannot compile")
            return real(comm, op, inputs, **options)

        monkeypatch.setattr(workload_job, "issue_collective", failing)
        engine = WorkloadEngine(_cluster(), policy="spread")
        with pytest.raises(ValueError, match="job 'broken' cannot compile"):
            engine.run(specs + [broken], baseline=True)
        assert [job_id for job_id, _ in compiles] == [s.job_id for s in specs] + ["broken"]
        assert _live_memos() == []
        assert all(memo[1]() is None for _, memo in compiles)
        # and the engine is as good as new
        report = engine.run(specs, baseline=True)
        assert all(record.slowdown is not None for record in report.records)


class TestWhatAMemoHolds:
    @pytest.fixture
    def issued(self, monkeypatch):
        """The input lists ``compile_job`` issued its steps on, in order."""
        seen = []
        real = workload_job.issue_collective

        def recording(comm, op, inputs, **options):
            seen.append(inputs)
            return real(comm, op, inputs, **options)

        monkeypatch.setattr(workload_job, "issue_collective", recording)
        return seen

    def test_compiles_given_one_memo_share_the_drawn_inputs(self, issued):
        calls = (
            CollectiveCall(op="allreduce", msg_elems=512, compression="on"),
            CollectiveCall(op="allgather", msg_elems=256, dtype="float32"),
        )
        spec = JobSpec(job_id="j", n_ranks=4, iterations=2, seed=9, calls=calls)
        memo = JobMemo()
        compile_job(spec, _cluster(), (0, 1, 2, 3), memo)
        compile_job(spec, _cluster(), (4, 5, 16, 17), memo)
        assert len(issued) == 8 and sorted(memo.inputs) == [0, 1, 2, 3]
        for step, (first, again) in enumerate(zip(issued[:4], issued[4:])):
            drawn = call_inputs(spec, calls[step % 2], step)
            assert len(first) == len(drawn) == 4
            for ours, theirs, fresh in zip(first, again, drawn):
                assert ours is theirs and not ours.flags.writeable
                assert ours.dtype == fresh.dtype and ours.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            issued[0][0][0] = 1.0

    def test_without_a_memo_nothing_is_shared_or_frozen(self, issued):
        spec = JobSpec(job_id="j", n_ranks=4, iterations=2, seed=9)
        for _ in range(2):
            compile_job(spec, _cluster(), (0, 1, 2, 3))
        for first, again in zip(issued[:2], issued[2:]):
            for ours, theirs in zip(first, again):
                assert ours is not theirs and ours.flags.writeable and theirs.flags.writeable
                assert ours.tobytes() == theirs.tobytes()

    def test_a_replay_matches_its_inputs_bit_for_bit(self, codec_calls):
        """What a digest key told apart, the byte compare tells apart: one ulp of one
        element, and one buffer read as two dtypes."""
        data = np.random.default_rng(4).uniform(1.0, 2.0, 4096)
        nudged = data.copy()
        nudged[1234] = np.nextafter(nudged[1234], 2.0)  # one ulp, one element
        halves = data.astype(np.float32)
        memo = JobMemo()

        def compress(values, step=0):
            config = CCollConfig(codec_tape=memo.step_tape(step))
            return config.make_adapters(config.context(), 1)[0].compress(values)

        expected = compress(data)
        assert codec_calls["compress"] == 1 and _taped(memo) == 1
        for calls, values in enumerate((nudged, halves.view(np.float64)), start=2):
            compress(values)  # a miss: the codec's own call
            assert codec_calls["compress"] == calls
        assert compress(data.copy()) == expected  # an equal input, in another buffer, hits
        assert codec_calls["compress"] == 3
        # an entry holds the bytes it was computed from, frozen, and misses record nothing
        ((_, entries),) = memo.tapes[0]
        assert len(entries) == 1 and entries[0][0].tobytes() == data.tobytes()
        assert not entries[0][0].flags.writeable
        compress(halves, step=1)  # float32 values
        assert memo.tapes[1][0][1][0][0].dtype == np.float32
