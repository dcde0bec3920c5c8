"""A job's isolated baseline reuses the job's codec results: counts and lifetime.

That reuse moves no simulated number is ``test_baseline_pin.py``'s job; here:
the baselines cost zero codec calls, a memo is per job and per ``run()``, and
nothing keeps one alive afterwards.
"""

import gc
import weakref

import pytest

import repro.workload.engine as workload_engine
from repro.api import Cluster
from repro.ccoll import CodecMemo
from repro.faults import FaultSchedule, NodeLoss
from repro.workload import CollectiveCall, JobMix, JobSpec, WorkloadEngine


def _cluster():
    return Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=2, contention="fair")


def _ledger_mix():
    """The job list of the ledger's ``workload_mix`` (payload seeds aside)."""
    return JobMix(n_jobs=16, arrival_rate=500.0, sizes=(2, 4, 8)).generate(7)


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile_job`` call a run makes, as ``(job id, memo)``: ``memo`` is ``None``
    or ``(id, weak reference, compress entries held when the compile began)``."""
    seen = []
    real = workload_engine.compile_job

    def recording(spec, cluster, slots, codec_memo=None):
        memo = codec_memo
        if memo is not None:
            memo = (id(memo), weakref.ref(memo), len(memo.compressed))
        seen.append((spec.job_id, memo))
        return real(spec, cluster, slots, codec_memo)

    monkeypatch.setattr(workload_engine, "compile_job", recording)
    return seen


def _live_memos():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, CodecMemo)]


class TestCodecCalls:
    def test_baselines_cost_no_codec_calls(self, codec_calls):
        """343 compressions and no decode (a message carries its reconstruction), with
        or without the 16 baselines (686 / 1 090 before results were reused) — gated
        here exactly because the committed ledger still holds the old counts."""
        engine = WorkloadEngine(_cluster(), policy="spread")
        engine.run(_ledger_mix(), baseline=False)
        assert codec_calls == {"compress": 343, "decompress": 0}
        engine.run(_ledger_mix(), baseline=True)
        assert codec_calls == {"compress": 686, "decompress": 0}

    def test_a_restart_reuses_what_the_killed_attempt_computed(self, codec_calls):
        calls = (CollectiveCall(op="allreduce", msg_elems=4096, compression="on"),)
        specs = [JobSpec(job_id="long", n_ranks=8, iterations=4, seed=3, calls=calls)]
        healthy = WorkloadEngine(_cluster(), policy="packed").run(specs, baseline=False)
        once = dict(codec_calls)
        faults = FaultSchedule(events=(NodeLoss(time=0.6 * healthy.makespan, node=1),))
        engine = WorkloadEngine(
            _cluster(), policy="packed", faults=faults, failure_policy="restart_elsewhere"
        )
        report = engine.run(specs, baseline=True)
        assert report.total_restarts == 1 and report.records[0].isolated is not None
        # killed attempt + full re-execution + baseline: still one job's worth
        assert {kind: count - once[kind] for kind, count in codec_calls.items()} == once


class TestMemoLifetime:
    def test_no_memo_without_baselines(self, compiles):
        WorkloadEngine(_cluster(), policy="spread").run(_ledger_mix()[:4], baseline=False)
        assert len(compiles) == 4
        assert all(memo is None for _, memo in compiles)
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

    def test_nothing_is_left_behind_when_a_run_raises(self, compiles):
        specs = _ledger_mix()[:4]
        # which modes an op supports is only known at compile time, mid-run
        broken = JobSpec(
            job_id="broken", n_ranks=2, arrival=specs[-1].arrival + 1e-3,
            calls=(CollectiveCall(op="bcast", compression="nd"),),
        )  # fmt: skip
        engine = WorkloadEngine(_cluster(), policy="spread")
        with pytest.raises(ValueError, match="'nd' is not available for bcast"):
            engine.run(specs + [broken], baseline=True)
        assert [job_id for job_id, _ in compiles] == [s.job_id for s in specs] + ["broken"]
        assert _live_memos() == []
        assert all(memo[1]() is None for _, memo in compiles)
        # and the engine is as good as new
        report = engine.run(specs, baseline=True)
        assert all(record.slowdown is not None for record in report.records)
