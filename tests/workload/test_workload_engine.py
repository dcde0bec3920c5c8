"""Concurrent multi-job runs: determinism, queueing, fair invariants, errors."""

import pytest

from repro.api import Cluster
from repro.mpisim.audit import audit_fabric
from repro.workload import CollectiveCall, JobMix, JobSpec, WorkloadEngine


def _fair_cluster(nodes=8):
    return Cluster.from_preset(
        "fat_tree", nodes=nodes, ranks_per_node=2, contention="fair"
    )


def _overlapping_jobs(n=3, elems=16384):
    """Same-arrival spread jobs whose flows must meet in the core stages."""
    return [
        JobSpec(
            job_id=f"j{i}",
            n_ranks=4,
            arrival=0.0,
            seed=100 + i,
            calls=(CollectiveCall(op="allreduce", msg_elems=elems),),
        )
        for i in range(n)
    ]


class TestConcurrentRuns:
    def test_same_mix_twice_is_identical(self):
        specs = JobMix(n_jobs=6, arrival_rate=500.0).generate(21)
        engine = WorkloadEngine(_fair_cluster(16), policy="spread", seed=21)
        first = engine.run(specs, baseline=False)
        second = engine.run(specs, baseline=False)
        assert first.makespan == second.makespan
        for a, b in zip(first.records, second.records):
            assert (a.started, a.finished, a.bytes_sent) == (
                b.started, b.finished, b.bytes_sent
            )
            assert a.fair_bytes == b.fair_bytes

    def test_contending_jobs_slow_down_and_attribute_fair_bytes(self):
        engine = WorkloadEngine(_fair_cluster(), policy="spread", seed=0)
        report = engine.run(_overlapping_jobs())
        slowdowns = [record.slowdown for record in report.records]
        assert all(s is not None and s >= 1.0 - 1e-12 for s in slowdowns)
        assert max(s for s in slowdowns) > 1.2  # genuine interference
        # fair-share byte attribution: every tenant moved inter-node bytes
        # through contended stages, and attribution never exceeds traffic
        for record in report.records:
            assert record.fair_bytes > 0.0
            assert record.fair_bytes <= record.bytes_sent * (1.0 + 1e-9)

    def test_fair_rates_conserve_stage_capacity_under_concurrency(self):
        """Property: cross-tenant max-min arbitration never overcommits.

        Audits the real run with the live fabric monitors — every committed
        allocation must satisfy the bottleneck property, and the reservation
        trace must conserve per-stage capacity.
        """
        engine = WorkloadEngine(_fair_cluster(), policy="spread", seed=3)
        with audit_fabric() as violations:
            engine.run(_overlapping_jobs(n=4), baseline=False)
        assert violations == []

    def test_jobs_queue_fifo_when_fabric_is_full(self):
        # the fat-tree preset always exposes 16 hosts; 18-rank jobs take 9
        # nodes each, so no two of them ever fit together
        engine = WorkloadEngine(_fair_cluster(), policy="packed", seed=0)
        specs = [
            JobSpec(job_id=f"q{i}", n_ranks=18, arrival=0.0, seed=i,
                    calls=(CollectiveCall(msg_elems=2048),))
            for i in range(3)
        ]
        report = engine.run(specs, baseline=False)
        starts = [record.started for record in report.records]
        finishes = [record.finished for record in report.records]
        assert starts[0] == 0.0
        assert starts[1] == finishes[0]  # next job starts the instant nodes free
        assert starts[2] == finishes[1]
        assert report.records[1].queue_wait > 0.0

    def test_small_job_skips_ahead_of_a_blocked_big_one(self):
        engine = WorkloadEngine(_fair_cluster(), policy="packed", seed=0)
        specs = [
            JobSpec(job_id="running", n_ranks=20, arrival=0.0, seed=0),  # 10 nodes
            JobSpec(job_id="big", n_ranks=16, arrival=1e-6, seed=1),  # 8: blocked
            JobSpec(job_id="small", n_ranks=4, arrival=2e-6, seed=2),  # 2: fits
        ]
        report = engine.run(specs, baseline=False)
        by_id = {record.spec.job_id: record for record in report.records}
        # 'big' cannot fit beside 'running', but 'small' can: first-fit drains
        # past the blocked head instead of starving the tail
        assert by_id["small"].started == 2e-6
        assert by_id["big"].started >= by_id["running"].finished

    def test_report_shapes(self):
        engine = WorkloadEngine(_fair_cluster(), policy="packed", seed=0)
        report = engine.run(_overlapping_jobs(n=2), baseline=False)
        data = report.to_dict()
        assert data["n_jobs"] == 2
        assert len(data["jobs"]) == 2
        assert data["latency"]["count"] == 2
        assert any(util > 0.0 for util in data["stage_utilization"].values())
        text = report.to_text()
        assert "makespan" in text and "j0" in text


class TestValidation:
    def test_duplicate_job_ids_rejected(self):
        engine = WorkloadEngine(_fair_cluster(), policy="packed", seed=0)
        spec = JobSpec(job_id="dup", n_ranks=2)
        with pytest.raises(ValueError, match="unique"):
            engine.run([spec, spec])

    def test_oversized_job_rejected_upfront(self):
        engine = WorkloadEngine(_fair_cluster(), policy="packed", seed=0)
        with pytest.raises(ValueError, match="needs 20 nodes"):
            engine.run([JobSpec(job_id="huge", n_ranks=40)])

    def test_cluster_without_topology_rejected(self):
        from repro.api import Cluster as C

        with pytest.raises(ValueError, match="explicit topology"):
            WorkloadEngine(C())

    def test_explicit_placement_rejected(self):
        cluster = Cluster.from_preset(
            "fat_tree", ranks_per_node=2, placement=[0, 0, 1, 1]
        )
        with pytest.raises(ValueError, match="owns placement"):
            WorkloadEngine(cluster)
