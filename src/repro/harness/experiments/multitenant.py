"""Multi-tenant experiment: a job mix sharing one fabric.

The paper times every collective on a quiet cluster; production fabrics never
run one collective at a time.  This experiment generates a seeded Poisson mix
of jobs (2–8 ranks, mixed collectives and compression modes), multiplexes
them onto one fat-tree fabric through :class:`repro.workload.WorkloadEngine`,
and reports the tenant-level numbers the ROADMAP's multi-tenant item asks
for: per-job slowdown vs. an isolated run of the same job on the same nodes,
p50/p99 collective-step latency, queue waits, and per-stage fabric
utilization.  ``contention="fair"`` (max-min processor sharing, PR 4) is the
default discipline — this workload is what it was built for.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.harness.common import resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.workload import JobMix, WorkloadEngine

__all__ = ["run_multitenant"]

#: placement policy of the job mix, and the seed of the mix and of the engine
POLICY = "spread"
SEED = 7


def run_multitenant(scale="small", contention: str = "fair") -> ExperimentResult:
    """Per-job slowdown / latency / utilization for a seeded job mix."""
    if resolve_scale(scale).name == "paper":
        nodes, n_jobs, rate = 32, 24, 600.0
        sizes = (2, 4, 8, 16)
    else:
        nodes, n_jobs, rate = 8, 6, 500.0
        sizes = (2, 4, 8)
    cluster = Cluster.from_preset(
        "fat_tree", nodes=nodes, ranks_per_node=2, contention=contention
    )
    mix = JobMix(n_jobs=n_jobs, arrival_rate=rate, sizes=sizes)
    engine = WorkloadEngine(cluster, policy=POLICY, seed=SEED)
    report = engine.run(mix.generate(SEED))

    result = ExperimentResult(
        experiment="multitenant",
        title=(
            f"Multi-tenant workload on one fat tree ({nodes} nodes, 2 ranks/node, "
            f"{n_jobs} jobs, policy={POLICY}, contention={contention}, seed={SEED})"
        ),
        paper_reference=(
            "beyond the paper: its timings assume a quiet cluster; this measures "
            "how much neighbours cost each tenant on a shared fabric"
        ),
        columns=[
            "job",
            "ranks",
            "steps",
            "arrival_ms",
            "wait_ms",
            "makespan_ms",
            "isolated_ms",
            "slowdown",
            "nodes",
        ],
    )
    for record in report.records:
        result.add_row(
            job=record.spec.job_id,
            ranks=record.spec.n_ranks,
            steps=record.spec.n_steps,
            arrival_ms=record.spec.arrival * 1e3,
            wait_ms=record.queue_wait * 1e3,
            makespan_ms=record.makespan * 1e3,
            isolated_ms=(
                record.isolated * 1e3 if record.isolated is not None else None
            ),
            slowdown=record.slowdown,
            nodes=",".join(str(n) for n in record.nodes),
        )
    latency = report.latency
    result.add_note(
        f"mean slowdown {report.mean_slowdown:.3f}x vs isolated; workload "
        f"makespan {report.makespan * 1e3:.3f} ms"
    )
    if latency.get("count"):
        result.add_note(
            f"step latency p50 {latency['p50'] * 1e3:.3f} ms / "
            f"p99 {latency['p99'] * 1e3:.3f} ms over {int(latency['count'])} "
            "collective steps"
        )
    if report.stage_utilization:
        busiest = sorted(report.stage_utilization.items(), key=lambda kv: -kv[1])[:3]
        result.add_note(
            f"fabric utilization over {len(report.stage_utilization)} touched "
            "stages; busiest: "
            + ", ".join(f"{name}={util:.1%}" for name, util in busiest)
        )
    return result
