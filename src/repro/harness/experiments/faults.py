"""Fault-injection experiment: the same job mix under every named fault mix.

The paper's timings — and every other experiment here — assume a healthy
fabric.  Production fabrics degrade: links flap, a switch tier runs hot, a
NIC rail dies, a node disappears mid-run.  This experiment takes one seeded
multi-tenant job mix (the ``multitenant`` experiment's workload) and replays
it under each named fault mix of :data:`repro.faults.FAULT_MIXES`, reporting
the tenant-level impact per mix: workload makespan, p50/p99 collective-step
latency, and mean slowdown versus *fault-free isolated* runs — so the
slowdown column folds fault impact and cross-tenant interference together,
which is what an operator sees.

Two properties are asserted, not eyeballed:

* the ``none`` row is byte-identical to a run without any injector (the
  empty-schedule golden-pin contract);
* every faulted run replays bit-for-bit when re-simulated with the same
  ``(mix, seed)`` pair (the ``replay_exact`` column).
"""

from __future__ import annotations

from repro.api import Cluster
from repro.faults import FAULT_MIXES, FaultSchedule
from repro.harness.common import resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.workload import JobMix, WorkloadEngine

__all__ = ["run_faults"]

#: placement policy of the job mix, and the seed of the mix, the engine and every fault draw
POLICY = "packed"
SEED = 7


def run_faults(scale="small", contention: str = "fair") -> ExperimentResult:
    """Makespan / latency / slowdown of one job mix under each fault mix."""
    if resolve_scale(scale).name == "paper":
        nodes, n_jobs, rate = 16, 12, 1200.0
        sizes = (4, 8, 16)
        horizon = 10e-3
    else:
        nodes, n_jobs, rate = 8, 6, 900.0
        sizes = (4, 8)
        # six multi-node jobs arrive inside ~6 ms; land the faults there
        horizon = 6e-3
    # two NIC rails per node so the rail_outage mix has a surviving rail;
    # every job spans nodes (>= 4 ranks at 2 ranks/node) so fabric faults
    # actually intersect tenant traffic
    cluster = Cluster.from_preset(
        "fat_tree", nodes=nodes, ranks_per_node=2, nics_per_node=2,
        contention=contention,
    )
    mix = JobMix(n_jobs=n_jobs, arrival_rate=rate, sizes=sizes)
    specs = mix.generate(SEED)

    def simulate(faults, baseline=False):
        engine = WorkloadEngine(
            cluster, policy=POLICY, seed=SEED, faults=faults
        )
        return engine.run(specs, baseline=baseline)

    n_fabric = int(cluster.topology.n_fabric_nodes)
    # fault draws target the busy half of the fabric: packed placement keeps
    # jobs on the low-numbered nodes, so a straggler / rail / node fault
    # sampled there hits live tenants instead of idle hardware
    fault_nodes = max(1, min(n_fabric, nodes))
    fault_ranks = fault_nodes * 2

    result = ExperimentResult(
        experiment="faults",
        title=(
            f"Fault injection on one fat tree ({n_fabric} nodes, 2 ranks/node, "
            f"2 rails, {n_jobs} jobs, policy={POLICY}, contention={contention}, "
            f"seed={SEED})"
        ),
        paper_reference=(
            "beyond the paper: its fabric is healthy; this measures what each "
            "fault class costs the same tenants on the same fabric"
        ),
        columns=[
            "mix",
            "events",
            "makespan_ms",
            "p50_ms",
            "p99_ms",
            "mean_slowdown",
            "replay_exact",
        ],
    )

    healthy_makespan = None
    for fault_mix in FAULT_MIXES:
        schedule = FaultSchedule.generate(
            fault_mix, SEED, n_nodes=fault_nodes, n_ranks=fault_ranks,
            nics_per_node=2, horizon=horizon,
        )
        report = simulate(schedule, baseline=True)
        replay = simulate(
            FaultSchedule.generate(
                fault_mix, SEED, n_nodes=fault_nodes, n_ranks=fault_ranks,
                nics_per_node=2, horizon=horizon,
            )
        )
        replay_exact = report.makespan == replay.makespan and all(
            a.finished == b.finished
            for a, b in zip(report.records, replay.records)
        )
        assert replay_exact, f"fault mix {fault_mix!r} did not replay bit-for-bit"
        if fault_mix == "none":
            healthy_makespan = report.makespan
            uninjected = simulate(None)
            assert report.makespan == uninjected.makespan, (
                "empty fault schedule perturbed the simulation: "
                f"{report.makespan!r} != {uninjected.makespan!r}"
            )
        latency = report.latency
        result.add_row(
            mix=fault_mix,
            events=len(schedule),
            makespan_ms=report.makespan * 1e3,
            p50_ms=latency["p50"] * 1e3 if latency.get("count") else None,
            p99_ms=latency["p99"] * 1e3 if latency.get("count") else None,
            mean_slowdown=report.mean_slowdown,
            replay_exact=replay_exact,
        )

    result.add_note(
        "slowdown is vs fault-free isolated runs, so it folds fault impact "
        "and cross-tenant interference together"
    )
    result.add_note(
        "rail_outage matching the healthy row is the dual-rail redundancy "
        "story: resolve_link re-routes new messages onto the surviving rail"
    )
    result.add_note(
        f"asserted: empty schedule matches an uninjected run bit-for-bit "
        f"(makespan {healthy_makespan * 1e3:.3f} ms), and every mix replays "
        "exactly under its (mix, seed) pair"
    )
    return result
