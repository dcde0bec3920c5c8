"""What the ledger measures: workload and metric names, units, directions, bounds.

The single source of the contract in ``BENCHMARK.json`` (:func:`contract`),
of the glossary in the README and of what ``run.py`` prints.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]
RUN_SECONDS = 10

#: name -> (unit of work counted by ``work_per_s``, why the workload exists)
WORKLOADS: Dict[str, tuple] = {
    "codec_large": (
        "MB",
        "one 4 MB field through SZx, PIPE-SZx and ZFP-abs: codec is 100 % of the rep and "
        "bandwidth-bound, the engine does nothing",
    ),
    "codec_small": (
        "MB",
        "480 SZx/PIPE-SZx round trips of 1-64 KiB, the sizes the job mixes send: per-call "
        "fixed overhead dominates, so a fast path that costs small calls shows",
    ),
    "engine_ring_fair": (
        "commands",
        "1,024-rank 8-round ring exchange on fair-share uplinks: zero codec calls, event "
        "heap and FairShareRegistry do all the work",
    ),
    "engine_ring_resv": (
        "commands",
        "the same ring on reservation-queue uplinks: zero fair-share calls, the bypass for "
        "any fair-share change",
    ),
    "allreduce_ccoll": (
        "collectives",
        "16-rank Communicator.allreduce of the RTM field with compression off, on and auto: "
        "the paper's headline path, engine-bound then codec-bound",
    ),
    "workload_mix": (
        "flows",
        "16-job mix on a fair fat tree with isolated baselines (the CLI default): all five "
        "layers in production proportions, every job compiled and run twice",
    ),
    "workload_recovery": (
        "flows",
        "six long compressed jobs under node loss and a domain outage, restart elsewhere "
        "from checkpoints: the only path through kill_job, cancel_flow and restarts",
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: float = 0.0
    #: per-layer only: deterministic for a seed, compared with ``==``
    exact: bool = False
    what: str = ""


END_TO_END: List[Metric] = [
    Metric("work_per_s", "1/s", "higher", 0.25,
           what="units of work (MB, commands, collectives, flows: see the workload) per second "
                "of a host at reference speed: the median over the reps of rep time over the "
                "calibration runs around it, scaled by the calibration's quiet-host time"),
    Metric("setup_s", "s", "lower", 0.25,
           what="imports + input/cluster build + warm-up rep in a fresh process, median of 3"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           what="ru_maxrss of the measuring process after the timed reps, tracing never installed"),
]


def _count(name: str, what: str, unit: str = "count") -> Metric:
    return Metric(name, unit, "lower", exact=True, what=what)


def _time(name: str, what: str, unit: str = "s") -> Metric:
    return Metric(name, unit, "lower", what=what)


def _share(layer: str) -> Metric:
    return Metric(f"{layer}.share", "frac", "lower",
                  what=f"self time of the {layer} layer over the traced rep's wall time")


PER_LAYER: List[Metric] = [
    _count("compression.compress_calls", "outermost compress_bytes calls per rep"),
    _count("compression.decompress_calls", "outermost decompress_bytes calls per rep"),
    _count("compression.bytes_in", "uncompressed bytes handed to compress per rep", "B"),
    _count("compression.bytes_out", "payload bytes compress returned per rep", "B"),
    _time("compression.compress_busy_s", "time inside compress_bytes per rep"),
    _time("compression.decompress_busy_s", "time inside decompress_bytes per rep"),
    _time("compression.call_us_p50", "median codec call", "us"),
    _time("compression.call_us_p99", "99th percentile codec call over call_samples", "us"),
    Metric("compression.call_samples", "count", "higher",
           what="codec calls behind call_us_p50/p99 (all traced reps)"),
    _time("compression.fixed_overhead_us",
          "intercept of a least-squares fit of call time against bytes (0: one size only)", "us"),
    _share("compression"),
    _time("collectives.program_self_s", "time inside rank-program sends minus codec calls, per rep"),
    _count("collectives.commands", "commands the rank programs yielded per rep"),
    _share("collectives"),
    _time("mpisim.engine.run_self_s", "Engine init/run/bind_job/schedule_event self time per rep"),
    _time("mpisim.engine.us_per_command", "engine self time per yielded command", "us"),
    _count("mpisim.engine.events", "sum of Engine.event_counts per rep"),
    _count("mpisim.engine.events_scheduled", "Engine.schedule_event calls per rep"),
    _count("mpisim.engine.kill_calls", "Engine.kill_job calls per rep"),
    _time("mpisim.engine.kill_busy_s", "time inside Engine.kill_job per rep"),
    _share("mpisim.engine"),
    _count("mpisim.fairshare.calls", "FairShareRegistry public calls per rep"),
    _count("mpisim.fairshare.flows_opened", "open_flow calls per rep"),
    _count("mpisim.fairshare.flows_cancelled", "cancel_flow calls per rep"),
    _count("mpisim.fairshare.capacity_changes", "apply_capacity_change calls per rep"),
    _time("mpisim.fairshare.busy_s", "time inside the registry's public calls per rep"),
    _share("mpisim.fairshare"),
    _count("mpisim.topology.resolve_calls", "resolve_link calls per rep"),
    _time("mpisim.topology.busy_s", "time inside resolve_link and reserve_path per rep"),
    _count("api.calls", "Communicator collective and capture calls per rep"),
    _time("api.self_s", "facade self time per rep (includes the runners' program building)"),
    _count("workload.compile_calls", "compile_job calls per rep"),
    _time("workload.compile_busy_s", "time inside compile_job per rep"),
    _count("workload.engine_runs", "Engine.run calls per rep (concurrent + isolated runs)"),
    _time("workload.run_self_s", "WorkloadEngine.run self time: report building, baselines' glue"),
    _count("workload.restarts", "report.total_restarts"),
    _count("workload.killed_jobs", "jobs torn down by node loss per rep"),
    _share("workload"),
    _count("faults.events_injected", "engine callbacks FaultInjector.install scheduled per rep"),
    _time("faults.install_s", "time inside FaultInjector.install per rep"),
    Metric("sim.makespan_s", "s", "lower", exact=True,
           what="simulated seconds (allreduce_ccoll: summed over the three calls)"),
    Metric("sim.speedup", "x", "higher", exact=True,
           what="simulated allreduce time, compression off over on (the paper claims 1.8-2.7x)"),
    Metric("sim.step_p99_s", "s", "lower", exact=True,
           what="99th percentile simulated collective step over all jobs"),
    Metric("sim.mean_slowdown", "x", "lower", exact=True,
           what="mean simulated makespan over isolated makespan"),
    Metric("sim.goodput", "frac", "higher", exact=True,
           what="retained work over busy span + checkpoint writes"),
    Metric("accuracy.err_over_bound_max", "frac", "lower", exact=True,
           what="max error over its bound (codec: eb; allreduce: (N+1) eb); must be <= 1"),
    Metric("accuracy.compression_ratio", "x", "higher", exact=True,
           what="uncompressed over compressed bytes"),
    Metric("driver.raw_work_per_s", "1/s", "higher",
           what="work per wall-clock second, mean of the fastest fifth of reps, not normalised"),
    Metric("driver.n_reps", "count", "higher", what="untraced timed reps behind the host numbers"),
    _time("driver.rep_s_p50", "median rep"),
    _time("driver.rep_s_p66", "66th percentile rep (30 reps leave 10 samples beyond it)"),
    _time("driver.rep_s_iqr", "interquartile range of the reps"),
    _time("driver.calib_s", "fastest calibration pair (the mean of the runs before and after a rep)"),
    _time("driver.setup_s", "this process's own set-up"),
    Metric("driver.peak_rss_mb", "MB", "lower", what="ru_maxrss before tracing is installed"),
    Metric("driver.traced_reps", "count", "higher", what="reps run under the tracer"),
    Metric("driver.trace_overhead_frac", "frac", "lower", what="traced over untraced rep, minus 1"),
    Metric("driver.span_coverage", "frac", "higher",
           what="sum of span self times over the traced reps' wall time"),
]


def contract() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
