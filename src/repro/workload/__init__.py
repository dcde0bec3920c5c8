"""repro.workload — many jobs, one fabric.

The multi-tenant layer above :mod:`repro.api`: jobs (seeded programs of
collectives bound to node placements) arrive by a seeded Poisson process or
a replayed JSONL trace, share one simulated fabric through a single event
heap, contend in its switch stages under ``contention="fair"``, and report
tenant-level metrics — per-job slowdown vs. isolated runs, p50/p99
collective latency, makespans and per-stage utilization::

    from repro.api import Cluster
    from repro.workload import JobMix, WorkloadEngine

    cluster = Cluster.from_preset("fat_tree", ranks_per_node=2, contention="fair")
    jobs = JobMix(n_jobs=8, arrival_rate=300.0).generate(seed=7)
    report = WorkloadEngine(cluster, policy="packed", seed=7).run(jobs)
    print(report.to_text())

CLI: ``python -m repro.workload run|replay`` (see ``README.md`` in this
package for the architecture and the trace format).
"""

from repro.workload.arrivals import JobMix, TraceFormatError, load_trace, save_trace
from repro.workload.engine import WorkloadEngine
from repro.workload.job import (
    COLLECTIVE_OPS,
    CollectiveCall,
    CompiledJob,
    JobSpec,
    call_inputs,
    compile_job,
)
from repro.workload.metrics import JobRecord, WorkloadReport
from repro.workload.placement import (
    PLACEMENT_POLICIES,
    NodeAllocator,
    PlacementView,
    slots_for,
)
from repro.workload.recovery import FAILURE_POLICY_MODES, AttemptRecord, JobFailed

__all__ = [
    "COLLECTIVE_OPS",
    "FAILURE_POLICY_MODES",
    "PLACEMENT_POLICIES",
    "AttemptRecord",
    "CollectiveCall",
    "CompiledJob",
    "JobFailed",
    "JobMix",
    "JobRecord",
    "JobSpec",
    "NodeAllocator",
    "PlacementView",
    "TraceFormatError",
    "WorkloadEngine",
    "WorkloadReport",
    "call_inputs",
    "compile_job",
    "load_trace",
    "save_trace",
    "slots_for",
]
