"""Degenerate equivalence: one job on the workload engine == a standalone run.

The anchor of the whole multi-tenant layer: a single job arriving at t=0 on
a packed placement must reproduce the standalone ``Communicator`` simulation
**bit-for-bit** — the same makespan float and bit-identical per-rank values.
Pinned across two fabric presets, every workload operation and both
compression settings; any drift here means slowdown numbers stop being
trustworthy.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.workload import COLLECTIVE_OPS, CollectiveCall, JobSpec, WorkloadEngine, call_inputs


def _standalone(cluster, spec):
    """Run the job's single collective on a dedicated communicator."""
    comm = cluster.communicator(spec.n_ranks)
    (call,) = spec.calls
    inputs = call_inputs(spec, call, 0)
    if call.op == "allreduce":
        return comm.allreduce(inputs, algorithm=call.algorithm, compression=call.compression)
    if call.op == "bcast":
        return comm.bcast(inputs[0], root=0, compression=call.compression)
    return getattr(comm, call.op)(inputs, compression=call.compression)


@pytest.mark.parametrize("compression", ["off", "on"])
@pytest.mark.parametrize("op", COLLECTIVE_OPS)
@pytest.mark.parametrize(
    "preset,contention",
    [
        ("fat_tree", "reservation"),
        ("fat_tree", "fair"),
        ("dragonfly", "fair"),
        ("dragonfly", "reservation"),
    ],
)
def test_single_job_is_bit_identical_to_standalone(preset, contention, op, compression):
    cluster = Cluster.from_preset(preset, ranks_per_node=2, contention=contention)
    spec = JobSpec(
        job_id="solo",
        n_ranks=8,
        arrival=0.0,
        seed=42,
        calls=(CollectiveCall(op=op, msg_elems=4096, compression=compression),),
    )
    outcome = _standalone(cluster, spec)

    engine = WorkloadEngine(cluster, policy="packed", seed=0, record_values=True)
    report = engine.run([spec])
    (record,) = report.records

    assert record.started == 0.0
    assert record.makespan == outcome.total_time  # exact float equality
    assert record.slowdown == 1.0  # the isolated baseline replays identically
    for rank in range(spec.n_ranks):
        got = np.asarray(record.step_values[0][rank])  # allgather: the stacked blocks
        want = np.asarray(outcome.value(rank))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)  # bitwise, not approx


def test_multi_step_job_sums_standalone_steps():
    """Back-to-back steps of one lone job retain per-step standalone timing."""
    cluster = Cluster.from_preset("fat_tree", ranks_per_node=2)
    spec = JobSpec(
        job_id="solo",
        n_ranks=4,
        seed=9,
        iterations=2,
        calls=(CollectiveCall(op="allreduce", msg_elems=1024),),
    )
    comm = cluster.communicator(spec.n_ranks)
    step_times = []
    for step in range(spec.n_steps):
        inputs = call_inputs(spec, spec.calls[0], step)
        step_times.append(comm.allreduce(inputs).total_time)

    engine = WorkloadEngine(cluster, policy="packed", seed=0)
    report = engine.run([spec])
    assert report.records[0].makespan == pytest.approx(sum(step_times), rel=1e-12)
    latencies = report.records[0].step_latencies()
    assert len(latencies) == 2
    # the first step starts with every rank aligned at t=0, so its window is
    # exactly the standalone makespan; later windows absorb inter-step rank
    # skew and can only widen
    assert latencies[0] == pytest.approx(step_times[0], rel=1e-12)
    assert latencies[1] >= step_times[1] * (1.0 - 1e-12)
