"""``Communicator.capture``: the plan a call would launch, handed out unlaunched.

For every public collective x applicable compression mode, replaying the
captured plan through ``run_simulation`` must reproduce the direct call bit
for bit — and capturing must never build an engine.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Cluster
from repro.collectives import CollectivePlan
from repro.mpisim import Engine, run_simulation

N_RANKS = 8

CLUSTERS = {
    "flat": lambda: Cluster.from_preset("flat"),
    "fat_tree": lambda: Cluster.from_preset("fat_tree", nodes=4, ranks_per_node=2),
    # co-located ranks on an uplink that outruns the codec: "auto" declines to
    # compress, so the topology-aware route is the plain hierarchical skeleton
    "fast_uplink": lambda: Cluster.from_preset(
        "shared_uplink", ranks_per_node=4, inter_bandwidth=12.5e9
    ),
}


def _vectors(n=512):
    rng = np.random.default_rng(5)
    return [rng.standard_normal(n) for _ in range(N_RANKS)]


VECTORS = _vectors()
MATRIX = [[np.full(16, 10.0 * src + dst) for dst in range(N_RANKS)] for src in range(N_RANKS)]

#: every public collective x the compression modes it accepts
CALLS = {
    **{
        f"allreduce-{mode}": (lambda c, mode=mode: c.allreduce(VECTORS, compression=mode))
        for mode in ("off", "on", "di", "nd", "auto")
    },
    "allreduce-hierarchical": lambda c: c.allreduce(VECTORS, algorithm="hierarchical"),
    **{
        f"allgather-{mode}": (lambda c, mode=mode: c.allgather(VECTORS, compression=mode))
        for mode in ("off", "on", "di", "auto")
    },
    **{
        f"bcast-{mode}": (lambda c, mode=mode: c.bcast(VECTORS[0], root=3, compression=mode))
        for mode in ("off", "on", "di", "auto")
    },
    **{
        f"scatter-{mode}": (lambda c, mode=mode: c.scatter(VECTORS, root=3, compression=mode))
        for mode in ("off", "on", "di", "auto")
    },
    **{
        f"reduce_scatter-{mode}": (
            lambda c, mode=mode: c.reduce_scatter(VECTORS, compression=mode)
        )
        for mode in ("off", "on", "nd", "auto")
    },
    "gather": lambda c: c.gather(VECTORS, root=3),
    "reduce": lambda c: c.reduce(VECTORS, root=3),
    "alltoall": lambda c: c.alltoall(MATRIX),
    "barrier": lambda c: c.barrier(),
}


def _digest(values) -> str:
    h = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, (list, tuple)):
            h.update(b"[")
            for item in value:
                feed(item)
            h.update(b"]")
        elif value is None:
            h.update(b"-")
        else:
            arr = np.ascontiguousarray(value)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())

    feed(values)
    return h.hexdigest()


@pytest.mark.parametrize("preset", CLUSTERS)
@pytest.mark.parametrize("name", CALLS)
def test_captured_plan_replays_the_direct_call_bit_for_bit(preset, name):
    cluster = CLUSTERS[preset]()
    comm = cluster.communicator(N_RANKS)
    direct = CALLS[name](comm)

    plan = comm.capture(CALLS[name])
    assert isinstance(plan, CollectivePlan)
    sim = run_simulation(
        N_RANKS, plan.factory, network=cluster.network, topology=cluster.topology
    )
    replayed = plan.finish(sim)

    assert replayed.total_time == direct.total_time
    assert replayed.sim.rank_times == direct.sim.rank_times
    assert _digest(replayed.values) == _digest(direct.values)
    assert type(replayed) is type(direct)
    for field in ("compression_ratio", "inter_compressed"):
        assert getattr(replayed, field, None) == getattr(direct, field, None)
    if name.startswith("allreduce"):
        assert plan.algorithm == comm.last_algorithm


@pytest.mark.parametrize("preset", CLUSTERS)
def test_capture_never_constructs_an_engine(preset, monkeypatch):
    def no_engine(self, *args, **kwargs):
        raise AssertionError("capture() built an Engine")

    monkeypatch.setattr(Engine, "__init__", no_engine)
    comm = CLUSTERS[preset]().communicator(N_RANKS)
    for call in CALLS.values():
        assert isinstance(comm.capture(call), CollectivePlan)
    # a sibling opened inside the call is still a probe
    swept = comm.capture(lambda c: c.with_options(error_bound=1e-2).allreduce(VECTORS))
    assert isinstance(swept, CollectivePlan)
    # capturing leaves the session's own traces alone
    assert comm.algorithm_trace == [] and comm.compression_trace == []


@pytest.mark.parametrize(
    "call", [lambda c: None, lambda c: (c.barrier(), c.barrier())], ids=["none", "two"]
)
def test_capture_expects_exactly_one_collective(call):
    with pytest.raises(RuntimeError, match="exactly one collective"):
        Cluster().communicator(4).capture(call)
