"""The facade launches exactly what ``run_simulation`` would run directly."""

from __future__ import annotations

import numpy as np

from repro.api import Cluster
from repro.collectives import CollectiveContext, ring_allreduce_program
from repro.mpisim import NetworkModel, run_simulation

NET = NetworkModel(latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=256 * 1024)


def test_facade_is_bit_for_bit_run_simulation():
    """Same values, per-rank times and traffic as the hand-built simulation."""
    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal(1024) for _ in range(6)]
    ctx = CollectiveContext()

    def factory(rank, size):
        return ring_allreduce_program(rank, size, inputs[rank], ctx)

    direct = run_simulation(6, factory, network=NET)
    facade = Cluster(network=NET).communicator(6).allreduce(inputs, algorithm="ring").sim
    assert facade.total_time == direct.total_time
    assert facade.total_bytes_sent == direct.total_bytes_sent
    assert facade.rank_times == direct.rank_times
    for a, b in zip(facade.rank_values, direct.rank_values):
        np.testing.assert_array_equal(a, b)
