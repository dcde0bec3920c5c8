"""Component micro-benchmarks: throughput of the discrete-event MPI simulator.

The large-scale figures (128 simulated ranks) execute hundreds of thousands of
engine commands; this benchmark tracks the engine's command-processing rate so
simulator regressions show up independently of the collectives built on top.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.mpisim import (
    Compute,
    Irecv,
    Isend,
    NetworkModel,
    SharedUplinkTopology,
    Waitall,
    run_simulation,
)

NET = NetworkModel(latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=1024**2)
FAIR_NET = NetworkModel(
    latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=1024**2, contention="fair"
)


def ring_exchange_program(rounds, fresh_payloads=False):
    def program(rank, size):
        left = (rank - 1) % size
        right = (rank + 1) % size
        payload = np.zeros(2048)
        for step in range(rounds):
            if fresh_payloads:
                payload = np.zeros(2048)
            recv_req = yield Irecv(source=left, tag=step)
            send_req = yield Isend(dest=right, data=payload, tag=step)
            yield Waitall([recv_req, send_req])
            yield Compute(1e-6, category="Others")
        return rank

    return program


class TestEngineThroughput:
    # 128+ ranks exercise the scheduler hot path: the seed's O(n_ranks) linear
    # scan per command ran 128 ranks ~4x (and 256 ranks ~8x) slower than the
    # ready heap.  4096 ranks on the flat fabric is the event-heap scaling
    # point the perf ledger (1,024-rank rings on shared uplinks) does not cover.
    @pytest.mark.parametrize("ranks, rounds", [(16, 64), (64, 16), (128, 16), (256, 8), (4096, 8)])
    def test_ring_exchange(self, benchmark, ranks, rounds):
        result = benchmark(run_simulation, ranks, ring_exchange_program(rounds), NET)
        assert result.total_time > 0

    # The same ring under max-min fair contention on shared node uplinks, the
    # perf ledger's engine_ring_fair at its own size and at 4x: every engine
    # peek asks the fair-share registry for its next departure, so this is
    # the scaling point for the registry's per-event cost.
    @pytest.mark.parametrize("ranks", [1024, 4096])
    def test_fair_ring_exchange(self, benchmark, ranks):
        topology = SharedUplinkTopology(ranks_per_node=8, contention="fair")
        result = benchmark(
            run_simulation, ranks, ring_exchange_program(8), FAIR_NET, topology=topology
        )
        assert result.rank_values == list(range(ranks))


def compressed_ring_program(rounds):
    """Every round each rank compresses a fresh 64 KiB array, passes the message
    on and sums what the one it received carries (the C-Coll reduce-scatter shape)."""
    config = CCollConfig()
    adapters = config.make_adapters(config.context(), 16)

    def program(rank, size):
        adapter = adapters[rank]
        left = (rank - 1) % size
        right = (rank + 1) % size
        total = np.zeros(8192)
        for step in range(rounds):
            message = adapter.compress(np.sin(np.arange(8192.0) + rank + step))
            recv_req = yield Irecv(source=left, tag=step)
            send_req = yield Isend(dest=right, data=message, nbytes=message.nbytes, tag=step)
            received, _ = yield Waitall([recv_req, send_req])
            total = total + adapter.decompress_shared(received)
        return total

    return program


def traced_peak(n_ranks, program):
    gc.collect()
    tracemalloc.start()
    try:
        run_simulation(n_ranks, program, NET)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEngineRetention:
    def test_traced_peak_does_not_grow_with_rounds(self):
        """A ratio of two runs in one process, so no wall-clock threshold: the
        engine keeps nothing for a finished send or receive, so 256 ranks
        sending a fresh 16 KiB array per round peak at about one round of
        payloads (4 MiB) however many rounds ran — 1.0x from 8 to 32 rounds,
        4.0x (35 -> 140 MiB) while the engine kept a table of every request."""
        short, long = (
            traced_peak(256, ring_exchange_program(rounds, fresh_payloads=True))
            for rounds in (8, 32)
        )
        assert long < 1.25 * short, (short, long)

    def test_a_compressed_message_pins_its_decode_only_while_in_flight(self):
        """The same ratio for compressed messages, each of which carries the 64 KiB
        array it decodes to: freed with the message once sender and receiver let
        go of it, so 16 ranks peak at about one round's worth however many ran."""
        short, long = (traced_peak(16, compressed_ring_program(rounds)) for rounds in (8, 32))
        assert long < 1.25 * short, (short, long)


class TestCollectiveThroughput:
    def test_baseline_allreduce_32_ranks(self, benchmark):
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal(20_000) for _ in range(32)]
        comm = Cluster(network=NET).communicator(32)
        outcome = benchmark(comm.allreduce, inputs, "ring")
        np.testing.assert_allclose(outcome.value(0), np.sum(inputs, axis=0), rtol=1e-10)

