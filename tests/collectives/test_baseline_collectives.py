"""Correctness tests for the baseline (uncompressed) collective algorithms.

Every collective is checked against the straightforward numpy equivalent
(concatenate / sum / slice), across several rank counts including non-powers
of two, since that is where tree/ring index arithmetic usually breaks.  All
calls go through the session API (``Cluster`` -> ``Communicator``), which is
the public surface since PR 3.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.collectives import CollectiveContext, partition_chunks
from repro.mpisim import NetworkModel

NET = NetworkModel(latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=256 * 1024)
RANK_COUNTS = [2, 3, 4, 5, 8]


def make_inputs(n_ranks, n_elements=600, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n_elements) for _ in range(n_ranks)]


def comm_for(n_ranks, **cluster_kwargs):
    cluster_kwargs.setdefault("network", NET)
    return Cluster(**cluster_kwargs).communicator(n_ranks)


class TestPartitionChunks:
    def test_chunks_cover_vector(self):
        vec = np.arange(103, dtype=np.float64)
        chunks = partition_chunks(vec, 7)
        np.testing.assert_array_equal(np.concatenate(chunks), vec)

    def test_chunks_are_copies(self):
        vec = np.zeros(10)
        chunks = partition_chunks(vec, 2)
        chunks[0][0] = 5.0
        assert vec[0] == 0.0


class TestRingAllgather:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_every_rank_gets_all_blocks(self, n_ranks):
        blocks = make_inputs(n_ranks)
        outcome = comm_for(n_ranks).allgather(blocks)
        for rank in range(n_ranks):
            gathered = outcome.value(rank)
            assert len(gathered) == n_ranks
            for i in range(n_ranks):
                np.testing.assert_array_equal(gathered[i], blocks[i])

    def test_single_rank(self):
        blocks = make_inputs(1)
        outcome = comm_for(1).allgather(blocks)
        np.testing.assert_array_equal(outcome.value(0)[0], blocks[0])

    def test_time_is_positive_and_breakdown_labelled(self):
        blocks = make_inputs(4, n_elements=50_000)
        outcome = comm_for(4).allgather(blocks)
        assert outcome.total_time > 0
        assert outcome.sim.category_seconds("Allgather") > 0


class TestRingReduceScatter:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_each_rank_owns_reduced_chunk(self, n_ranks):
        vectors = make_inputs(n_ranks)
        expected_sum = np.sum(vectors, axis=0)
        expected_chunks = partition_chunks(expected_sum, n_ranks)
        outcome = comm_for(n_ranks).reduce_scatter(vectors)
        for rank in range(n_ranks):
            np.testing.assert_allclose(outcome.value(rank), expected_chunks[rank], rtol=1e-12)

    def test_single_rank(self):
        vectors = make_inputs(1)
        outcome = comm_for(1).reduce_scatter(vectors)
        np.testing.assert_allclose(outcome.value(0), vectors[0])


class TestRingAllreduce:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_result_is_elementwise_sum(self, n_ranks):
        vectors = make_inputs(n_ranks)
        expected = np.sum(vectors, axis=0)
        outcome = comm_for(n_ranks).allreduce(vectors, algorithm="ring")
        for rank in range(n_ranks):
            np.testing.assert_allclose(outcome.value(rank), expected, rtol=1e-12)

    def test_uneven_vector_length(self):
        vectors = make_inputs(4, n_elements=1001)
        expected = np.sum(vectors, axis=0)
        outcome = comm_for(4).allreduce(vectors, algorithm="ring")
        np.testing.assert_allclose(outcome.value(2), expected, rtol=1e-12)

    def test_breakdown_has_paper_categories(self):
        vectors = make_inputs(4, n_elements=100_000)
        outcome = comm_for(4).allreduce(vectors, algorithm="ring")
        mean = outcome.sim.breakdown_mean()
        for category in ("Wait", "Allgather", "Memcpy", "Reduction", "Others"):
            assert mean.get(category) >= 0
        assert mean.get("Allgather") > 0
        assert mean.get("Wait") > 0

    def test_transfers_match_ring_volume(self):
        """Each rank injects 2 (N-1)/N * D bytes into the network."""
        n_ranks, n_elements = 4, 100_000
        vectors = make_inputs(n_ranks, n_elements=n_elements)
        outcome = comm_for(n_ranks).allreduce(vectors, algorithm="ring")
        vector_bytes = vectors[0].nbytes
        expected_per_rank = 2 * (n_ranks - 1) / n_ranks * vector_bytes
        per_rank = outcome.sim.total_bytes_sent / n_ranks
        assert per_rank == pytest.approx(expected_per_rank, rel=0.01)

    def test_size_multiplier_scales_time_not_values(self):
        vectors = make_inputs(4, n_elements=20_000)
        small = comm_for(4).allreduce(vectors, algorithm="ring")
        big = comm_for(4, config=CCollConfig(size_multiplier=64.0)).allreduce(
            vectors, algorithm="ring"
        )
        np.testing.assert_allclose(small.value(0), big.value(0))
        assert big.total_time > 10 * small.total_time

    def test_cluster_context_is_its_config_context(self):
        config = CCollConfig(size_multiplier=16.0)
        context = Cluster(network=NET, config=config).context()
        assert context == config.context()
        assert isinstance(context, CollectiveContext)


class TestBinomialBcast:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    @pytest.mark.parametrize("root", [0, 1])
    def test_every_rank_receives_root_data(self, n_ranks, root):
        if root >= n_ranks:
            pytest.skip("root outside communicator")
        data = np.linspace(0, 1, 700)
        outcome = comm_for(n_ranks).bcast(data, root=root)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(outcome.value(rank), data)

    def test_scales_logarithmically(self):
        """Doubling the rank count adds one binomial round, so the total time
        grows like log2(N) rather than linearly."""
        data = np.zeros(200_000)
        t4 = comm_for(4).bcast(data).total_time
        t16 = comm_for(16).bcast(data).total_time
        assert t16 < 3.0 * t4

    def test_root_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="root"):
            comm_for(4).bcast(np.zeros(8), root=4)


class TestBinomialScatter:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_each_rank_gets_its_block(self, n_ranks):
        blocks = make_inputs(n_ranks)
        outcome = comm_for(n_ranks).scatter(blocks)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(outcome.value(rank), blocks[rank])

    def test_nonzero_root(self):
        n_ranks = 6
        blocks = make_inputs(n_ranks)
        outcome = comm_for(n_ranks).scatter(blocks, root=2)
        for rank in range(n_ranks):
            np.testing.assert_array_equal(outcome.value(rank), blocks[rank])


class TestBinomialGather:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_root_collects_all_blocks(self, n_ranks):
        blocks = make_inputs(n_ranks)
        outcome = comm_for(n_ranks).gather(blocks)
        gathered = outcome.value(0)
        assert len(gathered) == n_ranks
        for i in range(n_ranks):
            np.testing.assert_array_equal(gathered[i], blocks[i])
        for rank in range(1, n_ranks):
            assert outcome.value(rank) is None

    def test_nonzero_root(self):
        blocks = make_inputs(5)
        outcome = comm_for(5).gather(blocks, root=3)
        gathered = outcome.value(3)
        for i in range(5):
            np.testing.assert_array_equal(gathered[i], blocks[i])


class TestBinomialReduce:
    @pytest.mark.parametrize("n_ranks", RANK_COUNTS)
    def test_root_gets_sum(self, n_ranks):
        vectors = make_inputs(n_ranks)
        outcome = comm_for(n_ranks).reduce(vectors)
        np.testing.assert_allclose(outcome.value(0), np.sum(vectors, axis=0), rtol=1e-12)
        for rank in range(1, n_ranks):
            assert outcome.value(rank) is None


class TestPairwiseAlltoall:
    @pytest.mark.parametrize("n_ranks", [2, 3, 5])
    def test_blocks_routed_correctly(self, n_ranks):
        rng = np.random.default_rng(0)
        inputs = [
            [rng.standard_normal(40) + 100 * src + dst for dst in range(n_ranks)]
            for src in range(n_ranks)
        ]
        outcome = comm_for(n_ranks).alltoall(inputs)
        for dst in range(n_ranks):
            received = outcome.value(dst)
            for src in range(n_ranks):
                np.testing.assert_array_equal(received[src], inputs[src][dst])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            comm_for(2).alltoall([[np.zeros(4)]])


class TestBarrier:
    @pytest.mark.parametrize("n_ranks", [1, 2, 7])
    def test_barrier_completes_with_none_values(self, n_ranks):
        outcome = comm_for(n_ranks).barrier()
        assert outcome.values == [None] * n_ranks
        assert outcome.total_time >= 0.0
