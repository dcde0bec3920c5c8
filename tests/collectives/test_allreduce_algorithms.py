"""Correctness and selection tests for the allreduce algorithm family.

The Hypothesis properties assert what an allreduce must guarantee regardless
of schedule: every rank ends with the element-wise sum of all per-rank inputs,
for every algorithm, every communicator size (including non-powers of two) and
every vector length.  The golden regression pins the flat-topology ring
makespan to the seed's exact value, so any engine or network change that
perturbs calibrated timings fails loudly.  All runs go through the session API.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.collectives import ALGORITHM_PLANNERS, CollectiveContext, select_algorithm
from repro.collectives.recursive_doubling import (
    fold_to_power_of_two,
    largest_power_of_two_below,
    unfold_from_power_of_two,
)
from repro.collectives.selection import RING_MIN_BYTES, SHORT_MESSAGE_BYTES
from repro.mpisim import (
    FlatTopology,
    HierarchicalTopology,
    SharedUplinkTopology,
    run_simulation,
)

#: the seed's ring-allreduce makespan for 8 ranks x 8192 float64, default
#: network/cost models, rng(0) inputs — must never drift (see the module
#: docstring; recorded from the seed engine before the topology refactor)
GOLDEN_RING_MAKESPAN_8x8192 = 0.0005227897696969699
GOLDEN_RING_BYTES_8x8192 = 917504

ALGORITHMS = tuple(ALGORITHM_PLANNERS)


def _inputs(n_ranks: int, length: int, seed: int):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(length) for _ in range(n_ranks)]


class TestAllreduceSum:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=25, deadline=None)
    @given(
        n_ranks=st.integers(min_value=1, max_value=12),
        length=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_rank_gets_the_global_sum(self, algorithm, n_ranks, length, seed):
        inputs = _inputs(n_ranks, length, seed)
        outcome = Cluster().communicator(n_ranks).allreduce(inputs, algorithm=algorithm)
        expected = np.sum(inputs, axis=0)
        for rank in range(n_ranks):
            np.testing.assert_allclose(
                outcome.value(rank), expected, rtol=1e-10, atol=1e-12
            )

    @settings(max_examples=15, deadline=None)
    @given(
        n_ranks=st.integers(min_value=1, max_value=12),
        ranks_per_node=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_hierarchical_sum_on_multi_rank_nodes(
        self, n_ranks, ranks_per_node, length, seed
    ):
        inputs = _inputs(n_ranks, length, seed)
        cluster = Cluster(topology=HierarchicalTopology(ranks_per_node=ranks_per_node))
        outcome = cluster.communicator(n_ranks).allreduce(inputs, algorithm="hierarchical")
        expected = np.sum(inputs, axis=0)
        for rank in range(n_ranks):
            np.testing.assert_allclose(
                outcome.value(rank), expected, rtol=1e-10, atol=1e-12
            )

    def test_inputs_are_not_mutated(self):
        inputs = _inputs(6, 64, seed=5)
        originals = [arr.copy() for arr in inputs]
        comm = Cluster().communicator(6)
        for algorithm in ALGORITHMS:
            comm.allreduce(inputs, algorithm=algorithm)
            for arr, orig in zip(inputs, originals):
                np.testing.assert_array_equal(arr, orig)


class TestPowerOfTwoFold:
    """The one fold / unfold both log-round allreduces run on odd sizes."""

    @pytest.mark.parametrize("size", range(1, 18))
    def test_fold_maps_ranks_onto_survivors_and_unfold_restores_them(self, size):
        ctx = CollectiveContext()
        pof2 = largest_power_of_two_below(size)
        rem = size - pof2

        def program(rank, _size):
            mine = np.array([float(1 << rank)])
            vec, newrank, real_rank = yield from fold_to_power_of_two(rank, size, mine, ctx, 7)
            survivors = [real_rank(index) for index in range(pof2)]
            vec = yield from unfold_from_power_of_two(rank, size, vec, ctx, 8)
            return float(vec[0]), newrank, survivors

        results = run_simulation(size, program).rank_values
        # MPICH's map: of the first 2*rem ranks the odd ones survive, the rest shift down
        expected_survivors = [2 * i + 1 if i < rem else i + rem for i in range(pof2)]
        for rank, (value, newrank, survivors) in enumerate(results):
            assert survivors == expected_survivors
            if rank < 2 * rem:
                assert newrank == (rank // 2 if rank % 2 else -1)
                # a folded pair holds the pair's sum on both sides after the unfold
                assert value == float((1 << (rank | 1)) + (1 << (rank & ~1)))
            else:
                assert newrank == rank - rem
                assert value == float(1 << rank)
            if newrank != -1:
                assert survivors[newrank] == rank
        assert sorted(r[1] for r in results if r[1] != -1) == list(range(pof2))


class TestGoldenRegression:
    def test_flat_ring_makespan_matches_seed_exactly(self):
        inputs = _inputs(8, 8192, seed=0)
        outcome = Cluster().communicator(8).allreduce(inputs, algorithm="ring")
        assert outcome.total_time == GOLDEN_RING_MAKESPAN_8x8192
        assert outcome.sim.total_bytes_sent == GOLDEN_RING_BYTES_8x8192

    def test_flat_topology_object_matches_seed_exactly(self):
        inputs = _inputs(8, 8192, seed=0)
        comm = Cluster(topology=FlatTopology()).communicator(8)
        outcome = comm.allreduce(inputs, algorithm="ring")
        assert outcome.total_time == GOLDEN_RING_MAKESPAN_8x8192


class TestSelection:
    def test_small_messages_use_recursive_doubling(self):
        assert select_algorithm(1024, 16) == "recursive_doubling"
        assert select_algorithm(SHORT_MESSAGE_BYTES - 1, 64) == "recursive_doubling"

    def test_large_messages_use_ring_or_rabenseifner(self):
        assert select_algorithm(SHORT_MESSAGE_BYTES, 16) == "rabenseifner"
        assert select_algorithm(RING_MIN_BYTES, 16) == "ring"
        assert select_algorithm(512 * 1024 * 1024, 128) == "ring"

    def test_tiny_communicators_use_recursive_doubling(self):
        assert select_algorithm(RING_MIN_BYTES, 2) == "recursive_doubling"

    def test_shared_uplinks_switch_to_hierarchical(self):
        # block placement keeps Rabenseifner (halving steps stay intra-node);
        # an interleaved placement is what forces the hierarchical schedule
        topo = SharedUplinkTopology(ranks_per_node=4)
        assert select_algorithm(RING_MIN_BYTES, 16, topo) == "rabenseifner"
        cyclic = SharedUplinkTopology(placement=[0, 1, 2, 3] * 4)
        assert select_algorithm(RING_MIN_BYTES, 16, cyclic) == "hierarchical"
        # dedicated links keep the flat table
        dedicated = HierarchicalTopology(ranks_per_node=4)
        assert select_algorithm(RING_MIN_BYTES, 16, dedicated) == "ring"
        # one rank per node: nothing to gain from the hierarchy
        solo = SharedUplinkTopology(ranks_per_node=1)
        assert select_algorithm(RING_MIN_BYTES, 16, solo) == "ring"

    def test_communicator_auto_dispatch_consults_the_table(self):
        inputs = _inputs(4, 128, seed=9)
        comm = Cluster().communicator(4)
        outcome = comm.allreduce(inputs)  # algorithm="auto" is the default
        assert comm.last_algorithm == "recursive_doubling"  # 1 KiB message
        assert comm.last_algorithm == select_algorithm(inputs[0].nbytes, 4, None)
        np.testing.assert_allclose(
            outcome.value(0), np.sum(inputs, axis=0), rtol=1e-10
        )

    def test_communicator_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown allreduce algorithm"):
            Cluster().communicator(2).allreduce(_inputs(2, 8, seed=0), algorithm="nope")
