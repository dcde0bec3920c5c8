"""Edge cases of the allreduce tuning table (``select_algorithm``).

The headline behaviours are covered by the ``topo``/``fabric`` experiments;
these tests pin the corners the table must get right: degenerate communicator
shapes, boundary message sizes, non-block placements, and the
bandwidth-rescaled thresholds on tapered fabrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Cluster
from repro.collectives.selection import (
    ALGORITHM_PLANNERS,
    PLACEMENT_BLOCK,
    PLACEMENT_INTERLEAVED,
    PLACEMENT_IRREGULAR,
    RING_MIN_BYTES,
    SHORT_MESSAGE_BYTES,
    bandwidth_scale,
    classify_placement,
    select_algorithm,
)
from repro.mpisim import (
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    NetworkModel,
    SharedUplinkTopology,
)

NET = NetworkModel(latency=1e-6, bandwidth=1e9, eager_threshold=512)
LARGE = 64 * 1024 * 1024
MEDIUM = 256 * 1024


class TestDegenerateShapes:
    def test_one_or_two_ranks_always_recursive_doubling(self):
        for n_ranks in (1, 2):
            for nbytes in (8, MEDIUM, LARGE):
                assert select_algorithm(nbytes, n_ranks) == "recursive_doubling"

    def test_single_node_never_goes_hierarchical(self):
        """All ranks co-located: there is no inter-node stage to optimise."""
        topo = SharedUplinkTopology(ranks_per_node=8)
        assert select_algorithm(LARGE, 8, topo) == "ring"
        assert select_algorithm(MEDIUM, 8, topo) == "rabenseifner"
        assert select_algorithm(8, 8, topo) == "recursive_doubling"

    def test_one_element_message_is_latency_bound(self):
        for topo in (None, FlatTopology(), SharedUplinkTopology(ranks_per_node=4)):
            assert select_algorithm(8, 16, topo) == "recursive_doubling"

    def test_non_power_of_two_ranks_select_and_run(self):
        """The table and every runner it names handle p != 2^k."""
        for n_ranks in (3, 6, 12):
            algo = select_algorithm(LARGE, n_ranks)
            assert algo in ALGORITHM_PLANNERS
            inputs = [np.full(64, float(rank + 1)) for rank in range(n_ranks)]
            comm = Cluster(network=NET).communicator(n_ranks)
            outcome = comm.allreduce(inputs)
            assert comm.last_algorithm in ALGORITHM_PLANNERS
            expected = np.sum(inputs, axis=0)
            for rank in range(n_ranks):
                np.testing.assert_allclose(outcome.value(rank), expected, rtol=1e-12)


class TestBoundaries:
    def test_short_message_threshold_is_exclusive(self):
        assert select_algorithm(SHORT_MESSAGE_BYTES - 1, 8) == "recursive_doubling"
        assert select_algorithm(SHORT_MESSAGE_BYTES, 8) == "rabenseifner"

    def test_ring_threshold_is_inclusive(self):
        assert select_algorithm(RING_MIN_BYTES - 1, 8) == "rabenseifner"
        assert select_algorithm(RING_MIN_BYTES, 8) == "ring"


class TestPlacements:
    def test_cyclic_placement_falls_back_to_hierarchical(self):
        """Round-robin placement inverts Rabenseifner's intra-node advantage;
        the table must still make the placement-robust hierarchical call."""
        cyclic = SharedUplinkTopology(placement=[0, 1, 2, 3] * 4)
        assert cyclic.max_ranks_per_node(16) == 4
        assert select_algorithm(LARGE, 16, cyclic) == "hierarchical"
        assert select_algorithm(MEDIUM, 16, cyclic) == "hierarchical"
        assert select_algorithm(8, 16, cyclic) == "recursive_doubling"

    def test_block_placement_keeps_rabenseifner(self):
        """A uniform block layout keeps Rabenseifner's largest halving steps
        intra-node, so the selector no longer pessimises it to hierarchical
        (measured 25-35% faster across the rendezvous band)."""
        topo = SharedUplinkTopology(ranks_per_node=4)
        assert classify_placement(topo, 16) == PLACEMENT_BLOCK
        assert select_algorithm(MEDIUM, 16, topo) == "rabenseifner"
        assert select_algorithm(LARGE, 16, topo) == "rabenseifner"

    def test_irregular_node_sizes_route_hierarchical_then_ring(self):
        """Lopsided nodes break the halving alignment: hierarchical owns the
        rendezvous band and the ring (which only crosses nodes at run
        boundaries) takes over at very large sizes — the old table pinned
        hierarchical even where the ring measures faster."""
        lopsided = SharedUplinkTopology(placement=[0, 0, 0, 0, 0, 1, 1, 2])
        assert classify_placement(lopsided, 8) == PLACEMENT_IRREGULAR
        assert select_algorithm(MEDIUM, 8, lopsided) == "hierarchical"
        assert select_algorithm(LARGE, 8, lopsided) == "ring"

    def test_dedicated_links_never_trigger_hierarchical(self):
        """Without contention the flat schedules keep dedicated pairwise
        links busy concurrently, for any placement."""
        topo = HierarchicalTopology(ranks_per_node=4)
        assert select_algorithm(LARGE, 16, topo) == "ring"
        cyclic = HierarchicalTopology(placement=[0, 1, 2, 3] * 4)
        assert select_algorithm(MEDIUM, 16, cyclic) == "rabenseifner"

    def test_partial_last_node(self):
        """Ranks spilling onto a final, underfull node still count as block:
        the halving alignment survives a short tail run."""
        topo = SharedUplinkTopology(ranks_per_node=4)
        assert classify_placement(topo, 6) == PLACEMENT_BLOCK
        assert select_algorithm(LARGE, 6, topo) == "rabenseifner"

    def test_classify_placement_corners(self):
        single = SharedUplinkTopology(ranks_per_node=8)
        assert classify_placement(single, 8) == PLACEMENT_BLOCK
        scattered = SharedUplinkTopology(placement=[0, 0, 1, 1, 0, 1])
        assert classify_placement(scattered, 6) == PLACEMENT_INTERLEAVED
        oversized_tail = SharedUplinkTopology(placement=[0, 0, 1, 1, 1])
        assert classify_placement(oversized_tail, 5) == PLACEMENT_IRREGULAR


class TestBandwidthScaledThresholds:
    def test_scale_is_unity_for_calibrated_and_flat_fabrics(self):
        assert bandwidth_scale(None) == 1.0
        assert bandwidth_scale(FlatTopology()) == 1.0
        assert bandwidth_scale(SharedUplinkTopology(ranks_per_node=4)) == 1.0

    def test_tapered_fabric_halves_thresholds(self):
        tapered = FatTreeTopology(k=4, oversubscription=2.0)
        assert bandwidth_scale(tapered) == pytest.approx(0.5)
        # a message between RING_MIN/2 and RING_MIN flips rabenseifner -> ring
        nbytes = 3 * 1024 * 1024
        assert select_algorithm(nbytes, 16, SharedUplinkTopology(ranks_per_node=1)) == (
            "rabenseifner"
        )
        assert select_algorithm(nbytes, 16, tapered) == "ring"
        # and one between SHORT/2 and SHORT flips doubling -> rabenseifner
        small = 24 * 1024
        assert select_algorithm(small, 16, FatTreeTopology(k=4)) == "recursive_doubling"
        assert select_algorithm(small, 16, tapered) == "rabenseifner"

    def test_faster_fabric_raises_thresholds(self):
        fast = HierarchicalTopology(ranks_per_node=1, inter_bandwidth=5.5e9)
        assert bandwidth_scale(fast) == pytest.approx(10.0)
        assert select_algorithm(RING_MIN_BYTES, 16, fast) == "rabenseifner"
