"""Node allocation policies, slot mapping, and the placement view."""

import pytest

from repro.api import Cluster
from repro.workload import NodeAllocator, PlacementView, slots_for


class TestSlotsFor:
    def test_block_mapping_per_node(self):
        assert slots_for((0, 1), ranks_per_node=2, n_ranks=4) == [0, 1, 2, 3]
        assert slots_for((3, 5), ranks_per_node=2, n_ranks=3) == [6, 7, 10]

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            slots_for((0,), ranks_per_node=2, n_ranks=3)


class TestNodeAllocator:
    def test_packed_takes_lowest_free_nodes(self):
        alloc = NodeAllocator(8, "packed", seed=0)
        assert alloc.allocate(3) == (0, 1, 2)
        assert alloc.allocate(2) == (3, 4)

    def test_spread_stripes_across_free_nodes(self):
        alloc = NodeAllocator(8, "spread", seed=0)
        first = alloc.allocate(2)
        assert first is not None
        lo, hi = first
        assert hi - lo >= 3  # strided, not adjacent

    def test_random_is_seeded_and_valid(self):
        a = NodeAllocator(16, "random", seed=5).allocate(6)
        b = NodeAllocator(16, "random", seed=5).allocate(6)
        assert a == b
        assert a is not None and len(set(a)) == 6

    def test_exhaustion_returns_none_and_release_restores(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        nodes = alloc.allocate(3)
        assert alloc.allocate(2) is None  # only 1 node free
        alloc.release(nodes)
        assert alloc.nodes_free == 4
        assert alloc.allocate(4) == (0, 1, 2, 3)

    def test_double_release_rejected(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        nodes = alloc.allocate(2)
        alloc.release(nodes)
        with pytest.raises(RuntimeError, match="released twice"):
            alloc.release(nodes)

    def test_invalid_batch_release_is_atomic(self):
        # regression: release used to free nodes one by one while validating,
        # so a batch with one bad node left the earlier nodes already freed
        alloc = NodeAllocator(8, "packed", seed=0)
        nodes = alloc.allocate(3)
        assert nodes == (0, 1, 2)
        with pytest.raises(ValueError, match="outside"):
            alloc.release([0, 1, 99])
        assert alloc.nodes_free == 5  # nothing freed
        with pytest.raises(RuntimeError, match="released twice"):
            alloc.release([3, 0, 1])  # 3 is already free
        assert alloc.nodes_free == 5
        with pytest.raises(ValueError, match="duplicate"):
            alloc.release([0, 0])
        assert alloc.nodes_free == 5
        alloc.release(nodes)  # the valid batch still releases cleanly
        assert alloc.nodes_free == 8

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            NodeAllocator(4, "diagonal", seed=0)

    def test_quarantine_free_node_leaves_pool(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        alloc.quarantine(0)
        assert alloc.quarantined == (0,)
        assert alloc.nodes_free == 3
        assert alloc.allocate(3) == (1, 2, 3)

    def test_quarantined_busy_node_is_dropped_on_release(self):
        # node-loss fault mid-job: the node must not return to service when
        # the job retires
        alloc = NodeAllocator(4, "packed", seed=0)
        nodes = alloc.allocate(2)
        assert nodes == (0, 1)
        alloc.quarantine(1)
        alloc.release(nodes)
        assert alloc.nodes_free == 3
        assert alloc.allocate(3) == (0, 2, 3)

    def test_quarantine_is_idempotent_and_validated(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        alloc.quarantine(2)
        alloc.quarantine(2)
        assert alloc.quarantined == (2,)
        assert alloc.nodes_free == 3
        with pytest.raises(ValueError, match="outside"):
            alloc.quarantine(4)
        with pytest.raises(ValueError, match="outside"):
            alloc.quarantine(-1)

    def test_unquarantine_restores_a_free_node(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        alloc.quarantine(1)
        assert alloc.nodes_free == 3
        alloc.unquarantine(1)
        assert alloc.quarantined == ()
        assert alloc.nodes_free == 4
        assert alloc.allocate(4) == (0, 1, 2, 3)

    def test_double_heal_raises(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        alloc.quarantine(1)
        alloc.unquarantine(1)
        with pytest.raises(ValueError, match="double heal"):
            alloc.unquarantine(1)
        with pytest.raises(ValueError, match="double heal"):
            alloc.unquarantine(0)  # never quarantined at all

    def test_unquarantine_busy_node_stays_allocated(self):
        # transient loss heals while the killed job's nodes are still being
        # torn down: the node must not re-enter the pool under the old job
        alloc = NodeAllocator(4, "packed", seed=0)
        nodes = alloc.allocate(2)
        alloc.quarantine(1)
        alloc.unquarantine(1)
        assert alloc.quarantined == ()
        assert alloc.nodes_free == 2  # node 1 still held by its job
        alloc.release(nodes)
        assert alloc.nodes_free == 4

    def test_acquire_is_all_or_nothing(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        assert alloc.acquire((1, 2)) is True
        assert alloc.nodes_free == 2
        # overlapping set: 2 is busy, so nothing is taken
        assert alloc.acquire((2, 3)) is False
        assert alloc.nodes_free == 2
        alloc.release((1, 2))
        assert alloc.acquire((2, 3)) is True

    def test_acquire_refuses_quarantined_nodes(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        alloc.quarantine(1)
        assert alloc.acquire((0, 1)) is False
        alloc.unquarantine(1)
        assert alloc.acquire((0, 1)) is True

    def test_acquire_validates_input(self):
        alloc = NodeAllocator(4, "packed", seed=0)
        with pytest.raises(ValueError, match="at least one node"):
            alloc.acquire(())
        with pytest.raises(ValueError, match="outside"):
            alloc.acquire((9,))


class TestPlacementView:
    def test_remaps_local_ranks_to_placed_slots(self):
        topology = Cluster.from_preset("fat_tree", ranks_per_node=2).topology
        view = PlacementView(topology, (4, 5, 10, 11))
        # local ranks 0,1 live on the fabric node of slots 4,5 (node 2) and
        # local ranks 2,3 on the node of slots 10,11 (node 5)
        assert view.node_of(0) == topology.node_of(4) == 2
        assert view.node_of(2) == topology.node_of(10) == 5
        assert view.shares_uplinks == topology.shares_uplinks
        assert view.link(0, 1) == topology.link(4, 5)
        assert view.link(0, 2) == topology.link(4, 10)

    def test_engine_only_methods_raise(self):
        # regression: the view used to inherit the base-class resolve_link
        # default (delegating to link), so a caller executing against the
        # view got flat-fabric timing with no error
        topology = Cluster.from_preset("fat_tree", ranks_per_node=2).topology
        view = PlacementView(topology, (0, 1, 2, 3))
        with pytest.raises(TypeError, match="compile-time only"):
            view.resolve_link(0, 1)

    def test_delegates_fabric_wide_properties(self):
        topology = Cluster.from_preset("fat_tree", ranks_per_node=2, contention="fair").topology
        view = PlacementView(topology, (0, 1))
        assert view.contention == "fair"
        assert view.effective_inter_bandwidth() == topology.effective_inter_bandwidth()
