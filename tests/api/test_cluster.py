"""Tests for :class:`repro.api.Cluster` — the bound machine description."""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.mpisim import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    NetworkModel,
    SharedUplinkTopology,
)
from repro.perfmodel import CostModel


class TestConstruction:
    def test_defaults(self):
        cluster = Cluster()
        assert cluster.network is None
        assert cluster.topology is None
        assert cluster.config == CCollConfig()

    def test_c_coll_settings_live_in_config(self):
        cost = CostModel()
        cluster = Cluster(config=CCollConfig(cost=cost, size_multiplier=8.0))
        assert cluster.config.cost is cost
        assert cluster.context().size_multiplier == 8.0
        assert "size_multiplier=8" in repr(cluster)

    @pytest.mark.parametrize("shorthand", ["cost", "size_multiplier"])
    def test_no_second_spelling_of_a_config_field(self, shorthand):
        value = CostModel() if shorthand == "cost" else 8.0
        with pytest.raises(TypeError):
            Cluster(**{shorthand: value})
        with pytest.raises(TypeError):
            Cluster.from_preset("fat_tree", **{shorthand: value})
        assert not hasattr(Cluster(), shorthand)

    def test_immutable(self):
        cluster = Cluster()
        with pytest.raises(AttributeError):
            cluster.topology = FlatTopology()

    def test_with_updates(self):
        base = Cluster(config=CCollConfig(size_multiplier=4.0))
        updated = base.with_updates(topology=FlatTopology())
        assert isinstance(updated.topology, FlatTopology)
        assert updated.config.size_multiplier == 4.0
        assert base.topology is None

    def test_with_updates_clears_stale_preset_on_topology_change(self):
        base = Cluster.from_preset("fat_tree")
        swapped = base.with_updates(topology=SharedUplinkTopology(ranks_per_node=4))
        assert swapped.preset is None
        assert "fat_tree" not in repr(swapped)
        # updates that keep the topology keep the preset label
        assert base.with_updates(config=CCollConfig(size_multiplier=2.0)).preset == "fat_tree"


class TestFromPreset:
    def test_known_presets(self):
        assert isinstance(Cluster.from_preset("flat").topology, FlatTopology)
        assert isinstance(
            Cluster.from_preset("two_level", ranks_per_node=2).topology, HierarchicalTopology
        )
        assert isinstance(
            Cluster.from_preset("shared_uplink").topology, SharedUplinkTopology
        )
        assert isinstance(Cluster.from_preset("fat_tree").topology, FatTreeTopology)
        assert isinstance(Cluster.from_preset("dragonfly").topology, DragonflyTopology)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            Cluster.from_preset("torus")

    def test_preset_binds_calibrated_network(self):
        cluster = Cluster.from_preset("flat")
        assert isinstance(cluster.network, NetworkModel)

    def test_fat_tree_nodes_picks_smallest_fitting_arity(self):
        # k=4 holds 16 hosts; 8 nodes fit
        topo8 = Cluster.from_preset("fat_tree", nodes=8).topology
        assert topo8.n_nodes(8) >= 8
        # 17 nodes need k=6 (54 hosts)
        topo17 = Cluster.from_preset("fat_tree", nodes=17).topology
        assert topo17.n_nodes(17) >= 17
        # explicit k wins over nodes
        explicit = Cluster.from_preset("fat_tree", nodes=8, k=6).topology
        assert explicit.k == 6

    def test_dragonfly_nodes_scales_groups(self):
        cluster = Cluster.from_preset("dragonfly", nodes=16)
        comm = cluster.communicator(16)
        out = comm.allreduce([np.ones(64)] * 16, algorithm="ring")
        np.testing.assert_array_equal(out.value(0), np.full(64, 16.0))

    def test_nodes_rejected_for_elastic_presets(self):
        with pytest.raises(ValueError, match="derives its node count"):
            Cluster.from_preset("shared_uplink", nodes=8)

    def test_preset_collectives_run(self):
        comm = Cluster.from_preset("fat_tree", nodes=8, ranks_per_node=1).communicator(8)
        inputs = [np.full(128, float(r)) for r in range(8)]
        out = comm.allreduce(inputs)
        np.testing.assert_array_equal(out.value(0), np.full(128, sum(range(8))))


class TestCommunicatorFactory:
    def test_communicator_binds_cluster(self):
        cluster = Cluster(config=CCollConfig(size_multiplier=2.0))
        comm = cluster.communicator(4)
        assert comm.cluster is cluster
        assert comm.n_ranks == 4
        assert comm.size == 4

    def test_invalid_rank_count_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            Cluster().communicator(0)
