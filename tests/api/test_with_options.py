"""Tests for ``Communicator.with_options`` — shallow per-session overrides.

The point of the method is that parameter sweeps (the harness runs many) can
adjust ``error_bound`` / ``size_multiplier`` without rebuilding the session:
the clone shares the bound topology object (and its warmed stage caches).
The fabric's contention discipline is not an option: it is chosen once, when
the topology is built.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.mpisim import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    SharedUplinkTopology,
)
from repro.workload.placement import PlacementView


def inputs_for(n_ranks, n_elems=2048, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n_elems) for _ in range(n_ranks)]


class TestConfigOverrides:
    def test_clone_shares_the_topology_object(self):
        comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(8)
        tweaked = comm.with_options(error_bound=1e-4)
        assert tweaked is not comm
        assert tweaked.cluster.topology is comm.cluster.topology
        assert tweaked.cluster.config.error_bound == 1e-4
        assert comm.cluster.config.error_bound == 1e-3  # original untouched
        assert tweaked.n_ranks == comm.n_ranks

    def test_override_equals_a_freshly_built_session(self):
        """Sweeping through with_options must not change results: values and
        makespans match a session built from scratch with the same settings."""
        base = Cluster.from_preset("shared_uplink", ranks_per_node=4)
        comm = base.communicator(8)
        swept = comm.with_options(error_bound=1e-2, size_multiplier=64.0)
        fresh = Cluster.from_preset(
            "shared_uplink",
            ranks_per_node=4,
            config=base.config.with_updates(error_bound=1e-2, size_multiplier=64.0),
        ).communicator(8)
        inputs = inputs_for(8)
        got = swept.allreduce(inputs, compression="on")
        want = fresh.allreduce(inputs, compression="on")
        assert got.total_time == want.total_time
        for rank in range(8):
            np.testing.assert_array_equal(got.value(rank), want.value(rank))

    def test_unknown_config_field_raises(self):
        comm = Cluster().communicator(4)
        with pytest.raises(TypeError):
            comm.with_options(errorbound=1e-4)  # typo'd field

    def test_compression_is_not_a_session_option(self):
        """A call's ``compression`` argument is the only way to pick a variant."""
        with pytest.raises(TypeError, match="'compression'"):
            Cluster().communicator(4).with_options(compression="on")


class TestContentionIsChosenOnce:
    def test_no_session_or_topology_re_times_a_fabric(self):
        """A fabric's contention discipline is fixed when its topology is built."""
        comm = Cluster.from_preset("fat_tree", nodes=8).communicator(8)
        with pytest.raises(TypeError):
            comm.with_options(contention="fair")
        topologies = (
            FlatTopology,
            HierarchicalTopology,
            SharedUplinkTopology,
            FatTreeTopology,
            DragonflyTopology,
            PlacementView,
        )
        assert [cls.__name__ for cls in topologies if hasattr(cls, "with_contention")] == []

    def test_a_preset_picks_the_discipline_at_construction(self):
        fair = Cluster.from_preset("fat_tree", nodes=8, oversubscription=2.0, contention="fair")
        default = Cluster.from_preset("fat_tree", nodes=8, oversubscription=2.0)
        assert fair.topology.contention == "fair"
        assert default.topology.contention == "reservation"
        assert fair.preset == default.preset == "fat_tree"

    def test_an_unknown_discipline_is_refused_at_construction(self):
        with pytest.raises(ValueError):
            Cluster.from_preset("shared_uplink", ranks_per_node=4, contention="psychic")

    def test_a_clone_keeps_the_fabric_discipline(self):
        comm = Cluster.from_preset(
            "fat_tree", nodes=8, oversubscription=2.0, contention="fair"
        ).communicator(8)
        tweaked = comm.with_options(error_bound=1e-2)
        assert tweaked.cluster.topology is comm.cluster.topology
        assert tweaked.cluster.topology.contention == "fair"
        inputs = inputs_for(8, n_elems=16384)
        want = comm.allreduce(inputs, algorithm="ring").total_time
        assert tweaked.allreduce(inputs, algorithm="ring").total_time == want

    def test_the_discipline_changes_contended_timing_only(self):
        """On a tapered tree a fair build re-times contention; values are the
        same, and a second reservation build reproduces the first exactly."""

        def ring(contention):
            comm = Cluster.from_preset(
                "fat_tree", nodes=16, ranks_per_node=1, oversubscription=2.0,
                contention=contention,
            ).communicator(16)
            return comm.allreduce(inputs_for(16, n_elems=65536), algorithm="ring")

        reservation, fair = ring("reservation"), ring("fair")
        assert ring("reservation").total_time == reservation.total_time
        assert fair.total_time > 0.0
        np.testing.assert_array_equal(fair.value(0), reservation.value(0))
