"""Tests for ``Communicator.with_options`` — shallow per-session overrides.

The point of the method is that parameter sweeps (the harness runs many) can
adjust ``error_bound`` / ``size_multiplier`` / compression defaults /
``contention`` without rebuilding the session: the clone shares the bound
topology object (and its warmed stage caches) unless the contention
discipline itself changes.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.mpisim import CONTENTION_FAIR, CONTENTION_RESERVATION


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


class TestCompressionDefault:
    def test_default_compression_applies_to_calls(self):
        comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(8)
        compressed = comm.with_options(compression="on")
        assert compressed.default_compression == "on"
        outcome = compressed.allreduce(inputs_for(8))
        assert compressed.last_compression == "Overlap"
        assert outcome.compression_ratio is not None
        # an explicit argument still wins over the session default
        compressed.allreduce(inputs_for(8), compression="off")
        assert compressed.last_compression == "AD"
        # the original session keeps compressing off by default
        comm.allreduce(inputs_for(8))
        assert comm.last_compression == "AD"

    def test_invalid_compression_rejected_eagerly(self):
        comm = Cluster().communicator(4)
        with pytest.raises(ValueError):
            comm.with_options(compression="psychic")

    def test_explicit_algorithm_overrides_the_session_default(self):
        """A named schedule is an uncompressed run: it must not conflict with
        a compression default set far away via with_options."""
        comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(8)
        compressed = comm.with_options(compression="on")
        outcome = compressed.allreduce(inputs_for(8), algorithm="ring")
        assert compressed.last_compression == "AD"
        assert compressed.last_algorithm == "ring"
        want = comm.allreduce(inputs_for(8), algorithm="ring")
        assert outcome.total_time == want.total_time
        # an *explicit* per-call conflict still errors
        with pytest.raises(ValueError, match="algorithm="):
            compressed.allreduce(inputs_for(8), algorithm="ring", compression="on")


class TestContentionOverride:
    def test_contention_override_swaps_the_stage_discipline(self):
        comm = Cluster.from_preset(
            "fat_tree", nodes=8, oversubscription=2.0
        ).communicator(8)
        fair = comm.with_options(contention=CONTENTION_FAIR)
        assert fair.cluster.topology is not comm.cluster.topology
        assert fair.cluster.topology.contention == CONTENTION_FAIR
        assert comm.cluster.topology.contention == CONTENTION_RESERVATION
        # the preset name survives: only the stage timing discipline changed
        assert fair.cluster.preset == comm.cluster.preset == "fat_tree"
        # round-tripping back to reservation is another cheap clone
        back = fair.with_options(contention=CONTENTION_RESERVATION)
        assert back.cluster.topology.contention == CONTENTION_RESERVATION

    def test_same_contention_is_a_no_op_on_the_topology(self):
        comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(8)
        same = comm.with_options(contention=CONTENTION_RESERVATION)
        assert same.cluster.topology is comm.cluster.topology

    def test_contention_on_flat_cluster_is_harmless(self):
        comm = Cluster().communicator(4)  # no topology bound
        fair = comm.with_options(contention=CONTENTION_FAIR)
        outcome = fair.allreduce(inputs_for(4), algorithm="ring")
        want = comm.allreduce(inputs_for(4), algorithm="ring")
        assert outcome.total_time == want.total_time

    def test_invalid_contention_rejected(self):
        comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(8)
        with pytest.raises(ValueError):
            comm.with_options(contention="psychic")

    def test_fair_override_changes_contended_timing_only(self):
        """On a tapered tree the fair clone re-times contention, while a
        reservation round-trip reproduces the original exactly."""
        comm = Cluster.from_preset(
            "fat_tree", nodes=16, ranks_per_node=1, oversubscription=2.0
        ).communicator(16)
        inputs = inputs_for(16, n_elems=65536)
        res_time = comm.allreduce(inputs, algorithm="ring").total_time
        fair_comm = comm.with_options(contention=CONTENTION_FAIR)
        fair_time = fair_comm.allreduce(inputs, algorithm="ring").total_time
        back_time = (
            fair_comm.with_options(contention=CONTENTION_RESERVATION)
            .allreduce(inputs, algorithm="ring")
            .total_time
        )
        assert back_time == res_time
        # values are identical regardless of the discipline
        np.testing.assert_array_equal(
            fair_comm.allreduce(inputs, algorithm="ring").value(0),
            comm.allreduce(inputs, algorithm="ring").value(0),
        )
        assert fair_time > 0.0
