"""Performance-shape tests: the paper's headline relative results.

These tests run the simulated collectives with the default (calibrated)
network and cost models and assert the *relative* outcomes the paper reports —
who wins, in which direction, and roughly by how much.  Absolute times are
model outputs and are never asserted.  Everything goes through the session API.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.datasets import load_field, message_of_size
from repro.perfmodel import default_cost_model, default_network, line_rate_network
from repro.utils.units import MB

N_RANKS = 8
VIRTUAL_MB = 160
MULTIPLIER = 256.0


@pytest.fixture(scope="module")
def rtm_message():
    field = load_field("rtm", seed=3)
    return message_of_size(field, int(VIRTUAL_MB * MB / MULTIPLIER))


@pytest.fixture(scope="module")
def rank_inputs(rtm_message):
    return [rtm_message * np.float32(1 + 1e-6 * r) for r in range(N_RANKS)]


@pytest.fixture(scope="module")
def config():
    return CCollConfig(
        codec="szx",
        error_bound=1e-3,
        size_multiplier=MULTIPLIER,
        cost=default_cost_model(),
    )


def make_comm(config, network=None):
    return Cluster(
        network=network if network is not None else default_network(), config=config
    ).communicator(N_RANKS)


@pytest.fixture(scope="module")
def variant_times(rank_inputs, config):
    """Run the four Table V variants once and cache their outcomes."""
    comm = make_comm(config)
    outcomes = {"AD": comm.allreduce(rank_inputs, algorithm="ring", compression="off")}
    for variant, spelling in (("DI", "di"), ("ND", "nd"), ("Overlap", "on")):
        outcomes[variant] = comm.allreduce(rank_inputs, compression=spelling)
    return outcomes


class TestAllreduceShapes:
    def test_c_allreduce_beats_original(self, variant_times):
        """Figures 10-12: C-Allreduce outperforms MPI_Allreduce by ~1.8-2.5x."""
        speedup = variant_times["AD"].total_time / variant_times["Overlap"].total_time
        assert speedup > 1.5
        assert speedup < 4.0  # sanity: not absurdly fast either

    def test_direct_integration_is_not_faster_than_original(self, variant_times):
        """Figures 7, 10, 11: the CPR-P2P direct integration does not beat the
        original Allreduce (it is typically slower)."""
        assert variant_times["DI"].total_time >= 0.97 * variant_times["AD"].total_time

    def test_stepwise_optimizations_monotonically_improve(self, variant_times):
        """Table V / Figure 10: each optimization step improves on the previous."""
        assert variant_times["ND"].total_time < variant_times["DI"].total_time
        assert variant_times["Overlap"].total_time < variant_times["ND"].total_time

    def test_nd_reduces_allgather_and_comdecom_vs_di(self, variant_times):
        """Figure 8: the data-movement framework cuts both the compression time
        and the allgather-stage time compared with direct integration."""
        di = variant_times["DI"].sim.breakdown_mean()
        nd = variant_times["ND"].sim.breakdown_mean()
        assert nd.get("ComDecom") < 0.85 * di.get("ComDecom")
        assert nd.get("Allgather") < di.get("Allgather")

    def test_overlap_hides_reduce_scatter_wait(self, variant_times):
        """Figure 9: the computation framework removes >= 70% of the
        reduce-scatter Wait time."""
        nd_wait = variant_times["ND"].sim.category_seconds("Wait")
        overlap_wait = variant_times["Overlap"].sim.category_seconds("Wait")
        assert nd_wait > 0
        assert overlap_wait < 0.3 * nd_wait

    def test_original_allreduce_is_communication_bound(self, variant_times):
        """Figure 7 (AD): communication (Allgather + Wait) dominates the original
        ring allreduce for large messages."""
        breakdown = variant_times["AD"].sim.breakdown_mean()
        comm = breakdown.get("Allgather") + breakdown.get("Wait")
        assert comm > 0.6 * breakdown.total

    def test_di_bottleneck_is_compression(self, variant_times):
        """Figure 7 (DI): after direct integration the bottleneck moves to
        compression/decompression."""
        breakdown = variant_times["DI"].sim.breakdown_mean()
        assert breakdown.get("ComDecom") == max(breakdown.as_dict().values())

    def test_compression_reduces_traffic(self, variant_times):
        """The compressed variants move far fewer bytes over the network."""
        assert (
            variant_times["Overlap"].sim.total_bytes_sent
            < 0.4 * variant_times["AD"].sim.total_bytes_sent
        )

    def test_zfp_fxr_baseline_slower_than_szx_baseline(self, rank_inputs, config):
        """Figure 11: among CPR-P2P baselines, SZx is fastest and ZFP(FXR) slowest."""
        szx = make_comm(config).allreduce(rank_inputs, compression="di")
        fxr_config = config.with_updates(codec="zfp_fxr", rate=4.0)
        fxr = make_comm(fxr_config).allreduce(rank_inputs, compression="di")
        assert fxr.total_time > szx.total_time

    def test_line_rate_fabric_removes_the_benefit(self, rank_inputs, config):
        """Ablation: on a fabric delivering the full 12.5 GB/s line rate, CPU
        compression cannot pay for itself and C-Allreduce loses to the original."""
        comm = make_comm(config, network=line_rate_network())
        ad = comm.allreduce(rank_inputs, algorithm="ring", compression="off")
        ccoll = comm.allreduce(rank_inputs, compression="on")
        assert ccoll.total_time > ad.total_time


class TestBcastScatterShapes:
    def test_c_bcast_beats_baseline_and_cpr(self, rtm_message, config):
        """Figure 16: C-Bcast beats MPI_Bcast, while the CPR-P2P SZx baseline loses."""
        comm = make_comm(config)
        baseline = comm.bcast(rtm_message, compression="off")
        c_bcast = comm.bcast(rtm_message, compression="on")
        cpr = comm.bcast(rtm_message, compression="di")
        assert c_bcast.total_time < baseline.total_time / 1.5
        assert cpr.total_time > c_bcast.total_time

    def test_c_scatter_beats_baseline_and_cpr(self, rank_inputs, config):
        """Figure 16: C-Scatter beats MPI_Scatter, while the CPR-P2P baseline loses."""
        comm = make_comm(config)
        baseline = comm.scatter(rank_inputs, compression="off")
        c_scatter = comm.scatter(rank_inputs, compression="on")
        cpr = comm.scatter(rank_inputs, compression="di")
        assert c_scatter.total_time < baseline.total_time / 1.3
        assert cpr.total_time > c_scatter.total_time
