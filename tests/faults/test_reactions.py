"""How the stack reacts to live fault overlays.

The ISSUE's pinned scenarios: the allreduce selector must switch algorithms
*because of* a degraded tier, and the C-Allreduce compression gate must flip
on *because* a degraded tier pushed the effective bandwidth under the codec
break-even — both asserted against exact numbers, not eyeballed.
"""

import pytest

from repro.ccoll.config import CCollConfig
from repro.ccoll.topology_aware import select_inter_compression
from repro.collectives.selection import DEGRADED_TIER_FACTOR, select_algorithm
from repro.perfmodel.presets import fat_tree_topology


class TestSelectorFlip:
    """Degrading the down-tier steers block-placed allreduces to hierarchical."""

    NBYTES = 256 * 1024
    N_RANKS = 16

    def test_pinned_selector_flip_and_restore(self):
        topo = fat_tree_topology(ranks_per_node=2)
        assert topo.fault_degradation() == 1.0
        assert select_algorithm(self.NBYTES, self.N_RANKS, topo) == "rabenseifner"

        topo.set_stage_fault(("ft-down",), factor=0.4)
        # 550 MB/s nominal effective bandwidth -> 220 MB/s: degradation 2.5
        # crosses DEGRADED_TIER_FACTOR, so the selector picks the schedule
        # with the fewest degraded-tier crossings
        assert topo.effective_inter_bandwidth() == pytest.approx(220000000.0)
        assert topo.fault_degradation() == pytest.approx(2.5)
        assert topo.fault_degradation() >= DEGRADED_TIER_FACTOR
        assert select_algorithm(self.NBYTES, self.N_RANKS, topo) == "hierarchical"

        topo.clear_stage_fault(("ft-down",))
        assert topo.fault_degradation() == 1.0
        assert select_algorithm(self.NBYTES, self.N_RANKS, topo) == "rabenseifner"

    def test_mild_degradation_does_not_flip(self):
        topo = fat_tree_topology(ranks_per_node=2)
        topo.set_stage_fault(("ft-down",), factor=0.6)  # degradation ~1.67 < 2.0
        assert topo.fault_degradation() < DEGRADED_TIER_FACTOR
        assert select_algorithm(self.NBYTES, self.N_RANKS, topo) == "rabenseifner"


class TestCompressionGateFlip:
    """A tier degradation pushes the fabric under the codec break-even."""

    def test_pinned_gate_flip(self):
        config = CCollConfig(codec="szx")
        break_even = config.cost.codec_break_even_bandwidth("szx")
        topo = fat_tree_topology(nic_bandwidth=1.0e9)

        # healthy: 1 GB/s beats the szx break-even -> raw wins
        assert topo.effective_inter_bandwidth() == pytest.approx(1.0e9)
        assert 1.0e9 > break_even
        assert select_inter_compression(topo, config) is False

        # the up-tier halves: 500 MB/s is under the break-even -> compress
        topo.set_stage_fault(("ft-up",), factor=0.5)
        assert topo.effective_inter_bandwidth() == pytest.approx(0.5e9)
        assert 0.5e9 < break_even
        assert select_inter_compression(topo, config) is True

        topo.clear_stage_fault(("ft-up",))
        assert select_inter_compression(topo, config) is False


class TestRoutingReactions:
    def test_rail_failure_skips_to_the_surviving_rail(self):
        topo = fat_tree_topology(ranks_per_node=1, nics_per_node=2)
        failed_up = topo.set_stage_fault(("nic-up", 0, 0), failed=True)
        topo.set_stage_fault(("nic-down", 0, 0), failed=True)
        link = topo.resolve_link(0, 5)
        assert link is not None
        stage_ids = {key for key, stage in topo._stages.items() if stage in link.stages}
        assert ("nic-up", 0, 0) not in stage_ids
        assert any(key[:2] == ("nic-up", 0) for key in stage_ids)
        # drain semantics: a failed stage keeps its capacity (in-flight
        # transfers finish at their reserved rates); only routing avoids it
        for stage in failed_up:
            assert stage.capacity == topo.nic_bandwidth

    def test_all_rails_failed_raises(self):
        topo = fat_tree_topology(ranks_per_node=1, nics_per_node=2)
        for rail in range(2):
            topo.set_stage_fault(("nic-up", 0, rail), failed=True)
        with pytest.raises(RuntimeError, match="NIC rail"):
            topo.resolve_link(0, 5)

    def test_failed_tier_excluded_until_no_route_survives(self):
        topo = fat_tree_topology(ranks_per_node=1, routing="adaptive")
        # nodes 0 and 2 sit under different edge switches: every route climbs
        # the up-tier, so failing the whole tier kills all candidates
        topo.set_stage_fault(("ft-up",), failed=True)
        with pytest.raises(RuntimeError, match="no surviving route"):
            topo.resolve_link(0, 2)
        # leaf-local traffic (same edge switch) never climbs: still routable
        assert topo.resolve_link(0, 1) is not None

    def test_route_memo_follows_every_overlay_change(self):
        """Surviving routes and live rails are memoised per overlay set: every
        set and clear is seen by the next send, and a dead end raises on every
        call rather than being remembered."""
        topo = fat_tree_topology(ranks_per_node=1, nics_per_node=2, routing="adaptive")
        healthy = topo.route_of(0, 5)
        core = ("ft-agg-core", 0, 0, 0)
        assert core in healthy
        # an overlay off every 0 -> 5 route keeps the memoised path live
        topo.set_stage_fault(("ft-down", 3), factor=0.5)
        assert topo.route_of(0, 5) == healthy
        topo.set_stage_fault(core, failed=True)
        assert core not in topo.route_of(0, 5)
        topo.clear_stage_fault(core)
        assert topo.route_of(0, 5) == healthy

        def nic_up(link):
            return {
                key
                for key, stage in topo._stages.items()
                if stage in link.stages and key[0] == "nic-up"
            }

        assert nic_up(topo.resolve_link(0, 5)) == {("nic-up", 0, 0)}
        topo.set_stage_fault(("nic-up", 0, 0), failed=True)
        assert nic_up(topo.resolve_link(0, 5)) == {("nic-up", 0, 1)}
        topo.clear_stage_fault(("nic-up", 0, 0))
        assert nic_up(topo.resolve_link(0, 5)) == {("nic-up", 0, 0)}
        topo.set_stage_fault(("nic-up", 0), failed=True)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="NIC rail"):
                topo.resolve_link(0, 5)
        topo.clear_stage_fault(("nic-up", 0))
        topo.set_stage_fault(("ft-up", 0), failed=True)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="no surviving route"):
                topo.route_of(0, 5)
        topo.reset()
        assert topo.route_of(0, 5) == healthy

    def test_adaptive_routing_prefers_the_healthy_core(self):
        # degrade one core-crossing stage; the adaptive chooser must route
        # cross-pod traffic over a candidate avoiding the degraded stage
        topo = fat_tree_topology(ranks_per_node=1, routing="adaptive")
        healthy = topo.resolve_link(0, 5)
        assert healthy is not None
        topo.reset()
        degraded_keys = [
            key
            for key in [("ft-agg-core", 0, 0)]
        ]
        for key in degraded_keys:
            topo.set_stage_fault(key, factor=0.01)
        link = topo.resolve_link(0, 5)
        stage_ids = {key for key, stage in topo._stages.items() if stage in link.stages}
        assert not (stage_ids & set(degraded_keys))

    def test_reset_clears_overlays(self):
        topo = fat_tree_topology(ranks_per_node=2)
        topo.set_stage_fault(("ft-up",), factor=0.25)
        assert topo.fault_degradation() > 1.0
        topo.reset()
        assert topo.active_faults() == {}
        assert topo.fault_degradation() == 1.0
        assert topo.effective_inter_bandwidth() == pytest.approx(550000000.0)
