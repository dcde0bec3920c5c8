"""Tests for the switch-level fabrics: paths, rails, routing, contention."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import (
    DragonflyTopology,
    FatTreeTopology,
    HierarchicalTopology,
    Irecv,
    Isend,
    NetworkModel,
    SharedLink,
    SharedUplinkTopology,
    Wait,
    reserve_path,
    run_simulation,
)

NET = NetworkModel()


def send_once_program(src: int, dst: int, nbytes: int):
    payload = np.zeros(nbytes // 8)

    def program(rank, size):
        if rank == src:
            req = yield Isend(dest=dst, data=payload, tag=0)
            yield Wait(req)
        elif rank == dst:
            req = yield Irecv(source=src, tag=0)
            yield Wait(req)
        return rank

    return program


def pairs_program(nbytes: int, pairs):
    """Every (src, dst) pair transfers concurrently."""
    payload = np.zeros(nbytes // 8)

    def program(rank, size):
        for s, d in pairs:
            if rank == s:
                req = yield Isend(dest=d, data=payload, tag=0)
                yield Wait(req)
            elif rank == d:
                req = yield Irecv(source=s, tag=0)
                yield Wait(req)
        return rank

    return program


class TestReservePath:
    def test_single_stage_matches_shared_link(self):
        a = SharedLink(capacity=100.0)
        b = SharedLink(capacity=100.0)
        direct = a.reserve(1.0, 200.0)
        chained = reserve_path([b], 1.0, 200.0)
        assert chained == direct == pytest.approx(3.0)

    def test_bottleneck_stage_sets_finish(self):
        fast = SharedLink(capacity=100.0)
        slow = SharedLink(capacity=50.0)
        finish = reserve_path([fast, slow], 0.0, 100.0)
        assert finish == pytest.approx(2.0)  # 100 bytes / 50 B/s
        # each stage is occupied for bytes / its own capacity
        assert fast.busy_until == pytest.approx(1.0)
        assert slow.busy_until == pytest.approx(2.0)

    def test_common_begin_behind_most_backlogged_stage(self):
        a = SharedLink(capacity=100.0)
        b = SharedLink(capacity=100.0)
        a.reserve(0.0, 500.0)  # a busy until 5.0
        finish = reserve_path([a, b], 0.0, 100.0)
        assert finish == pytest.approx(6.0)
        # b does not start before the path can enter stage a
        assert b.busy_until == pytest.approx(6.0)


class TestFatTreeStructure:
    def test_sizes_and_validation(self):
        topo = FatTreeTopology(k=4)
        assert topo.n_fabric_nodes == 16
        with pytest.raises(ValueError):
            FatTreeTopology(k=3)
        with pytest.raises(ValueError):
            FatTreeTopology(k=0)
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, nics_per_node=0)
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, rail_policy="roulette")
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, routing="psychic")
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, oversubscription=0.0)

    def test_node_outside_fabric_rejected(self):
        topo = FatTreeTopology(k=2)  # 2 hosts
        with pytest.raises(ValueError):
            topo.link(0, 5)

    def test_route_shapes(self):
        topo = FatTreeTopology(k=4)
        same_edge = topo.route_of(0, 1)
        assert [key[0] for key in same_edge] == ["nic-up", "nic-down"]
        same_pod = topo.route_of(0, 2)
        assert [key[0] for key in same_pod] == ["nic-up", "ft-up", "ft-down", "nic-down"]
        cross_pod = topo.route_of(0, 6)
        assert [key[0] for key in cross_pod] == [
            "nic-up",
            "ft-up",
            "ft-agg-core",
            "ft-core-agg",
            "ft-down",
            "nic-down",
        ]
        assert topo.route_of(0, 0) == ()

    def test_effective_bandwidth_tapers(self):
        assert FatTreeTopology(k=4).effective_inter_bandwidth() == pytest.approx(
            NET.bandwidth, rel=1e-9
        )
        tapered = FatTreeTopology(k=4, oversubscription=2.0)
        assert tapered.effective_inter_bandwidth() == pytest.approx(
            tapered.nic_bandwidth / 2.0, rel=1e-9
        )
        assert tapered.oversubscription_ratio == 2.0
        assert tapered.shares_uplinks


class TestFatTreeTiming:
    def test_single_flow_matches_shared_uplink(self):
        """A lone flow on a 1:1 tree must time exactly like the uplink model."""
        nbytes = 8 * 1024 * 1024
        tree = run_simulation(
            8,
            send_once_program(0, 6, nbytes),
            NET,
            topology=FatTreeTopology(k=4, hop_latency=0.0),
        )
        uplink = run_simulation(
            8,
            send_once_program(0, 6, nbytes),
            NET,
            topology=SharedUplinkTopology(ranks_per_node=1),
        )
        assert tree.total_time == pytest.approx(uplink.total_time, rel=1e-12)

    def test_disjoint_pairs_contend_on_shared_stage(self):
        """The behaviour SharedUplinkTopology cannot express: 0->4 and 1->5
        share no endpoint, but their minimal routes overlap on switch stages."""
        nbytes = 8 * 1024 * 1024
        topo = FatTreeTopology(k=4, hop_latency=0.0)
        r04 = set(topo.route_of(0, 4)[1:-1])
        r15 = set(topo.route_of(1, 5)[1:-1])
        assert r04 & r15, "ECMP must map both flows onto a common stage here"
        tree = run_simulation(8, pairs_program(nbytes, [(0, 4), (1, 5)]), NET, topology=topo)
        uplink = run_simulation(
            8,
            pairs_program(nbytes, [(0, 4), (1, 5)]),
            NET,
            topology=SharedUplinkTopology(ranks_per_node=1),
        )
        assert tree.total_time > 1.8 * uplink.total_time

    def test_oversubscription_slows_inter_switch_flows(self):
        nbytes = 8 * 1024 * 1024
        flat = run_simulation(
            8, send_once_program(0, 6, nbytes), NET, topology=FatTreeTopology(k=4)
        )
        tapered = run_simulation(
            8,
            send_once_program(0, 6, nbytes),
            NET,
            topology=FatTreeTopology(k=4, oversubscription=2.0),
        )
        same_edge = run_simulation(
            8,
            send_once_program(0, 1, nbytes),
            NET,
            topology=FatTreeTopology(k=4, oversubscription=2.0),
        )
        assert tapered.total_time > 1.8 * flat.total_time
        # the taper lives in the switch tier: same-edge flows only cross NICs
        assert same_edge.total_time < 1.1 * flat.total_time

    def test_adaptive_routing_spreads_disjoint_pairs(self):
        """Minimal ECMP can collide two flows; adaptive routing must not be
        slower, and with the colliding hash here it is strictly faster."""
        nbytes = 8 * 1024 * 1024
        minimal_topo = FatTreeTopology(k=4, hop_latency=0.0)
        pairs = [(0, 4), (1, 5)]
        minimal = run_simulation(8, pairs_program(nbytes, pairs), NET, topology=minimal_topo)
        adaptive = run_simulation(
            8,
            pairs_program(nbytes, pairs),
            NET,
            topology=FatTreeTopology(k=4, hop_latency=0.0, routing="adaptive"),
        )
        assert adaptive.total_time < minimal.total_time / 1.5

    def test_reuse_across_simulations_is_reproducible(self):
        """Repeated launches on one topology object: same times, no state
        growth (the engine resets stages in place)."""
        topo = FatTreeTopology(k=4, routing="adaptive", nics_per_node=2, rail_policy="stripe")
        nbytes = 4 * 1024 * 1024
        first = run_simulation(8, pairs_program(nbytes, [(0, 4), (1, 5)]), NET, topology=topo)
        stages_after_first = len(topo.stages())
        second = run_simulation(8, pairs_program(nbytes, [(0, 4), (1, 5)]), NET, topology=topo)
        assert second.total_time == pytest.approx(first.total_time, rel=1e-12)
        assert len(topo.stages()) == stages_after_first


class TestMultiNic:
    def test_stripe_rails_double_concurrent_egress(self):
        """Two concurrent flows leaving one node: one rail serialises them,
        two striped rails carry them in parallel."""
        nbytes = 8 * 1024 * 1024
        pairs = [(0, 2), (1, 3)]  # both sources on node 0, same-pod targets
        one_rail = run_simulation(
            8,
            pairs_program(nbytes, pairs),
            NET,
            topology=FatTreeTopology(
                k=4, ranks_per_node=2, hop_latency=0.0, routing="adaptive"
            ),
        )
        two_rails = run_simulation(
            8,
            pairs_program(nbytes, pairs),
            NET,
            topology=FatTreeTopology(
                k=4,
                ranks_per_node=2,
                nics_per_node=2,
                rail_policy="stripe",
                routing="adaptive",
                hop_latency=0.0,
            ),
        )
        assert two_rails.total_time < one_rail.total_time / 1.5

    def test_hash_rail_is_deterministic(self):
        topo = FatTreeTopology(k=4, nics_per_node=4)
        first = [topo.route_of(src, dst) for src in range(4) for dst in range(4, 8)]
        second = [topo.route_of(src, dst) for src in range(4) for dst in range(4, 8)]
        assert first == second
        rails = {route[0][2] for route in first if route}
        assert len(rails) > 1, "hashing must actually spread rails"

    def test_stripe_counter_resets_with_simulation(self):
        topo = FatTreeTopology(k=4, nics_per_node=2, rail_policy="stripe")
        links = [topo.resolve_link(0, 4), topo.resolve_link(0, 5), topo.resolve_link(0, 6)]
        rails_before = [link.stages[0] for link in links]
        assert rails_before[0] is not rails_before[1]  # round robin
        assert rails_before[0] is rails_before[2]
        topo.reset()
        assert topo.resolve_link(0, 4).stages[0] is rails_before[0]


class TestDragonfly:
    def test_sizes_and_validation(self):
        topo = DragonflyTopology(n_groups=3, routers_per_group=2, nodes_per_router=2)
        assert topo.n_fabric_nodes == 12
        with pytest.raises(ValueError):
            DragonflyTopology(n_groups=0)

    def test_route_shapes(self):
        topo = DragonflyTopology(n_groups=4, routers_per_group=2, nodes_per_router=2)
        # same router (nodes 0,1 share router 0): NICs only
        assert [k[0] for k in topo.route_of(0, 1)] == ["nic-up", "nic-down"]
        # same group, different router: one local hop
        assert [k[0] for k in topo.route_of(0, 2)] == ["nic-up", "df-local", "nic-down"]
        # cross-group: at most local -> global -> local
        kinds = [k[0] for k in topo.route_of(0, 9)]
        assert kinds[0] == "nic-up" and kinds[-1] == "nic-down"
        assert "df-global" in kinds

    def test_global_link_contention_and_adaptive_detour(self):
        """Two flows between the same group pair saturate the single global
        link; Valiant detours through a third group relieve it."""
        nbytes = 8 * 1024 * 1024
        pairs = [(0, 4), (1, 5)]
        kwargs = dict(
            n_groups=4, routers_per_group=2, nodes_per_router=1, hop_latency=0.0
        )
        minimal = run_simulation(
            8, pairs_program(nbytes, pairs), NET, topology=DragonflyTopology(**kwargs)
        )
        adaptive = run_simulation(
            8,
            pairs_program(nbytes, pairs),
            NET,
            topology=DragonflyTopology(routing="adaptive", **kwargs),
        )
        single = run_simulation(
            8, pairs_program(nbytes, [(0, 4)]), NET, topology=DragonflyTopology(**kwargs)
        )
        assert minimal.total_time > 1.8 * single.total_time
        assert adaptive.total_time < minimal.total_time / 1.5

    def test_effective_bandwidth_is_global_bottleneck(self):
        topo = DragonflyTopology(oversubscription=2.0)
        assert topo.effective_inter_bandwidth() == pytest.approx(
            topo.nic_bandwidth / 2.0, rel=1e-9
        )


class TestIntraNode:
    def test_intra_node_stays_dedicated(self):
        nbytes = 4 * 1024 * 1024
        topo = FatTreeTopology(k=4, ranks_per_node=2)
        intra = run_simulation(4, send_once_program(0, 1, nbytes), NET, topology=topo)
        hier = run_simulation(
            4,
            send_once_program(0, 1, nbytes),
            NET,
            topology=HierarchicalTopology(ranks_per_node=2),
        )
        assert intra.total_time == pytest.approx(hier.total_time, rel=1e-12)
