"""Tests for the topology layer: link resolution, placement, contention."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.hierarchical import node_groups
from repro.mpisim import (
    Compute,
    FlatTopology,
    HierarchicalTopology,
    Irecv,
    Isend,
    LinkModel,
    NetworkModel,
    SharedLink,
    SharedUplinkTopology,
    Wait,
    Waitall,
    run_simulation,
)

NET = NetworkModel()


def send_once_program(src: int, dst: int, nbytes: int):
    """Factory: rank ``src`` sends ``nbytes`` to ``dst``, which waits for it."""
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


class TestPlacement:
    def test_flat_one_rank_per_node(self):
        topo = FlatTopology()
        assert [topo.node_of(r) for r in range(4)] == [0, 1, 2, 3]
        assert topo.link(0, 3) is None
        assert topo.n_nodes(8) == 8
        assert topo.max_ranks_per_node(8) == 1
        assert not topo.shares_uplinks

    def test_block_placement(self):
        topo = HierarchicalTopology(ranks_per_node=4)
        assert [topo.node_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        peers, leaders = node_groups(topo, 8)
        assert peers[5] == [4, 5, 6, 7] and leaders == [0, 4]
        assert topo.same_node(1, 3) and not topo.same_node(3, 4)
        assert topo.max_ranks_per_node(6) == 4

    def test_explicit_placement(self):
        topo = HierarchicalTopology(placement=[0, 1, 0, 1, 2])
        assert topo.node_of(4) == 2
        peers, leaders = node_groups(topo, 5)
        assert leaders == [0, 1, 4]
        assert peers[2] == [0, 2] and peers[3] == [1, 3] and peers[4] == [4]
        with pytest.raises(IndexError):
            topo.node_of(5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HierarchicalTopology(ranks_per_node=0)
        with pytest.raises(ValueError):
            HierarchicalTopology(placement=[0, -1])
        with pytest.raises(ValueError):
            LinkModel(latency=0.0, bandwidth=0.0)

    def test_link_classes(self):
        topo = HierarchicalTopology(ranks_per_node=2)
        intra = topo.link(0, 1)
        inter = topo.link(1, 2)
        assert intra.bandwidth > inter.bandwidth
        assert intra.latency < inter.latency
        assert intra.stages == () and inter.stages == ()


class TestFlatEquivalence:
    def test_flat_topology_is_bit_for_bit_identical(self):
        """A FlatTopology must not perturb any timing relative to no topology."""

        def factory(rounds=6, n=2048):
            def program(rank, size):
                left = (rank - 1) % size
                right = (rank + 1) % size
                payload = np.zeros(n)
                for step in range(rounds):
                    recv_req = yield Irecv(source=left, tag=step)
                    send_req = yield Isend(dest=right, data=payload, tag=step)
                    yield Waitall([recv_req, send_req])
                    yield Compute(1e-6, category="Others")
                return rank

            return program

        base = run_simulation(8, factory(), NET)
        flat = run_simulation(8, factory(), NET, topology=FlatTopology())
        assert flat.total_time == base.total_time
        assert flat.rank_times == base.rank_times


class TestLinkTiming:
    def test_intra_node_transfer_is_faster(self):
        topo = HierarchicalTopology(ranks_per_node=2)
        nbytes = 4 * 1024 * 1024
        intra = run_simulation(4, send_once_program(0, 1, nbytes), NET, topology=topo)
        inter = run_simulation(4, send_once_program(1, 2, nbytes), NET, topology=topo)
        assert intra.total_time < inter.total_time / 10

    def test_inter_node_matches_global_model(self):
        """The preset inter-node link defaults equal the calibrated NetworkModel."""
        nbytes = 4 * 1024 * 1024
        topo = HierarchicalTopology(ranks_per_node=2)
        flat = run_simulation(4, send_once_program(1, 2, nbytes), NET)
        hier = run_simulation(4, send_once_program(1, 2, nbytes), NET, topology=topo)
        assert hier.total_time == pytest.approx(flat.total_time, rel=1e-12)


class TestSharedUplink:
    def _two_flows_program(self, nbytes: int):
        payload = np.zeros(nbytes // 8)

        def program(rank, size):
            # ranks 0 and 1 (node 0) each send to node 1 concurrently
            if rank in (0, 1):
                req = yield Isend(dest=rank + 2, data=payload, tag=0)
                yield Wait(req)
            else:
                req = yield Irecv(source=rank - 2, tag=0)
                yield Wait(req)
            return rank

        return program

    def test_concurrent_egress_splits_uplink(self):
        nbytes = 8 * 1024 * 1024
        dedicated = run_simulation(
            4,
            self._two_flows_program(nbytes),
            NET,
            topology=HierarchicalTopology(ranks_per_node=2),
        )
        shared = run_simulation(
            4,
            self._two_flows_program(nbytes),
            NET,
            topology=SharedUplinkTopology(ranks_per_node=2),
        )
        # two concurrent flows over one uplink take ~2x the dedicated time
        assert shared.total_time > 1.8 * dedicated.total_time
        assert shared.total_time < 2.5 * dedicated.total_time

    def test_single_flow_unaffected_by_sharing(self):
        nbytes = 8 * 1024 * 1024
        dedicated = run_simulation(
            4, send_once_program(0, 2, nbytes), NET, topology=HierarchicalTopology(ranks_per_node=2)
        )
        shared = run_simulation(
            4, send_once_program(0, 2, nbytes), NET, topology=SharedUplinkTopology(ranks_per_node=2)
        )
        assert shared.total_time == pytest.approx(dedicated.total_time, rel=1e-12)

    def test_reset_clears_reservations(self):
        topo = SharedUplinkTopology(ranks_per_node=2)
        nbytes = 8 * 1024 * 1024
        first = run_simulation(4, send_once_program(0, 2, nbytes), NET, topology=topo)
        # reusing the same topology instance must not queue behind the
        # previous simulation's reservations (the engine resets it)
        second = run_simulation(4, send_once_program(0, 2, nbytes), NET, topology=topo)
        assert second.total_time == pytest.approx(first.total_time, rel=1e-12)

    def test_reuse_does_not_grow_link_state(self):
        """Repeated launches reuse the cached uplink objects in place instead
        of discarding and re-growing them every simulation."""
        topo = SharedUplinkTopology(ranks_per_node=2)
        nbytes = 8 * 1024 * 1024
        run_simulation(4, send_once_program(0, 2, nbytes), NET, topology=topo)
        uplink_after_first = topo.link(0, 2)
        (shared_after_first,) = uplink_after_first.stages
        for _ in range(3):
            run_simulation(4, send_once_program(0, 2, nbytes), NET, topology=topo)
        assert topo.link(0, 2) is uplink_after_first
        assert topo.link(0, 2).stages == (shared_after_first,)
        assert dict(topo.stages()) == {("uplink", 0): shared_after_first}

    def test_shared_link_accounting(self):
        link = SharedLink(capacity=100.0)
        finish = link.reserve(1.0, 200.0)
        assert finish == pytest.approx(3.0)
        # a second stream queues behind the first reservation
        assert link.reserve(0.0, 100.0) == pytest.approx(4.0)

