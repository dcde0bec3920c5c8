"""Unit and regression tests for the fair-share contention model.

Covers the pieces the property suite does not: registry mechanics and
rate-change callbacks, ``with_contention`` cloning, the ``NetworkModel``
contention knob, and the reset regression — no flow-registry or
rate-callback state may leak across engine reuse of one topology object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpisim import (
    CONTENTION_FAIR,
    CONTENTION_RESERVATION,
    Engine,
    FairShareLink,
    FairShareRegistry,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    Irecv,
    Isend,
    NetworkModel,
    SharedLink,
    SharedUplinkTopology,
    Wait,
    run_simulation,
)

NET = NetworkModel(latency=0.0, bandwidth=1.0e9, eager_threshold=0)


def pairs_program(sizes, pairs):
    """Each (src, dst) pair moves its own message; everyone else idles."""

    def program(rank, size):
        for (s, d), nbytes in zip(pairs, sizes):
            payload = np.zeros(max(1, nbytes // 8))
            if rank == s:
                req = yield Isend(dest=d, data=payload, tag=0, nbytes=nbytes)
                yield Wait(req)
            elif rank == d:
                req = yield Irecv(source=s, tag=0)
                yield Wait(req)
        return rank

    return program


class TestRegistryMechanics:
    def test_rates_redivide_on_arrival_and_departure(self):
        stage = FairShareLink(capacity=100.0)
        registry = FairShareRegistry()
        first = registry.open_flow([stage], 0.0, 1000.0)
        assert first.rate == 100.0
        registry.open_flow([stage], 2.0, 100.0)
        # the arrival halved the first flow's rate at t=2
        assert first.rate == 50.0
        finish, flow = registry.commit_departure()
        # small flow: 100 bytes at 50 B/s from t=2
        assert flow.nbytes == 100.0
        assert finish == pytest.approx(4.0)
        # the departure restored the survivor to full capacity
        assert first.rate == 100.0
        final, survivor = registry.commit_departure()
        assert survivor is first
        # 1000 bytes: 200 at full rate, 100 shared, rest at full rate again
        assert final == pytest.approx(0.0 + 2.0 + 2.0 + 7.0)

    def test_flow_queues_behind_stage_backlog(self):
        """A flow entering a stage with reserved wire time starts after it."""
        stage = FairShareLink(capacity=100.0)
        stage.reserve(0.0, 500.0)  # busy until 5.0 (e.g. windowed poll credits)
        registry = FairShareRegistry()
        flow = registry.open_flow([stage], max(1.0, stage.busy_until), 100.0)
        assert flow.start == 5.0
        finish, _ = registry.commit_departure()
        assert finish == pytest.approx(6.0)

    def test_zero_byte_flow_departs_at_its_start(self):
        registry = FairShareRegistry()
        stage = FairShareLink(capacity=10.0)
        registry.open_flow([stage], 3.0, 0.0)
        finish, _ = registry.commit_departure()
        assert finish == 3.0

    def test_commit_without_flows_raises(self):
        with pytest.raises(RuntimeError):
            FairShareRegistry().commit_departure()

    def test_cancel_flow_redivides_immediately(self):
        """Cancelling a mid-stream flow hands its bandwidth to survivors now,
        not when the dead flow would have drained (the node-loss fix)."""
        stage = FairShareLink(capacity=100.0)
        registry = FairShareRegistry()
        survivor = registry.open_flow([stage], 0.0, 1000.0)
        doomed = registry.open_flow([stage], 0.0, 1000.0)
        assert survivor.rate == 50.0
        assert registry.cancel_flow(doomed, 2.0) is True
        # the survivor jumped back to full capacity at the cancel time
        assert survivor.rate == 100.0
        assert doomed.drained and doomed.rate == 0.0
        # 100 shared bytes by t=2, the remaining 900 at full rate
        finish, flow = registry.commit_departure()
        assert flow is survivor
        assert finish == pytest.approx(2.0 + 9.0)
        # the cancelled flow never reserved wire time for undelivered bytes
        assert stage.flows == {}

    def test_cancel_flow_is_idempotent_and_handles_drained(self):
        stage = FairShareLink(capacity=100.0)
        registry = FairShareRegistry()
        flow = registry.open_flow([stage], 0.0, 100.0)
        assert registry.cancel_flow(flow, 0.5) is True
        assert registry.cancel_flow(flow, 0.6) is False  # already gone
        # a flow that drained while settling: cancel discards the pending
        # departure commit and reports False
        done = registry.open_flow([stage], 0.0, 100.0)
        assert registry.cancel_flow(done, 10.0) is False
        assert registry.earliest_departure() is None

    def test_multi_stage_bottleneck_sets_the_rate(self):
        fast = FairShareLink(capacity=100.0)
        slow = FairShareLink(capacity=25.0)
        registry = FairShareRegistry()
        flow = registry.open_flow([fast, slow], 0.0, 100.0)
        assert flow.rate == 25.0
        finish, _ = registry.commit_departure()
        assert finish == pytest.approx(4.0)
        # each stage booked exactly the wire time the bytes occupied
        assert slow.busy_until == pytest.approx(4.0)
        assert fast.busy_until == pytest.approx(1.0)


class TestContentionKnob:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedUplinkTopology(ranks_per_node=2, contention="psychic")
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, contention="psychic")
        with pytest.raises(ValueError):
            NetworkModel(contention="psychic")
        with pytest.raises(ValueError):
            FlatTopology().with_contention("psychic")

    def test_with_contention_returns_self_when_unchanged(self):
        topo = FatTreeTopology(k=4)
        assert topo.with_contention(CONTENTION_RESERVATION) is topo
        fair = FatTreeTopology(k=4, contention=CONTENTION_FAIR)
        assert fair.with_contention(CONTENTION_FAIR) is fair
        # uncontended topologies have nothing to re-time
        flat = FlatTopology()
        assert flat.with_contention(CONTENTION_FAIR) is flat
        hier = HierarchicalTopology(ranks_per_node=2)
        assert hier.with_contention(CONTENTION_FAIR) is hier

    def test_with_contention_clones_with_fresh_stage_state(self):
        topo = FatTreeTopology(k=4)
        topo.resolve_link(0, 4)  # warm a stage
        fair = topo.with_contention(CONTENTION_FAIR)
        assert fair is not topo
        assert fair.contention == CONTENTION_FAIR
        assert isinstance(fair.fair_registry, FairShareRegistry)
        assert topo.fair_registry is None
        # structure is shared, stage state is not
        assert fair.k == topo.k and fair.routing == topo.routing
        assert not fair.stages()
        link = fair.resolve_link(0, 4)
        assert all(isinstance(s, FairShareLink) for s in link.stages)
        assert link.fair is fair.fair_registry
        # the original keeps plain SharedLink stages
        res_link = topo.resolve_link(0, 4)
        assert all(type(s) is SharedLink for s in res_link.stages)
        assert res_link.fair is None

    def test_shared_uplink_with_contention_clones(self):
        topo = SharedUplinkTopology(ranks_per_node=2)
        fair = topo.with_contention(CONTENTION_FAIR)
        assert fair is not topo and fair.contention == CONTENTION_FAIR
        link = fair.link(0, 2)
        assert isinstance(link.stages[0], FairShareLink)
        assert link.fair is fair.fair_registry

    def test_with_contention_is_memoized_both_ways(self):
        """Repeated upgrades reuse one clone (stage caches survive), and the
        round trip returns the original object."""
        topo = FatTreeTopology(k=4)
        fair = topo.with_contention(CONTENTION_FAIR)
        assert topo.with_contention(CONTENTION_FAIR) is fair
        assert fair.with_contention(CONTENTION_RESERVATION) is topo
        # the engine's NetworkModel-driven upgrade therefore reuses it too
        net = NetworkModel(
            latency=0.0, bandwidth=1.0e9, eager_threshold=0, contention=CONTENTION_FAIR
        )
        engine = Engine(8, pairs_program([1024], [(0, 4)]), network=net, topology=topo)
        assert engine.topology is fair
        again = Engine(8, pairs_program([1024], [(0, 4)]), network=net, topology=topo)
        assert again.topology is fair

    def test_network_model_contention_upgrades_default_topology(self):
        """contention='fair' threaded through NetworkModel alone is honoured."""
        net = NetworkModel(
            latency=0.0, bandwidth=1.0e9, eager_threshold=0, contention=CONTENTION_FAIR
        )
        topo = SharedUplinkTopology(
            ranks_per_node=2, inter_latency=0.0, inter_bandwidth=1.0e9
        )
        engine = Engine(4, pairs_program([1024], [(0, 2)]), network=net, topology=topo)
        assert engine.topology is not topo
        assert engine.topology.contention == CONTENTION_FAIR
        # the caller's topology object is untouched
        assert topo.contention == CONTENTION_RESERVATION
        # an explicitly fair topology is used as-is
        fair = topo.with_contention(CONTENTION_FAIR)
        engine2 = Engine(4, pairs_program([1024], [(0, 2)]), network=net, topology=fair)
        assert engine2.topology is fair

    def test_describe_mentions_the_discipline(self):
        assert "fair" in FatTreeTopology(k=4, contention=CONTENTION_FAIR).describe()
        assert "reservation" in SharedUplinkTopology(ranks_per_node=2).describe()


class TestResetRegression:
    """Satellite: ``reset()`` under the fair model leaks no flow state."""

    def test_fat_tree_reuse_is_leak_free_and_reproducible(self):
        topo = FatTreeTopology(
            k=4, oversubscription=2.0, hop_latency=0.0, contention=CONTENTION_FAIR,
            nic_latency=0.0, nic_bandwidth=1.0e9,
        )
        sizes = [16 * 1024 * 1024, 4 * 1024 * 1024]
        pairs = [(0, 4), (1, 5)]
        first = run_simulation(8, pairs_program(sizes, pairs), NET, topology=topo)
        registry = topo.fair_registry
        # every flow was committed: nothing pending, no stage holds flows
        assert registry.pending_count() == 0
        assert all(not stage.flows for stage in topo._stages.values())
        second = run_simulation(8, pairs_program(sizes, pairs), NET, topology=topo)
        assert second.rank_times == first.rank_times
        assert registry.pending_count() == 0

    def test_reset_clears_mid_simulation_state(self):
        """A registry abandoned mid-flight (e.g. an aborted run) resets clean."""
        topo = SharedUplinkTopology(
            ranks_per_node=2, inter_latency=0.0, inter_bandwidth=1.0e9,
            contention=CONTENTION_FAIR,
        )
        link = topo.link(0, 2)
        registry = topo.fair_registry
        (uplink,) = link.stages
        flow = registry.open_flow(link.stages, 0.0, 10_000.0)
        assert registry.pending_count() == 1
        assert uplink.flows
        topo.reset()
        assert registry.pending_count() == 0
        assert not uplink.flows
        assert uplink.busy_until == float("-inf")
        # the stale flow handle is detached: committing it again is impossible
        assert flow.flow_id not in uplink.flows
        # and a fresh run on the reused topology behaves like a fresh topology
        reused = run_simulation(4, pairs_program([8192], [(0, 2)]), NET, topology=topo)
        fresh_topo = SharedUplinkTopology(
            ranks_per_node=2, inter_latency=0.0, inter_bandwidth=1.0e9,
            contention=CONTENTION_FAIR,
        )
        fresh = run_simulation(4, pairs_program([8192], [(0, 2)]), NET, topology=fresh_topo)
        assert reused.rank_times == fresh.rank_times


class TestEngineIntegration:
    def test_second_arrival_halves_both_rates_mid_flight(self):
        """The second flow's arrival is visible as a rate drop on the first."""
        opened = []
        observed = []

        class SpyTopology(SharedUplinkTopology):
            pass

        topo = SpyTopology(
            ranks_per_node=2, inter_latency=0.0, inter_bandwidth=1.0e9,
            contention=CONTENTION_FAIR,
        )
        registry = topo.fair_registry
        original = registry.open_flow

        def spying_open_flow(*args, **kwargs):
            opened.append(original(*args, **kwargs))
            observed.extend((flow.flow_id, flow.rate) for flow in opened)
            return opened[-1]

        registry.open_flow = spying_open_flow  # type: ignore[method-assign]
        nbytes = 8 * 1024 * 1024
        run_simulation(
            4, pairs_program([nbytes, nbytes], [(0, 2), (1, 3)]), NET, topology=topo
        )
        # both flows shared the uplink: each saw the halved rate at some point
        halved = {fid for fid, rate in observed if rate == 0.5e9}
        assert len(halved) == 2

    def test_fair_flat_topology_is_a_no_op(self):
        """No shared stages -> fair and reservation are the same simulation."""
        res = run_simulation(
            4, pairs_program([1 << 20], [(0, 1)]), NET, topology=FlatTopology()
        )
        fair_net = NetworkModel(
            latency=0.0, bandwidth=1.0e9, eager_threshold=0, contention=CONTENTION_FAIR
        )
        fair = run_simulation(
            4, pairs_program([1 << 20], [(0, 1)]), fair_net, topology=FlatTopology()
        )
        assert fair.rank_times == res.rank_times
