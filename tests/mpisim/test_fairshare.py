"""Unit and regression tests for the fair-share contention model.

Covers the pieces the property suite does not: registry mechanics and
rate-change callbacks, the contention knob of the topology constructors and
of ``NetworkModel``, and the reset regression — no flow-registry or
rate-callback state may leak across engine reuse of one topology object.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpisim import (
    CONTENTION_FAIR,
    CONTENTION_RESERVATION,
    DragonflyTopology,
    Engine,
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
        stage = SharedLink(capacity=100.0)
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
        stage = SharedLink(capacity=100.0)
        stage.reserve(0.0, 500.0)  # busy until 5.0 (e.g. windowed poll credits)
        registry = FairShareRegistry()
        flow = registry.open_flow([stage], max(1.0, stage.busy_until), 100.0)
        assert flow.start == 5.0
        finish, _ = registry.commit_departure()
        assert finish == pytest.approx(6.0)

    def test_zero_byte_flow_departs_at_its_start(self):
        registry = FairShareRegistry()
        stage = SharedLink(capacity=10.0)
        registry.open_flow([stage], 3.0, 0.0)
        finish, _ = registry.commit_departure()
        assert finish == 3.0

    def test_commit_without_flows_raises(self):
        with pytest.raises(RuntimeError):
            FairShareRegistry().commit_departure()

    def test_cancel_flow_redivides_immediately(self):
        """Cancelling a mid-stream flow hands its bandwidth to survivors now,
        not when the dead flow would have drained (the node-loss fix)."""
        stage = SharedLink(capacity=100.0)
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
        stage = SharedLink(capacity=100.0)
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
        fast = SharedLink(capacity=100.0)
        slow = SharedLink(capacity=25.0)
        registry = FairShareRegistry()
        flow = registry.open_flow([fast, slow], 0.0, 100.0)
        assert flow.rate == 25.0
        finish, _ = registry.commit_departure()
        assert finish == pytest.approx(4.0)
        # each stage booked exactly the wire time the bytes occupied
        assert slow.busy_until == pytest.approx(4.0)
        assert fast.busy_until == pytest.approx(1.0)


def scanned_departure(registry):
    """The earliest departure by a full two-pass scan of the registered flows:
    drained flows by finish time, then streaming flows by their drain time at
    the current clock and rate; ties go to the earliest-registered flow, a
    drained flow winning an exact tie with a streaming one."""
    clock = registry.clock
    best = None
    for flow in registry._flows.values():
        if flow.drained and (best is None or flow.finish_time < best[0]):
            best = (flow.finish_time, flow)
    drain = None
    for flow in registry._flows.values():
        if flow.drained:
            continue
        if flow.remaining <= 0.0:
            t = max(clock, flow.start)
        elif flow.rate > 0.0:
            t = clock + flow.remaining / flow.rate
        else:
            continue
        if drain is None or t < drain[0]:
            drain = (t, flow)
    if drain is not None and (best is None or drain[0] < best[0]):
        best = drain
    return best


#: few distinct values, so sizes, starts and capacities tie exactly and often;
#: the non-dyadic ones make a drain time computed at a stale clock round off
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("open"),
            st.sets(st.integers(0, 3), min_size=1, max_size=3),
            st.sampled_from([0.0, 0.0, 0.3, 2.5]),
            st.sampled_from([0.0, 70.0, 100.0, 100.0, 300.0]),
        ),
        st.tuples(st.just("commit")),
        st.tuples(st.just("cancel"), st.integers(0, 15), st.sampled_from([0.0, 0.5, 1.0])),
        st.tuples(
            st.just("capacity"),
            st.integers(0, 15),
            st.sampled_from([0.0, 1.0]),
            st.sampled_from([30.0, 100.0, 200.0]),
        ),
    ),
    max_size=40,
)


class TestDrainHeapOracle:
    """The registry's heap-kept departure equals a full scan after every event."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, disjoint=st.booleans())
    def test_earliest_departure_matches_a_full_scan(self, ops, disjoint):
        # disjoint: every flow gets a private stage, so no two flows interact
        stages = [SharedLink(capacity=100.0) for _ in range(4)]
        registry = FairShareRegistry()
        opened = []
        for op in ops:
            now = max(0.0, registry.clock)
            if op[0] == "open":
                _, picks, delay, nbytes = op
                if disjoint:
                    stages.append(SharedLink(capacity=100.0))
                    crossed = stages[-1:]
                else:
                    crossed = [stages[i] for i in sorted(picks)]
                opened.append(registry.open_flow(crossed, now + delay, nbytes))
            elif op[0] == "commit":
                if registry.pending_count():
                    registry.commit_departure()
            elif op[0] == "cancel":
                if opened:
                    registry.cancel_flow(opened[op[1] % len(opened)], now + op[2])
            else:
                _, index, delay, capacity = op
                stage = stages[index % len(stages)]
                stage.capacity = capacity
                registry.apply_capacity_change(now + delay, [stage])
            expected = scanned_departure(registry)
            got = registry.earliest_departure()
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == expected[0]
                assert got[1] is expected[1]
        while registry.pending_count():
            expected = scanned_departure(registry)
            got = registry.commit_departure()
            assert got[0] == expected[0] and got[1] is expected[1]


class TestContentionKnob:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedUplinkTopology(ranks_per_node=2, contention="psychic")
        with pytest.raises(ValueError):
            FatTreeTopology(k=4, contention="psychic")
        with pytest.raises(ValueError):
            NetworkModel(contention="psychic")

    def test_describe_mentions_the_discipline(self):
        assert "fair" in FatTreeTopology(k=4, contention=CONTENTION_FAIR).describe()
        assert "reservation" in SharedUplinkTopology(ranks_per_node=2).describe()

    def test_uncontended_topologies_take_no_discipline(self):
        """Nothing to re-time: no stage, no knob, and both disciplines agree."""
        for topo in (FlatTopology(), HierarchicalTopology(ranks_per_node=2)):
            assert topo.contention == CONTENTION_RESERVATION
            assert not topo.shares_uplinks
            assert topo.stages() == {}
        with pytest.raises(TypeError):
            HierarchicalTopology(ranks_per_node=2, contention=CONTENTION_FAIR)

    def test_a_fresh_fabric_holds_no_stage_until_a_link_resolves(self):
        topo = FatTreeTopology(k=4, contention=CONTENTION_FAIR)
        assert topo.contention == CONTENTION_FAIR
        assert not topo.stages()
        link = topo.resolve_link(0, 4)
        assert set(link.stages) == set(topo.stages().values())
        # a second fabric built alike shares its structure, not its stages
        other = FatTreeTopology(k=4, contention=CONTENTION_FAIR)
        assert not set(other.resolve_link(0, 4).stages) & set(link.stages)

    def test_shared_uplink_caches_one_link_per_node(self):
        topo = SharedUplinkTopology(ranks_per_node=2, contention=CONTENTION_FAIR)
        assert not topo.stages()
        link = topo.link(0, 2)
        # both ranks of node 0 leave through the one uplink
        assert topo.link(1, 3) is link
        assert list(topo.stages()) == [("uplink", 0)]
        assert link.stages == (topo.stages()[("uplink", 0)],)
        # reset() clears the stage in place: the cached objects survive
        topo.reset()
        assert topo.link(0, 2) is link
        assert link.stages[0] is topo.stages()[("uplink", 0)]


class TestResetRegression:
    """Satellite: ``reset()`` under the fair model leaks no flow state."""

    def test_fat_tree_reuse_is_leak_free_and_reproducible(self):
        topo = FatTreeTopology(
            k=4, oversubscription=2.0, hop_latency=0.0, contention=CONTENTION_FAIR,
            nic_latency=0.0, nic_bandwidth=1.0e9,
        )
        sizes = [16 * 1024 * 1024, 4 * 1024 * 1024]
        pairs = [(0, 4), (1, 5)]
        engine = Engine(8, pairs_program(sizes, pairs), NET, topology=topo)
        first = [r.finish_time for r in engine.run()]
        # every flow was committed: nothing pending, no stage holds flows
        assert engine.fair_registry.pending_count() == 0
        assert all(not stage.flows for stage in topo._stages.values())
        second = run_simulation(8, pairs_program(sizes, pairs), NET, topology=topo)
        assert second.rank_times == first
        assert all(not stage.flows for stage in topo._stages.values())

    def test_reset_clears_mid_simulation_state(self):
        """Stages a registry abandoned mid-flight (e.g. an aborted run) reset clean."""
        topo = SharedUplinkTopology(
            ranks_per_node=2, inter_latency=0.0, inter_bandwidth=1.0e9,
            contention=CONTENTION_FAIR,
        )
        link = topo.link(0, 2)
        registry = FairShareRegistry()
        (uplink,) = link.stages
        flow = registry.open_flow(link.stages, 0.0, 10_000.0)
        assert registry.pending_count() == 1
        assert uplink.flows
        topo.reset()
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
        nbytes = 8 * 1024 * 1024
        engine = Engine(
            4, pairs_program([nbytes, nbytes], [(0, 2), (1, 3)]), NET, topology=topo
        )
        registry = engine.fair_registry
        original = registry.open_flow

        def spying_open_flow(*args, **kwargs):
            opened.append(original(*args, **kwargs))
            observed.extend((flow.flow_id, flow.rate) for flow in opened)
            return opened[-1]

        registry.open_flow = spying_open_flow  # type: ignore[method-assign]
        engine.run()
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


def _fabric(name, contention):
    if name == "shared_uplink":
        return SharedUplinkTopology(ranks_per_node=3, contention=contention)
    if name == "fat_tree":
        return FatTreeTopology(k=4, oversubscription=2.0, contention=contention)
    return DragonflyTopology(n_groups=2, routers_per_group=2, ranks_per_node=2, contention=contention)


def _asymmetric_allreduce(topology, n_ranks=8):
    """Program factory of the forced-rabenseifner allreduce whose flows are
    asymmetric under an irregular placement — the traffic of
    ``tests/fuzzer/regressions/test_contention_siblings.py``."""
    from repro.api import Cluster

    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal(4096) for _ in range(n_ranks)]
    comm = Cluster(topology=topology).communicator(n_ranks)
    return comm.capture(lambda c: c.allreduce(inputs, algorithm="rabenseifner")).factory


class TestOneOwner:
    """Fair sharing has one owner: the run holds the registry, the topology
    holds one kind of stage, and the engine never swaps the topology."""

    @pytest.mark.parametrize("fabric", ["shared_uplink", "fat_tree", "dragonfly"])
    def test_however_fair_is_asked_for_it_is_the_same_run(self, fabric):
        fair_net = NetworkModel(contention=CONTENTION_FAIR)
        times = {}
        for asked, (built, network) in {
            "topology": (CONTENTION_FAIR, NetworkModel()),
            "network": (CONTENTION_RESERVATION, fair_net),
            "both": (CONTENTION_FAIR, fair_net),
            "neither": (CONTENTION_RESERVATION, NetworkModel()),
        }.items():
            topo = _fabric(fabric, built)
            engine = Engine(8, _asymmetric_allreduce(topo), network=network, topology=topo)
            assert engine.topology is topo
            assert (engine.fair_registry is not None) == (asked != "neither")
            times[asked] = [r.finish_time for r in engine.run()]
            assert topo.contention == built
        assert times["topology"] == times["network"] == times["both"]
        assert times["both"] != times["neither"]  # asymmetric flows tell them apart

    def test_one_stage_class(self):
        import repro.mpisim
        import repro.mpisim.topology

        topo = _fabric("fat_tree", CONTENTION_FAIR)
        Engine(8, _asymmetric_allreduce(topo), topology=topo).run()
        assert {type(stage) for stage in topo.stages().values()} == {SharedLink}
        assert "FairShareLink" not in repro.mpisim.__all__
        assert "FairShareLink" not in repro.mpisim.topology.__all__

    def test_the_registry_dies_with_its_engine(self):
        topo = _fabric("shared_uplink", CONTENTION_FAIR)
        sizes, pairs = [1 << 22, 1 << 20, 1 << 21], [(0, 3), (1, 4), (2, 6)]

        def program(rank, size):
            # every flow is open at once, then the budget runs out
            mine = [(s, d, n) for (s, d), n in zip(pairs, sizes) if rank in (s, d)]
            requests = []
            for s, d, nbytes in mine:
                if rank == s:
                    requests.append((yield Isend(dest=d, data=None, nbytes=nbytes)))
                else:
                    requests.append((yield Irecv(source=s)))
            for request in requests:
                yield Wait(request)

        first = Engine(9, program, NET, topology=topo, max_commands=9)
        with pytest.raises(RuntimeError, match="max_commands"):
            first.run()
        assert first.fair_registry.pending_count() > 0
        assert any(stage.flows for stage in topo.stages().values())
        second = Engine(9, program, NET, topology=topo)
        assert second.fair_registry is not first.fair_registry
        assert second.fair_registry.pending_count() == 0
        assert all(stage.flows == {} for stage in topo.stages().values())
        untouched = Engine(9, program, NET, topology=_fabric("shared_uplink", CONTENTION_FAIR))
        assert [r.finish_time for r in second.run()] == [
            r.finish_time for r in untouched.run()
        ]

    @pytest.mark.parametrize(
        "network", [NetworkModel(), NetworkModel(contention=CONTENTION_FAIR)]
    )
    def test_no_shared_stage_or_no_request_means_no_registry(self, network):
        uncontended = (None, FlatTopology(), HierarchicalTopology(ranks_per_node=2))
        for topo in uncontended:
            assert Engine(4, None, network=network, topology=topo).fair_registry is None
        if network.contention == CONTENTION_RESERVATION:
            for fabric in ("shared_uplink", "fat_tree", "dragonfly"):
                topo = _fabric(fabric, CONTENTION_RESERVATION)
                assert Engine(4, None, network=network, topology=topo).fair_registry is None

    def test_workload_report_says_what_the_run_used(self):
        from repro.api import Cluster
        from repro.workload import CollectiveCall, JobSpec, WorkloadEngine

        specs = [
            JobSpec(
                job_id=f"j{i}", n_ranks=8, arrival=0.0, iterations=2, seed=i,
                calls=(CollectiveCall(op="allreduce", msg_elems=8192),),
            )
            for i in range(2)
        ]

        def report(**kwargs):
            cluster = Cluster.from_preset("fat_tree", nodes=8, ranks_per_node=2, **kwargs)
            return WorkloadEngine(cluster, policy="spread", seed=5).run(specs)

        via_network = report(network=NetworkModel(contention=CONTENTION_FAIR))
        assert via_network.contention == CONTENTION_FAIR
        assert any(record.fair_bytes > 0 for record in via_network.records)
        assert via_network.to_dict() == report(contention=CONTENTION_FAIR).to_dict()
