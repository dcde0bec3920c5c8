"""Tests for FaultInjector: heap interleaving, engine effects, determinism."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultSchedule,
    LinkDegrade,
    NodeLoss,
    RailFailure,
    SlowRank,
)
from repro.faults.injector import NODE_LOSS_FACTOR
from repro.mpisim import Barrier, Compute, Irecv, Isend, NetworkModel, Wait
from repro.mpisim.engine import Engine
from repro.perfmodel.presets import fat_tree_topology

NET = NetworkModel(latency=0.0, bandwidth=1e6, eager_threshold=100)


def _compute_barrier_compute(rank, size):
    # the barrier forces a heap round-trip between the two Computes, so a
    # fault firing mid-run affects exactly the second one
    yield Compute(1.0)
    yield Barrier()
    yield Compute(1.0)


def _cross_leaf_exchange(rank, size):
    """Ranks 0 and 2 exchange across edge switches; 1 and 3 idle."""
    if rank == 0:
        req = yield Isend(dest=2, data=b"x", nbytes=5_000_000)
        yield Wait(req)
    elif rank == 2:
        req = yield Irecv(source=0)
        yield Wait(req)
    return None


def _finish_times(engine):
    return tuple(result.finish_time for result in engine.run())


class TestEmptySchedule:
    def test_install_schedules_nothing(self):
        engine = Engine(2, _compute_barrier_compute, network=NET)
        assert FaultInjector(FaultSchedule()).install(engine) == 0
        assert len(engine._events) == 0

    def test_makespan_identical_to_uninjected(self):
        plain = Engine(2, _compute_barrier_compute, network=NET)
        injected = Engine(2, _compute_barrier_compute, network=NET)
        FaultInjector(FaultSchedule()).install(injected)
        assert _finish_times(injected) == _finish_times(plain)


class TestTopologyGuard:
    def test_link_events_need_a_switch_fabric(self):
        engine = Engine(2, _compute_barrier_compute, network=NET)  # flat
        schedule = FaultSchedule(
            events=(LinkDegrade(time=0.0, stage_prefix=("ft-up",), factor=0.5),)
        )
        with pytest.raises(TypeError, match="switch-fabric"):
            FaultInjector(schedule).install(engine)

    def test_slow_rank_fine_on_flat_topology(self):
        engine = Engine(2, _compute_barrier_compute, network=NET)
        schedule = FaultSchedule(events=(SlowRank(time=0.5, rank=0, factor=3.0),))
        assert FaultInjector(schedule).install(engine) == 1


class TestSlowRank:
    def test_slows_exactly_the_post_fault_computes(self):
        healthy = Engine(2, _compute_barrier_compute, network=NET)
        healthy_mk = max(_finish_times(healthy))

        faulted = Engine(2, _compute_barrier_compute, network=NET)
        schedule = FaultSchedule(events=(SlowRank(time=0.5, rank=0, factor=3.0),))
        FaultInjector(schedule).install(faulted)
        # the first Compute (processed at t=0) is untouched; the second runs
        # 3x slower: 1.0 + barrier@1.0 + 3.0 = 4.0 vs the healthy 2.0
        assert max(_finish_times(faulted)) == pytest.approx(healthy_mk + 2.0)

    def test_transient_straggler_recovers(self):
        # recovery lands before the barrier releases, so both Computes run at
        # modelled speed and the makespan matches the healthy run exactly
        engine = Engine(2, _compute_barrier_compute, network=NET)
        schedule = FaultSchedule(
            events=(SlowRank(time=0.2, rank=0, factor=3.0, duration=0.3),)
        )
        assert FaultInjector(schedule).install(engine) == 2
        assert max(_finish_times(engine)) == pytest.approx(2.0)


class TestLinkFaults:
    def _engine(self):
        topo = fat_tree_topology(k=4, ranks_per_node=1)
        return Engine(4, _cross_leaf_exchange, network=NET, topology=topo)

    def test_degraded_tier_slows_the_transfer(self):
        healthy = max(_finish_times(self._engine()))
        faulted_engine = self._engine()
        schedule = FaultSchedule(
            events=(LinkDegrade(time=0.0, stage_prefix=("ft-up",), factor=0.1),)
        )
        FaultInjector(schedule).install(faulted_engine)
        assert max(_finish_times(faulted_engine)) > healthy

    def test_fault_after_traffic_changes_nothing(self):
        healthy = _finish_times(self._engine())
        late_engine = self._engine()
        schedule = FaultSchedule(
            events=(
                LinkDegrade(
                    time=max(healthy) * 10, stage_prefix=("ft-up",), factor=0.1
                ),
            )
        )
        FaultInjector(schedule).install(late_engine)
        assert _finish_times(late_engine) == healthy

    def test_replay_is_bit_identical(self):
        schedule = FaultSchedule(
            events=(
                LinkDegrade(time=0.0, stage_prefix=("ft-down",), factor=0.25,
                            duration=1.0),
                SlowRank(time=0.0, rank=2, factor=2.0),
            )
        )
        runs = []
        for _ in range(2):
            engine = self._engine()
            FaultInjector(schedule).install(engine)
            runs.append(_finish_times(engine))
        assert runs[0] == runs[1]

    def test_install_counts_restore_halves(self):
        engine = self._engine()
        schedule = FaultSchedule(
            events=(
                LinkDegrade(time=0.0, stage_prefix=("ft-up",), factor=0.5,
                            duration=1.0),  # 2 callbacks
                RailFailure(time=0.0, node=0, rail=0, duration=1.0),  # 2
                NodeLoss(time=0.0, node=3),  # 1
            )
        )
        assert FaultInjector(schedule).install(engine) == 5


class TestNodeLoss:
    def test_collapses_nics_and_fires_callback(self):
        topo = fat_tree_topology(k=4, ranks_per_node=1)
        engine = Engine(4, _cross_leaf_exchange, network=NET, topology=topo)
        lost = []
        schedule = FaultSchedule(events=(NodeLoss(time=0.0, node=1),))
        FaultInjector(
            schedule, on_node_loss=lambda node, now: lost.append((node, now))
        ).install(engine)
        engine.run()
        assert lost == [(1, 0.0)]
        assert topo.active_faults()[("nic-up", 1)] == (NODE_LOSS_FACTOR, False)
        assert topo.active_faults()[("nic-down", 1)] == (NODE_LOSS_FACTOR, False)

    def test_run_still_terminates_with_a_lost_participant(self):
        # node 2 hosts the receiving rank: traffic drains at the retransmit
        # trickle instead of deadlocking, so run() completes
        topo = fat_tree_topology(k=4, ranks_per_node=1)
        engine = Engine(4, _cross_leaf_exchange, network=NET, topology=topo)
        schedule = FaultSchedule(events=(NodeLoss(time=0.0, node=2),))
        FaultInjector(schedule).install(engine)
        results = engine.run()
        assert all(result.finish_time >= 0.0 for result in results)
