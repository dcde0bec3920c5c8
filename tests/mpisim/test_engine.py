"""Tests for the discrete-event engine: matching, timing, blocking, breakdowns."""

import gc
import weakref

import numpy as np
import pytest

from repro.mpisim import (
    Barrier,
    Compute,
    DeadlockError,
    InvalidCommandError,
    Irecv,
    Isend,
    NetworkModel,
    RankProgramError,
    Wait,
    Waitall,
    payload_nbytes,
    run_simulation,
)
from repro.mpisim import Test as Poll  # alias: pytest must not collect the command class

NET = NetworkModel(
    latency=0.0, bandwidth=1e6, eager_threshold=100, inflight_window=500, progress="on-poll"
)


class TestPayloadNbytes:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5

    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_unsized_payload_raises_sized_ones_never_did(self):
        """Nothing is pickled to guess a size: an object with neither ``nbytes``
        nor a buffer length is a typed error, from the bare function and —
        naming the rank — from the ``Isend`` handler; ``nbytes=`` sizes it."""
        with pytest.raises(TypeError, match=r"tuple payload .* pass nbytes="):
            payload_nbytes((3, 1415))

        def program(nbytes):
            def run(rank, size):
                if rank == 1:
                    yield Wait((yield Isend(dest=0, data="unsized", nbytes=nbytes)))
                else:
                    return (yield Wait((yield Irecv(source=1))))

            return run

        with pytest.raises(InvalidCommandError, match=r"rank 1: a str payload .* pass nbytes="):
            run_simulation(2, program(None), network=NET)
        sized = run_simulation(2, program(7), network=NET)
        assert sized.rank_values[0] == "unsized"
        assert sized.ranks[1].bytes_sent == 7


class TestComputeOnly:
    def test_single_rank_compute(self):
        def program(rank, size):
            yield Compute(1.5, category="Reduction")
            yield Compute(0.5, category="Others")
            return "done"

        result = run_simulation(1, program, network=NET)
        assert result.total_time == pytest.approx(2.0)
        assert result.rank_values == ["done"]
        assert result.breakdown(0).get("Reduction") == pytest.approx(1.5)
        assert result.breakdown(0).get("Others") == pytest.approx(0.5)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)


class TestPointToPoint:
    def test_simple_send_recv_delivers_data(self):
        payload = np.arange(50, dtype=np.float64)  # 400 bytes -> rendezvous

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=payload)
                yield Wait(req)
                return None
            req = yield Irecv(source=0)
            data = yield Wait(req)
            return data

        result = run_simulation(2, program, network=NET)
        np.testing.assert_array_equal(result.rank_values[1], payload)

    def test_transfer_time_matches_alpha_beta(self):
        nbytes = 200_000

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                yield Wait(req, category="Wait")

        result = run_simulation(2, program, network=NET)
        expected = nbytes / NET.bandwidth
        assert result.total_time == pytest.approx(expected, rel=1e-6)
        assert result.breakdown(1).get("Wait") == pytest.approx(expected, rel=1e-6)

    def test_eager_send_completes_immediately_for_sender(self):
        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=b"x" * 50)  # below eager threshold
                yield Wait(req)
                yield Compute(1.0)
            else:
                yield Compute(5.0)
                req = yield Irecv(source=0)
                yield Wait(req)

        result = run_simulation(2, program, network=NET)
        # sender is not dragged to the receiver's late recv
        assert result.rank_times[0] == pytest.approx(1.0)

    def test_rendezvous_sender_waits_for_receiver(self):
        nbytes = 300_000

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req, category="SendWait")
            else:
                yield Compute(2.0)
                req = yield Irecv(source=0)
                yield Wait(req)

        result = run_simulation(2, program, network=NET)
        expected = 2.0 + nbytes / NET.bandwidth
        assert result.rank_times[0] == pytest.approx(expected, rel=1e-6)
        assert result.breakdown(0).get("SendWait") == pytest.approx(expected, rel=1e-6)

    def test_receiver_blocked_until_late_sender_posts(self):
        nbytes = 100_000

        def program(rank, size):
            if rank == 0:
                yield Compute(3.0)
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                yield Wait(req, category="Wait")

        result = run_simulation(2, program, network=NET)
        expected = 3.0 + nbytes / NET.bandwidth
        assert result.rank_times[1] == pytest.approx(expected, rel=1e-6)

    def test_compute_without_polling_does_not_overlap(self):
        """With rendezvous progress-on-poll semantics, compute placed between
        posting and waiting hides at most the in-flight window."""
        nbytes = 1_000_000
        compute = 0.4

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                yield Compute(compute, category="ComDecom")
                yield Wait(req, category="Wait")

        result = run_simulation(2, program, network=NET)
        wait = result.breakdown(1).get("Wait")
        # only the in-flight window (500 bytes) was hidden
        assert wait == pytest.approx((nbytes - NET.inflight_window) / NET.bandwidth, rel=1e-3)

    def test_compute_with_polling_overlaps_transfer(self):
        """Polling between compute chunks (the PIPE-SZx pattern) lets the
        transfer stream during compression, collapsing the final wait."""
        # in-flight window larger than what arrives between two polls, as on
        # the real interconnect with 5120-element PIPE-SZx chunks
        net = NetworkModel(
            latency=0.0,
            bandwidth=1e6,
            eager_threshold=100,
            inflight_window=50_000,
            progress="on-poll",
        )
        nbytes = 400_000
        chunks = 100
        chunk_time = (nbytes / net.bandwidth) / chunks  # total compute == transfer time

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                for _ in range(chunks):
                    yield Compute(chunk_time, category="ComDecom")
                    yield Poll(req)
                yield Wait(req, category="Wait")

        result = run_simulation(2, program, network=net)
        wait = result.breakdown(1).get("Wait")
        transfer = nbytes / net.bandwidth
        assert wait < 0.15 * transfer

    def test_async_progress_overlaps_without_polling(self):
        async_net = NetworkModel(
            latency=0.0, bandwidth=1e6, eager_threshold=100, inflight_window=500, progress="async"
        )
        nbytes = 1_000_000

        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=None, nbytes=nbytes)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                yield Compute(2.0, category="ComDecom")
                yield Wait(req, category="Wait")

        result = run_simulation(2, program, network=async_net)
        assert result.breakdown(1).get("Wait") == pytest.approx(0.0, abs=1e-9)

    def test_message_order_preserved_same_source_tag(self):
        def program(rank, size):
            if rank == 0:
                r1 = yield Isend(dest=1, data=b"first" + b"0" * 200)
                r2 = yield Isend(dest=1, data=b"second" + b"0" * 200)
                yield Waitall([r1, r2])
            else:
                r1 = yield Irecv(source=0)
                r2 = yield Irecv(source=0)
                first = yield Wait(r1)
                second = yield Wait(r2)
                return (bytes(first[:5]), bytes(second[:6]))

        result = run_simulation(2, program, network=NET)
        assert result.rank_values[1] == (b"first", b"secon"[:5] + b"d")

    def test_tags_disambiguate_messages(self):
        def program(rank, size):
            if rank == 0:
                ra = yield Isend(dest=1, data=b"A" * 200, tag=7)
                rb = yield Isend(dest=1, data=b"B" * 200, tag=9)
                yield Waitall([ra, rb])
            else:
                rb = yield Irecv(source=0, tag=9)
                ra = yield Irecv(source=0, tag=7)
                b = yield Wait(rb)
                a = yield Wait(ra)
                return (bytes(a[:1]), bytes(b[:1]))

        result = run_simulation(2, program, network=NET)
        assert result.rank_values[1] == (b"A", b"B")

    def test_waitall_returns_results_in_order(self):
        def program(rank, size):
            if rank == 0:
                reqs = []
                for dest in (1, 2):
                    reqs.append((yield Isend(dest=dest, data=np.full(100, rank, dtype=np.float64))))
                yield Waitall(reqs)
            else:
                req = yield Irecv(source=0)
                data = yield Wait(req)
                return float(data[0])

        result = run_simulation(3, program, network=NET)
        assert result.rank_values[1] == 0.0
        assert result.rank_values[2] == 0.0


class TestCollectiveBuildingBlocks:
    def test_barrier_synchronises_clocks(self):
        def program(rank, size):
            yield Compute(float(rank))
            yield Barrier(category="Others")
            return None

        result = run_simulation(4, program, network=NET)
        assert result.rank_times == pytest.approx([3.0, 3.0, 3.0, 3.0])

    def test_ring_neighbour_exchange(self):
        """Each rank sends its id to the right neighbour; everyone must end up
        with the left neighbour's id — a miniature of the ring collectives."""
        def program(rank, size):
            left = (rank - 1) % size
            right = (rank + 1) % size
            recv_req = yield Irecv(source=left)
            send_req = yield Isend(dest=right, data=np.array([float(rank)] * 64))
            results = yield Waitall([recv_req, send_req])
            return float(results[0][0])

        result = run_simulation(5, program, network=NET)
        assert result.rank_values == [4.0, 0.0, 1.0, 2.0, 3.0]


class TestErrors:
    def test_deadlock_detected(self):
        def program(rank, size):
            req = yield Irecv(source=(rank + 1) % size)
            yield Wait(req)

        with pytest.raises(DeadlockError, match="never sent"):
            run_simulation(2, program, network=NET)

    def test_deadlock_names_the_unsent_receive(self):
        def program(rank, size):
            if rank == 0:
                yield Wait((yield Irecv(source=1, tag=7)))

        with pytest.raises(DeadlockError) as info:
            run_simulation(2, program, network=NET)
        assert (
            "  rank 0: Wait on receive from rank 1 (tag 7) that was never sent"
            in str(info.value).splitlines()
        )

    def test_deadlock_names_the_lost_fair_flow_and_its_sender(self):
        """A rendezvous send whose fair flow leaves the registry without a
        commit strands both ends; each is diagnosed from the handle it
        blocks on."""
        from repro.mpisim.engine import Engine
        from repro.mpisim.topology import SharedUplinkTopology

        def program(rank, size):
            if rank == 0:
                yield Wait((yield Isend(dest=2, data=None, nbytes=1 << 20)))
            elif rank == 2:
                yield Wait((yield Irecv(source=0)))

        engine = Engine(
            4,
            program,
            network=NetworkModel(contention="fair"),
            topology=SharedUplinkTopology(ranks_per_node=2, contention="fair"),
        )
        registry = engine.fair_registry

        def lose_the_flow(now):
            (flow,) = registry.active_flows()
            registry.cancel_flow(flow, now)

        engine.schedule_event(1e-4, lose_the_flow)
        with pytest.raises(DeadlockError) as info:
            engine.run()
        assert str(info.value).splitlines()[1:3] == [
            "  rank 0: Wait on send to rank 2 that the receiver never completed",
            "  rank 2: Wait on a fair-share flow from rank 0 whose departure was never committed",
        ]

    def test_rank_exception_wrapped(self):
        def program(rank, size):
            yield Compute(1.0)
            raise ValueError("boom")

        with pytest.raises(RankProgramError, match="boom"):
            run_simulation(1, program, network=NET)

    def test_invalid_command_rejected(self):
        def program(rank, size):
            yield "not a command"

        with pytest.raises(InvalidCommandError):
            run_simulation(1, program, network=NET)

    def test_invalid_destination_rejected(self):
        def program(rank, size):
            yield Isend(dest=99, data=b"x")

        with pytest.raises(InvalidCommandError):
            run_simulation(2, program, network=NET)

    def test_wait_on_garbage_rejected(self):
        def program(rank, size):
            yield Wait("nope")

        with pytest.raises(InvalidCommandError):
            run_simulation(1, program, network=NET)

    @pytest.mark.parametrize(
        "complete", [Wait, lambda req: Waitall([req]), Poll], ids=["wait", "waitall", "test"]
    )
    def test_another_ranks_request_rejected(self, complete):
        """A handle shared through a closure must not let rank 1 complete (and
        be handed the payload of) rank 0's receive."""
        shared = []

        def program(rank, size):
            if rank == 0:
                shared.append((yield Irecv(source=1)))
                yield Compute(2.0)
            else:
                yield Compute(1.0)
                yield Isend(dest=0, data=b"p" * 200)
                yield complete(shared[0])

        with pytest.raises(
            InvalidCommandError,
            match=r"rank 1 (waited on|tested) RecvRequest\(rank=0, .* rank 1 of this engine posted",
        ):
            run_simulation(2, program, network=NET)

    def test_request_of_a_different_engine_rejected(self):
        """A stale handle of an earlier simulation is not one of this engine's,
        whatever this engine's own first send looks like."""
        stale = []

        def first(rank, size):
            if rank == 0:
                stale.append((yield Isend(dest=1, data=b"x" * 200)))
                yield Wait(stale[0])
            else:
                yield Wait((yield Irecv(source=0)))

        def second(rank, size):
            if rank == 0:
                yield Isend(dest=1, data=b"y" * 200)
                yield Wait(stale[0])
            else:
                yield Wait((yield Irecv(source=0)))

        run_simulation(2, first, network=NET)
        with pytest.raises(
            InvalidCommandError,
            match=r"rank 0 waited on SendRequest\(rank=0, .* rank 0 of this engine posted",
        ):
            run_simulation(2, second, network=NET)

    def test_command_budget_enforced(self):
        def program(rank, size):
            while True:
                yield Compute(0.0)

        with pytest.raises(RuntimeError, match="max_commands"):
            run_simulation(1, program, network=NET, max_commands=100)


class TestSimulationResult:
    def test_statistics(self):
        def program(rank, size):
            if rank == 0:
                req = yield Isend(dest=1, data=b"q" * 1000)
                yield Wait(req)
            else:
                req = yield Irecv(source=0)
                yield Wait(req)

        result = run_simulation(2, program, network=NET)
        assert result.total_bytes_sent == 1000
        assert result.total_messages == 1
        assert result.n_ranks == 2
        mean = result.breakdown_mean()
        assert mean.total >= 0.0
        assert result.category_seconds("Wait") >= 0.0


class TestEngineHoldsOnlyLiveOperations:
    """The handle is the record: the engine references unmatched postings and
    in-flight messages, and nothing for an operation that finished."""

    @staticmethod
    def _ring(rounds, on_round=lambda rank, step, payload: None):
        def program(rank, size):
            for step in range(rounds):
                payload = np.full(64, float(step))  # 512 B: rendezvous
                on_round(rank, step, payload)
                send = yield Isend(dest=(rank + 1) % size, data=payload, tag=step)
                recv = yield Irecv(source=(rank - 1) % size, tag=step)
                yield Waitall([recv, send])

        return program

    def test_finished_payload_is_freed_while_the_engine_still_runs(self):
        """Reference counting alone (the collector is off) frees round 1's
        payload once both programs overwrote their handles."""
        first = []
        alive_in_round_3 = []

        def on_round(rank, step, payload):
            if rank == 0 and step == 0:
                first.append(weakref.ref(payload))
            if rank == 0 and step == 3:
                alive_in_round_3.append(first[0]() is not None)

        gc.disable()
        try:
            run_simulation(2, self._ring(4, on_round), network=NET)
        finally:
            gc.enable()
        assert alive_in_round_3 == [False]

    def test_match_tables_and_inflight_sets_end_empty(self):
        from repro.mpisim.engine import Engine

        engine = Engine(4, self._ring(3), network=NET)
        engine.run()
        assert engine._unmatched_sends == {}
        assert engine._unmatched_recvs == {}
        assert all(not inflight for inflight in engine._inflight.values())


class TestEngineReuse:
    """An engine is single-use; what simulations reuse is the topology.

    Companion to the topology reset() coverage in test_topology.py: every
    run in the repo (``run_simulation``, the workload engine) builds a fresh
    ``Engine`` on a reused topology object, and constructing it must rewind
    everything the previous engine left there — reservations, scheduled
    fair-share commits, half-registered flows — so stale events never replay.
    """

    @staticmethod
    def _exchange_program(rank, size):
        payload = b"x" * 256
        for step in range(3):
            send = yield Isend(dest=(rank + 1) % size, data=payload, tag=step)
            recv = yield Irecv(source=(rank - 1) % size, tag=step)
            yield Waitall([recv, send])
            yield Compute(1e-6)
        return rank

    def _fair_engine(self, topology=None, **kwargs):
        from repro.mpisim.engine import Engine
        from repro.mpisim.topology import SharedUplinkTopology

        if topology is None:
            topology = SharedUplinkTopology(ranks_per_node=2, contention="fair")
        return Engine(
            8,
            self._exchange_program,
            network=NetworkModel(contention="fair"),
            topology=topology,
            **kwargs,
        )

    def test_second_run_raises(self):
        from repro.mpisim.engine import Engine

        engine = Engine(4, self._exchange_program, network=NET)
        engine.run()
        with pytest.raises(RuntimeError, match="already ran.*new Engine"):
            engine.run()

    def test_second_engine_on_same_topology_is_identical(self):
        from repro.mpisim.engine import Engine
        from repro.mpisim.topology import SharedUplinkTopology

        topology = SharedUplinkTopology(ranks_per_node=2)
        runs = [
            [r.finish_time for r in Engine(4, self._exchange_program, NET, topology=topo).run()]
            for topo in (topology, topology, SharedUplinkTopology(ranks_per_node=2))
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_second_engine_after_fair_run_replays_identically(self):
        """Fair mode schedules commit events in the heap and flows in the
        engine's registry; a second engine on the same topology must see
        neither, or it would replay stale departures."""
        first_engine = self._fair_engine()
        first = [r.finish_time for r in first_engine.run()]
        second_engine = self._fair_engine(first_engine.topology)
        assert second_engine.topology is first_engine.topology
        assert second_engine.fair_registry.pending_count() == 0
        second = [r.finish_time for r in second_engine.run()]
        fresh = [r.finish_time for r in self._fair_engine().run()]
        assert first == second == fresh

    def test_second_engine_after_interrupted_run_sees_no_stale_state(self):
        """A run aborted mid-flight (command budget) leaves half-registered
        fair flows on the topology's stages; the next engine built on it must
        clear them."""
        aborted = self._fair_engine(max_commands=20)
        with pytest.raises(RuntimeError, match="max_commands"):
            aborted.run()
        topology = aborted.topology
        assert aborted.fair_registry.pending_count() > 0
        assert any(stage.flows for stage in topology.stages().values())
        engine = self._fair_engine(topology)
        assert engine.fair_registry.pending_count() == 0
        assert not any(stage.flows for stage in topology.stages().values())
        after_abort = [r.finish_time for r in engine.run()]
        fresh = [r.finish_time for r in self._fair_engine().run()]
        assert after_abort == fresh
