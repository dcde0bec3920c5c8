"""Jobs on a shared engine: idle slots, bind_job, job-local addressing, scheduled events, job barriers."""

import gc
import weakref

import numpy as np
import pytest

from repro.mpisim import (
    Barrier,
    Compute,
    InvalidCommandError,
    Irecv,
    Isend,
    NetworkModel,
    RunawayProgramError,
    Wait,
)
from repro.mpisim.engine import Engine, EngineJob

NET = NetworkModel(
    latency=0.0, bandwidth=1e6, eager_threshold=100, inflight_window=500, progress="on-poll"
)


def _ping(payload=None, tag=0, nbytes=None):
    """Programs of a two-rank job: rank 0 sends one message to rank 1.

    A payload that does not size itself (a ``str``) needs ``nbytes``.
    """

    def sender(rank, n_ranks):
        handle = yield Isend(1, data=payload, tag=tag, nbytes=nbytes)
        yield Wait(handle)
        return "sent"

    def receiver(rank, n_ranks):
        handle = yield Irecv(0, tag=tag)
        return (yield Wait(handle))

    return sender, receiver


class TestScheduledEvents:
    def test_events_fire_in_time_order_with_payloads(self):
        engine = Engine(2, None, network=NET)
        fired = []
        engine.schedule_event(2.0, lambda now: fired.append(("b", now)))
        engine.schedule_event(1.0, lambda now: fired.append(("a", now)))
        engine.run()
        assert fired == [("a", 1.0), ("b", 2.0)]

    def test_event_precedes_rank_steps_at_equal_timestamp(self):
        engine = Engine(2, None, network=NET)
        order = []

        def compute(rank, n_ranks):
            yield Compute(0.0)
            order.append("rank")
            return None

        engine.schedule_event(
            1.0,
            lambda now: (
                order.append("event"),
                engine.bind_job(now, {0: lambda: compute(0, 1)}),
            ),
        )
        engine.run()
        assert order == ["event", "rank"]


class TestBindJob:
    def test_idle_engine_with_no_jobs_completes_immediately(self):
        results = Engine(4, None, network=NET).run()
        assert [r.finish_time for r in results] == [0.0] * 4
        assert [r.value for r in results] == [None] * 4

    def test_job_runs_on_bound_slots_and_retires(self):
        engine = Engine(4, None, network=NET)
        sender, receiver = _ping(payload=np.zeros(50))
        retired = []
        engine.schedule_event(
            0.5,
            lambda now: engine.bind_job(
                now,
                {0: lambda: sender(0, 2), 2: lambda: receiver(1, 2)},
                tag="jobA",
                on_retire=retired.append,
            ),
        )
        engine.run()
        assert len(retired) == 1
        job = retired[0]
        assert isinstance(job, EngineJob)
        assert job.tag == "jobA"
        assert job.slots == (0, 2)
        assert job.started == 0.5
        assert job.retired and job.finished >= 0.5
        assert job.makespan == job.finished - 0.5
        assert job.results[0] == "sent"
        assert np.array_equal(job.results[2], np.zeros(50))
        assert job.bytes_sent == 400
        assert job.messages_sent >= 1

    def test_two_jobs_account_bytes_separately(self):
        engine = Engine(4, None, network=NET)
        jobs = {}

        def bind(now, tag, src, dst, elems):
            sender, receiver = _ping(payload=np.zeros(elems))
            jobs[tag] = engine.bind_job(
                now, {src: lambda: sender(0, 2), dst: lambda: receiver(1, 2)}, tag=tag
            )

        engine.schedule_event(0.0, lambda now: bind(now, "small", 0, 1, 10))
        engine.schedule_event(0.0, lambda now: bind(now, "large", 2, 3, 1000))
        engine.run()
        assert jobs["small"].bytes_sent == 80
        assert jobs["large"].bytes_sent == 8000

    def test_binding_a_busy_slot_is_rejected(self):
        engine = Engine(2, None, network=NET)

        def forever(rank, n_ranks):
            yield Compute(100.0)
            return None

        def rebind(now):
            with pytest.raises(RuntimeError, match="not idle"):
                engine.bind_job(now, {0: lambda: forever(0, 1)})

        engine.schedule_event(0.0, lambda now: engine.bind_job(now, {0: lambda: forever(0, 1)}))
        engine.schedule_event(1.0, rebind)
        engine.run()

    def test_slot_becomes_reusable_after_retirement(self):
        engine = Engine(1, None, network=NET)
        finishes = []

        def compute(rank, n_ranks):
            yield Compute(1.0)
            return None

        def bind(now):
            engine.bind_job(
                now,
                {0: lambda: compute(0, 1)},
                on_retire=lambda job: finishes.append(job.finished),
            )

        engine.schedule_event(0.0, bind)
        engine.schedule_event(5.0, bind)
        engine.run()
        assert finishes == [1.0, 6.0]


class TestJobLocalAddressing:
    def test_same_local_rank_reaches_each_jobs_own_slot(self):
        """Two jobs that both "send to rank 1" deliver to their own slot."""
        engine = Engine(4, None, network=NET)
        low_send, low_recv = _ping(payload="low", nbytes=3)
        high_send, high_recv = _ping(payload="high", nbytes=4)
        jobs = []
        engine.schedule_event(
            0.0,
            lambda now: jobs.extend(
                [
                    engine.bind_job(
                        now, {0: lambda: low_send(0, 2), 1: lambda: low_recv(1, 2)}, tag="low"
                    ),
                    engine.bind_job(
                        now, {2: lambda: high_send(0, 2), 3: lambda: high_recv(1, 2)}, tag="high"
                    ),
                ]
            ),
        )
        engine.run()
        low, high = jobs
        assert low.results == {0: "sent", 1: "low"}
        assert high.results == {2: "sent", 3: "high"}

    def test_rank_order_is_the_order_of_the_programs(self):
        """Rank r of a job is the r-th bound slot, whatever the slot ids are."""
        engine = Engine(4, None, network=NET)
        sender, receiver = _ping(payload="x", nbytes=1)
        jobs = []
        engine.schedule_event(
            0.0,
            lambda now: jobs.append(
                engine.bind_job(now, {3: lambda: sender(0, 2), 1: lambda: receiver(1, 2)})
            ),
        )
        engine.run()
        assert jobs[0].slots == (3, 1)
        assert jobs[0].results == {3: "sent", 1: "x"}

    @pytest.mark.parametrize(
        "command", [Isend(2), Irecv(2), Isend(-1)], ids=["dest", "source", "negative"]
    )
    def test_rank_outside_the_job_is_rejected(self, command):
        """Slot 2 exists on the engine, but a two-rank job has no rank 2."""
        engine = Engine(4, None, network=NET)
        sender, receiver = _ping(payload="ok", nbytes=2)
        jobs = []

        def stray(rank, n_ranks):
            yield Compute(10.0)
            yield command
            return None

        def idle(rank, n_ranks):
            yield Compute(20.0)
            return None

        engine.schedule_event(
            0.0,
            lambda now: jobs.extend(
                [
                    engine.bind_job(
                        now, {0: lambda: sender(0, 2), 1: lambda: receiver(1, 2)}, tag="good"
                    ),
                    engine.bind_job(
                        now, {2: lambda: stray(0, 2), 3: lambda: idle(1, 2)}, tag="stray"
                    ),
                ]
            ),
        )
        with pytest.raises(InvalidCommandError, match="invalid"):
            engine.run()
        good, stray_job = jobs
        assert good.retired
        assert good.results == {0: "sent", 1: "ok"}
        assert not stray_job.retired


class TestJobBarriers:
    def test_barrier_spans_the_job_and_nothing_else(self):
        """A job's Barrier releases on its own ranks alone: slots 0 and 4
        stay idle and slot 2 is busy without ever entering a barrier."""
        engine = Engine(5, None, network=NET)

        def fast(rank, n_ranks):
            yield Compute(1.0 + rank)
            yield Barrier()
            return "fast"

        def slow(rank, n_ranks):
            yield Compute(50.0)
            return "slow"

        retired = []
        engine.schedule_event(
            0.0,
            lambda now: (
                engine.bind_job(
                    now,
                    {1: lambda: fast(0, 2), 3: lambda: fast(1, 2)},
                    tag="pair",
                    on_retire=retired.append,
                ),
                engine.bind_job(now, {2: lambda: slow(0, 1)}, tag="solo"),
            ),
        )
        engine.run()
        pair = next(job for job in retired if job.tag == "pair")
        assert pair.finish_times == {1: 2.0, 3: 2.0}  # the pair's max, not 50


class TestKillJob:
    def _exchange(self, nbytes=4000):
        """A slow two-slot exchange (big payload over the 1 MB/s network)."""
        payload = np.zeros(max(1, nbytes // 8))

        def sender(rank, n_ranks):
            handle = yield Isend(1, data=payload, tag=0)
            yield Wait(handle)
            return "sent"

        def receiver(rank, n_ranks):
            handle = yield Irecv(0, tag=0)
            yield Wait(handle)
            return "received"

        return sender, receiver

    def test_kill_mid_transfer_frees_slots_for_rebinding(self):
        engine = Engine(2, None, network=NET)
        sender, receiver = self._exchange(nbytes=400_000)  # ~0.4s on the wire
        handles = []
        retired = []
        finishes = []

        def bind_first(now):
            handles.append(
                engine.bind_job(
                    now,
                    {0: lambda: sender(0, 2), 1: lambda: receiver(1, 2)},
                    tag="victim",
                    on_retire=retired.append,
                )
            )

        def compute(rank, n_ranks):
            yield Compute(1.0)
            return None

        engine.schedule_event(0.0, bind_first)
        engine.schedule_event(0.1, lambda now: engine.kill_job(handles[0], now))
        # the killed job's slots are idle again: a new job binds onto them
        engine.schedule_event(
            0.2,
            lambda now: engine.bind_job(
                now,
                {0: lambda: compute(0, 1)},
                tag="next",
                on_retire=lambda job: finishes.append(job.finished),
            ),
        )
        engine.run()
        job = handles[0]
        assert job.killed == 0.1
        assert not job.retired
        assert retired == []  # a kill is not a completion
        # slot clocks never rewind: the cancelled rendezvous had already
        # committed wire time to 0.4, so the next job starts there, not 0.2
        assert finishes == [1.4]

    def test_kill_drops_every_message_of_the_job_and_spares_the_survivor(self):
        """In flight, sent but unmatched, received but unmatched: after the
        kill the engine references none of the victim's operations, and the
        other job's in-flight transfer finishes when it would have alone."""
        payloads = []

        def victim_sender(rank, n_ranks):
            in_flight, unmatched = np.zeros(50_000), np.ones(50_000)
            payloads.extend(weakref.ref(p) for p in (in_flight, unmatched))
            yield Isend(1, data=unmatched, tag=9)
            yield Wait((yield Isend(1, data=in_flight, tag=0)))

        def victim_receiver(rank, n_ranks):
            yield Irecv(0, tag=5)
            yield Wait((yield Irecv(0, tag=0)))

        def survivor_sender(rank, n_ranks):
            yield Wait((yield Isend(1, data=None, nbytes=400_000)))

        def survivor_receiver(rank, n_ranks):
            handle = yield Irecv(0)
            yield Compute(0.2)  # matched, not yet waited on, when the kill lands
            yield Wait(handle)

        def survivor_finish(with_victim):
            engine = Engine(4, None, network=NET)
            finished = []
            victim = []

            def bind(now):
                if with_victim:
                    victim.append(
                        engine.bind_job(
                            now,
                            {0: lambda: victim_sender(0, 2), 1: lambda: victim_receiver(1, 2)},
                        )
                    )
                engine.bind_job(
                    now,
                    {2: lambda: survivor_sender(0, 2), 3: lambda: survivor_receiver(1, 2)},
                    on_retire=lambda job: finished.append(job.finished),
                )

            def kill(now):
                assert all(ref() is not None for ref in payloads)
                engine.kill_job(victim[0], now)
                # freed by reference counting alone (the collector is off)
                assert [ref() for ref in payloads] == [None, None]
                for table in (engine._unmatched_sends, engine._unmatched_recvs):
                    assert not any({0, 1} & set(key[:2]) for key in table)
                assert [len(engine._inflight[slot]) for slot in range(4)] == [0, 0, 0, 1]

            engine.schedule_event(0.0, bind)
            if with_victim:
                engine.schedule_event(0.1, kill)
            gc.disable()
            try:
                engine.run()
            finally:
                gc.enable()
            return finished

        (alone,) = survivor_finish(with_victim=False)
        assert survivor_finish(with_victim=True) == [alone]
        assert len(payloads) == 2  # the victim ran, and the kill callback checked it

    def test_kill_settles_byte_counters_to_pre_kill_traffic(self):
        engine = Engine(2, None, network=NET)
        sender, receiver = self._exchange(nbytes=400_000)
        handles = []
        engine.schedule_event(
            0.0,
            lambda now: handles.append(
                engine.bind_job(
                    now, {0: lambda: sender(0, 2), 1: lambda: receiver(1, 2)},
                    tag="victim",
                )
            ),
        )
        engine.schedule_event(0.1, lambda now: engine.kill_job(handles[0], now))
        engine.run()
        assert handles[0].messages_sent == 1
        assert handles[0].bytes_sent == 400_000

    def test_kill_releases_barrier_waiters(self):
        """A killed job's half-arrived barrier vanishes with it (no deadlock,
        no stray waiters for a later job on the same slots)."""
        engine = Engine(2, None, network=NET)

        def early(rank, n_ranks):
            yield Barrier()
            return None

        def late(rank, n_ranks):
            yield Compute(3.0)
            yield Barrier()
            return None

        handles = []
        engine.schedule_event(
            0.0,
            lambda now: handles.append(
                engine.bind_job(
                    now,
                    {0: lambda: early(0, 2), 1: lambda: late(1, 2)},
                    tag="stuck",
                )
            ),
        )
        engine.schedule_event(1.0, lambda now: engine.kill_job(handles[0], now))
        retired = []
        engine.schedule_event(
            5.0,
            lambda now: engine.bind_job(
                now,
                {0: lambda: early(0, 2), 1: lambda: early(1, 2)},
                tag="fresh",
                on_retire=retired.append,
            ),
        )
        engine.run()
        assert handles[0].killed == 1.0
        assert [job.tag for job in retired] == ["fresh"]
        # the killed job's half-arrived waiter is gone: the fresh barrier
        # needs BOTH fresh ranks (releases at 5.0, when they arrive), not
        # one fresh rank completing a stale barrier
        assert retired[0].finished == 5.0

    def test_kill_retired_or_killed_job_raises(self):
        engine = Engine(1, None, network=NET)

        def compute(rank, n_ranks):
            yield Compute(1.0)
            return None

        handles = []
        engine.schedule_event(
            0.0,
            lambda now: handles.append(
                engine.bind_job(now, {0: lambda: compute(0, 1)}, tag="done")
            ),
        )
        engine.run()
        with pytest.raises(RuntimeError, match="retired"):
            engine.kill_job(handles[0], 5.0)

        engine2 = Engine(1, None, network=NET)
        handles2 = []

        def slow(rank, n_ranks):
            yield Compute(100.0)
            return None

        engine2.schedule_event(
            0.0,
            lambda now: handles2.append(
                engine2.bind_job(now, {0: lambda: slow(0, 1)}, tag="victim")
            ),
        )
        engine2.schedule_event(1.0, lambda now: engine2.kill_job(handles2[0], now))
        engine2.schedule_event(
            2.0,
            lambda now: pytest.raises(
                RuntimeError, engine2.kill_job, handles2[0], now
            ),
        )
        engine2.run()
        assert handles2[0].killed == 1.0


class TestRunawayProgram:
    @pytest.mark.parametrize("n_commands,runs", [(9, True), (10, False)], ids=["9-runs", "10-raises"])
    def test_the_step_that_ends_a_program_counts(self, n_commands, runs):
        """The budget counts every resume of a program, the one that ends it
        included: with ``max_commands=10`` a program of nine commands takes
        ten steps and runs, one of ten takes eleven and raises."""

        def program(rank, n_ranks):
            for _ in range(n_commands):
                yield Compute(1e-6)
            return "done"

        engine = Engine(1, program, network=NET, max_commands=10)
        if runs:
            assert [r.value for r in engine.run()] == ["done"]
        else:
            with pytest.raises(RunawayProgramError, match="max_commands=10"):
                engine.run()

    def test_the_error_names_the_tenant_that_spun(self):
        """On a shared engine the command budget is everyone's: the error
        lists the busiest slots with their job tags, so it says who spun."""
        engine = Engine(5, None, network=NET, max_commands=500)

        def spin(rank, n_ranks):
            if rank == 2:
                yield Barrier()  # never released: its two peers never enter
            while True:
                yield Compute(1e-3)

        def calm(rank, n_ranks):
            yield Compute(1e6)

        engine.schedule_event(
            0.0,
            lambda now: (
                engine.bind_job(
                    now, {slot: (lambda r=slot: spin(r, 3)) for slot in range(3)}, tag="spin"
                ),
                engine.bind_job(now, {3: lambda: calm(0, 2), 4: lambda: calm(1, 2)}, tag="calm"),
            ),
        )
        with pytest.raises(RunawayProgramError, match="max_commands=500") as caught:
            engine.run()
        assert isinstance(caught.value, RuntimeError)
        message = str(caught.value)
        assert message.count("job 'spin'") == 3 and "calm" not in message
        assert "slot 2, job 'spin': 1 commands, blocked (barrier)" in message
        assert "commands, ready" in message
