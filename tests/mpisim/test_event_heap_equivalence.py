"""Equivalence suite for the event-heap engine core (PR 6).

The engine was rebuilt around one global min-heap of ``(timestamp, order,
token)`` events (see the architecture docstring in
:mod:`repro.mpisim.engine`).  The refactor's contract is *observational
equivalence* with the scan-loop engine it replaced:

* **Reservation-mode golden makespans** — the four frozen presets of
  ``tests/property/test_golden_makespans.py`` must reproduce bit-for-bit,
  because rank events keep the exact historical ``(clock, rank)`` order and
  therefore the exact ``SharedLink`` reservation order.
* **Fair-mode aggregates** — fair-share commits ride the heap as priority-0
  events; symmetric traffic must still match the reservation queue's
  aggregate finish exactly, and asymmetric mixes must keep the
  small-drains-first ordering with an unchanged aggregate.
* **Deterministic pop order** — the popped event sequence is a pure function
  of the scenario: timestamps never decrease, and rebuilding the same
  scenario (even constructing its parameters in a permuted order) replays
  the identical trace.
* **Event order, inline steps included** — every program resume and every
  scheduled callback runs in ``(time, tier)`` order, whether the rank was
  popped from the heap or kept running inline, and the one live-entry peek
  drops exactly the stale entries.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.mpisim import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    NetworkModel,
    SharedUplinkTopology,
    Wait,
    Waitall,
)
from repro.mpisim.engine import Engine

# the frozen pins live in the sibling property suite; the test tree has no
# packages, so load them by path
import importlib.util
from pathlib import Path

_PINS = Path(__file__).resolve().parent.parent / "property" / "test_golden_makespans.py"
_spec = importlib.util.spec_from_file_location("golden_makespan_pins", _PINS)
_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_golden)

ELEMS = _golden.ELEMS
GOLDEN_MAKESPANS = _golden.GOLDEN_MAKESPANS
N_RANKS = _golden.N_RANKS
PRESETS = _golden.PRESETS
inputs_for = _golden.inputs_for

EQUIVALENCE_CELLS = [
    (preset, "large", algo)
    for preset in PRESETS
    for algo in ("ring", "rabenseifner")
]


class TestReservationEquivalence:
    """The event heap replays the scan-loop schedule bit-for-bit."""

    @pytest.mark.parametrize("preset,label,algo", EQUIVALENCE_CELLS)
    def test_golden_makespan_is_bit_for_bit(self, preset, label, algo):
        cluster = Cluster.from_preset(preset, **PRESETS[preset])
        comm = cluster.communicator(N_RANKS)
        out = comm.allreduce(inputs_for(N_RANKS, ELEMS[label]), algorithm=algo)
        assert out.total_time == GOLDEN_MAKESPANS[(preset, label, algo)]


def _uplink_cluster(contention):
    topology = SharedUplinkTopology(ranks_per_node=4, contention=contention)
    network = NetworkModel(contention=contention)
    return Cluster(network=network, topology=topology)


class TestFairModeAggregates:
    """Fair commits as heap events preserve the fluid model's aggregates."""

    def test_symmetric_allreduce_matches_reservation_aggregate(self):
        """Symmetric uplink traffic: fair == reservation at the aggregate,
        exactly (the fluid model's defining equivalence, now driven through
        priority-0 commit events instead of the per-step fallback)."""
        inputs = inputs_for(8, 4096)
        fair = _uplink_cluster("fair").communicator(8).allreduce(inputs, algorithm="ring")
        reserved = (
            _uplink_cluster("reservation").communicator(8).allreduce(inputs, algorithm="ring")
        )
        assert fair.total_time == reserved.total_time
        np.testing.assert_allclose(fair.values[0], reserved.values[0])

    def test_asymmetric_mix_small_flow_first_aggregate_unchanged(self):
        """Two concurrent uplink flows, 1 MB vs 64 KB: under fair sharing the
        small flow finishes strictly earlier than under the reservation
        queue's serial order, while the last finish stays exact."""
        big = np.zeros(1 << 20, dtype=np.uint8)
        small = np.zeros(1 << 16, dtype=np.uint8)

        def program(rank, size):
            if rank in (0, 1):  # node 0: two senders sharing one uplink
                payload = big if rank == 0 else small
                req = yield Isend(dest=rank + 4, data=payload, nbytes=payload.nbytes, tag=0)
                yield Wait(req)
            elif rank in (4, 5):  # node 1: the receivers
                req = yield Irecv(source=rank - 4, tag=0)
                yield Wait(req)
            return None

        def finish_times(contention):
            engine = Engine(
                8,
                program,
                network=NetworkModel(contention=contention),
                topology=SharedUplinkTopology(ranks_per_node=4, contention=contention),
            )
            results = engine.run()
            return {r.rank: r.finish_time for r in results}

        fair = finish_times("fair")
        reserved = finish_times("reservation")
        # aggregate (last receiver) unchanged, exactly
        assert max(fair[4], fair[5]) == max(reserved[4], reserved[5])
        # the small flow departs strictly earlier under processor sharing
        assert fair[5] < reserved[5] or reserved[5] == min(reserved[4], reserved[5])
        assert fair[5] < fair[4]


def _scenario_program(compute_s, sizes, rounds):
    """Ring exchange with per-rank compute and payload size (the scenario)."""
    payloads = {n: np.zeros(n, dtype=np.uint8) for n in set(sizes.values())}

    def program(rank, size):
        payload = payloads[sizes[rank]]
        for step in range(rounds):
            yield Compute(compute_s[rank], category="Others")
            send = yield Isend(
                dest=(rank + 1) % size, data=payload, nbytes=payload.nbytes, tag=step
            )
            recv = yield Irecv(source=(rank - 1) % size, tag=step)
            yield Waitall([recv, send])
        return rank

    return program


def _trace_of(n_ranks, compute_s, sizes, rounds, contention):
    topology = None
    network = None
    if contention == "fair":
        topology = SharedUplinkTopology(ranks_per_node=2, contention="fair")
        network = NetworkModel(contention="fair")
    engine = Engine(
        n_ranks,
        _scenario_program(compute_s, sizes, rounds),
        network=network,
        topology=topology,
        trace_events=True,
    )
    results = engine.run()
    return engine.event_trace, [r.finish_time for r in results]


class TestDeterministicPopOrder:
    """Heap pop order is a pure, replayable function of the scenario."""

    @given(
        n_ranks=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
        permutation_seed=st.integers(min_value=0, max_value=2**16),
        contention=st.sampled_from(["reservation", "fair"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_is_deterministic_under_scenario_permutations(
        self, n_ranks, seed, permutation_seed, contention
    ):
        rng = np.random.default_rng(seed)
        compute_s = {r: float(rng.uniform(1e-7, 1e-4)) for r in range(n_ranks)}
        sizes = {r: int(rng.integers(64, 1 << 16)) for r in range(n_ranks)}
        trace_a, finishes_a = _trace_of(n_ranks, compute_s, sizes, 2, contention)

        # same scenario, parameters assembled in a shuffled order: the trace
        # must not depend on construction order (dict iteration, object ids)
        perm = np.random.default_rng(permutation_seed).permutation(n_ranks)
        compute_b = {int(r): compute_s[int(r)] for r in perm}
        sizes_b = {int(r): sizes[int(r)] for r in perm}
        trace_b, finishes_b = _trace_of(n_ranks, compute_b, sizes_b, 2, contention)

        assert trace_a == trace_b
        assert finishes_a == finishes_b
        # pop timestamps never decrease: every event schedules successors at
        # or after its own timestamp
        timestamps = [t for t, _ in trace_a]
        assert timestamps == sorted(timestamps)
        assert trace_a, "a non-trivial scenario must pop at least one event"

    @pytest.mark.parametrize("contention", ["reservation", "fair"])
    def test_factory_engine_and_one_bound_job_pop_the_same_trace(self, contention):
        """``Engine(n, factory)`` is one job bound over all slots at t=0."""
        n_ranks = 8
        compute_s = {r: 1e-6 * (r + 1) for r in range(n_ranks)}
        sizes = {r: 1 << (10 + r % 4) for r in range(n_ranks)}
        trace, finishes = _trace_of(n_ranks, compute_s, sizes, 3, contention)

        program = _scenario_program(compute_s, sizes, 3)
        fabric = {}
        if contention == "fair":
            fabric = dict(
                topology=SharedUplinkTopology(ranks_per_node=2, contention="fair"),
                network=NetworkModel(contention="fair"),
            )
        engine = Engine(n_ranks, None, trace_events=True, **fabric)
        engine.bind_job(
            0.0, {r: (lambda r=r: program(r, n_ranks)) for r in range(n_ranks)}
        )
        results = engine.run()
        assert engine.event_trace == trace
        assert [r.finish_time for r in results] == finishes

    def test_trace_records_fair_commits_as_priority_zero(self):
        compute_s = {r: 1e-6 for r in range(8)}
        sizes = {r: 1 << 14 for r in range(8)}
        trace, _ = _trace_of(8, compute_s, sizes, 2, "fair")
        orders = {order for _, order in trace}
        assert 0 in orders, "fair mode must schedule priority-0 commit events"
        assert orders - {0} <= {r + 1 for r in range(8)}


def _uplink_fabric(contention):
    return dict(
        topology=SharedUplinkTopology(ranks_per_node=2, contention=contention),
        network=NetworkModel(contention=contention),
    )


class TestEventOrder:
    """What runs next is decided in ``(time, tier)`` order, inline steps included."""

    @given(
        n_ranks=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        contention=st.sampled_from(["reservation", "fair"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_resumes_and_callbacks_never_go_back_in_time(self, n_ranks, seed, contention):
        rng = np.random.default_rng(seed)
        rounds = 3
        compute_s = [float(rng.uniform(1e-7, 1e-4)) for _ in range(n_ranks)]
        payloads = [np.zeros(int(rng.integers(64, 1 << 16)), dtype=np.uint8) for _ in range(n_ranks)]
        barrier_after = int(rng.integers(rounds))
        log = []  # (time, -1) per callback, (time, 0) per program resume

        def ring(rank, size):
            for step in range(rounds):
                yield Compute(compute_s[rank], category="Others")
                payload = payloads[rank]
                send = yield Isend(dest=(rank + 1) % size, data=payload, nbytes=payload.nbytes, tag=step)
                recv = yield Irecv(source=(rank - 1) % size, tag=step)
                yield Waitall([recv, send])
                if step == barrier_after:
                    yield Barrier()

        def logged(rank, size):
            program, value = ring(rank, size), None
            while True:
                log.append((engine.clock_of(rank), 0))
                try:
                    command = program.send(value)
                except StopIteration:
                    return rank
                value = yield command

        engine = Engine(n_ranks, logged, **_uplink_fabric(contention))
        for t in rng.uniform(0.0, 3e-4, size=6):
            engine.schedule_event(float(t), lambda now: log.append((now, -1)))
        engine.run()
        assert sum(1 for _, tier in log if tier < 0) == 6
        assert log == sorted(log)

    def test_a_departure_due_during_an_inline_run_commits_before_the_next_command(self):
        """Rank 0 opens a fair flow to a blocked receiver, then computes far past
        that flow's departure while nothing else is ready, so it keeps stepping
        inline.  The departure must commit before rank 0's next command runs:
        the peek after each command also refreshes the commit entry, not only
        the heap top that was already there."""
        log = []  # (departure, -1) per commit, (clock, 0) per program resume

        def program(rank, size):
            if rank == 0:
                yield Compute(1e-6)
                first = yield Isend(dest=2, data=None, nbytes=1 << 20, tag=0)
                yield Compute(1.0)
                second = yield Isend(dest=3, data=None, nbytes=1 << 20, tag=0)
                yield Waitall([first, second])
            elif rank >= 2:
                yield Wait((yield Irecv(source=0, tag=0)))
            return rank

        def logged(rank, size):
            inner, value = program(rank, size), None
            while True:
                log.append((engine.clock_of(rank), 0))
                try:
                    command = inner.send(value)
                except StopIteration:
                    return rank
                value = yield command

        engine = Engine(4, logged, **_uplink_fabric("fair"))
        registry = engine.fair_registry
        commit = registry.commit_departure

        def logged_commit():
            finish, flow = commit()
            log.append((finish, -1))
            return finish, flow

        registry.commit_departure = logged_commit
        engine.run()
        assert sum(1 for _, kind in log if kind < 0) == 2
        assert log == sorted(log)


class TestLiveTop:
    def test_the_peek_drops_stale_entries_and_leaves_the_live_one(self):
        program = _scenario_program({r: 1e-6 for r in range(4)}, {r: 64 for r in range(4)}, 1)
        engine = Engine(4, program, **_uplink_fabric("fair"))
        heap = engine._heap
        live = sorted(heap)
        assert live[0] == (0.0, 1, engine._states[0].ready_token)
        # a superseded token of rank 0 and an outdated commit version, both
        # sorting before rank 0's live entry
        superseded, outdated = (0.0, 1, 0), (0.0, 0, 12345)
        heapq.heappush(heap, superseded)
        heapq.heappush(heap, outdated)
        assert engine._live_top() == live[0]
        assert heap[0] == live[0]
        assert sorted(heap) == live
        # a commit stamped with the current registry version is live
        current = (0.0, 0, engine._fair_event_version)
        heapq.heappush(heap, current)
        assert engine._live_top() == current

    @pytest.mark.parametrize(
        "contention,expected",
        [
            ("fair", {"rank-step": 52, "fair-commit": 12, "scheduled-callback": 1}),
            ("reservation", {"rank-step": 51, "fair-commit": 0, "scheduled-callback": 1}),
        ],
        ids=["fair", "reservation"],
    )
    def test_event_counts_are_the_three_heap_tiers(self, contention, expected):
        """One ring with a scheduled callback, on fair and on reservation
        stages: each tier's count (rank steps pushed, commits and callbacks
        run) is pinned, so a change to how the run loop steps a rank or when
        it pushes one back shows here.  The fair total, 65, was taken before
        the counts were regrouped by tier."""
        compute_s = {r: 1e-6 * (r + 1) for r in range(8)}
        sizes = {r: 1 << (10 + r % 4) for r in range(8)}
        engine = Engine(8, _scenario_program(compute_s, sizes, 3), **_uplink_fabric(contention))
        engine.schedule_event(5e-6, lambda now: None)
        engine.run()
        assert engine.event_counts == expected
