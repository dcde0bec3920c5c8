"""Property-based tests (hypothesis) for the fair-share contention model.

Invariants pinned here:

* **Bandwidth conservation** — after every arrival/departure event, the
  rates a :class:`SharedLink` has allocated to its active flows never
  exceed its capacity, and a backlogged bottleneck stage is fully allocated
  (sum of active flow rates equals the stage capacity).
* **Work conservation** — no idle stage with queued flows: every active flow
  gets a strictly positive rate, and every flow is bottlenecked on at least
  one saturated stage (the defining property of the max-min allocation).
* **Symmetric aggregate-equivalence** — for symmetric flow sets the fair
  model reproduces the reservation queue's aggregate (last) finish time
  *exactly* (``==``, not a tolerance).  The strategy draws power-of-two
  capacities, power-of-two flow counts and integer byte counts, for which
  every intermediate quantity is representable, so bit-equality is the
  correct assertion — any discrepancy is a modelling bug, not float noise.
* **A lone flow needs no filling** — the rate the one-flow shortcut of
  ``_redivide`` hands a flow alone in its component is bit-equal to the rate
  the general progressive filling gives the same flow.
* **Asymmetric ordering** — in a two-flow mix on one stage the smaller flow
  completes strictly earlier than under the reservation queue, while the
  aggregate finish is unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpisim import (
    FairShareRegistry,
    Irecv,
    Isend,
    NetworkModel,
    SharedLink,
    SharedUplinkTopology,
    Waitall,
    reserve_path,
    run_simulation,
)

#: power-of-two capacities and flow counts keep every division/product exact
pow2_capacities = st.sampled_from([256.0, 1024.0, 65536.0])
pow2_counts = st.sampled_from([1, 2, 4, 8])
int_bytes = st.integers(min_value=1, max_value=2**24)
int_times = st.integers(min_value=0, max_value=2**12)


def make_stages(capacities):
    return [SharedLink(capacity=c) for c in capacities]


class TestConservationProperties:
    @given(
        capacities=st.lists(pow2_capacities, min_size=1, max_size=4),
        flow_specs=st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
                int_bytes,
                int_times,
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bandwidth_and_work_conservation_at_every_event(
        self, capacities, flow_specs
    ):
        """After every arrival: rates conserve capacity, saturate bottlenecks,
        and starve no flow."""
        stages = make_stages(capacities)
        registry = FairShareRegistry()
        arrivals = sorted(flow_specs, key=lambda spec: spec[2])
        for stage_ids, nbytes, start in arrivals:
            chosen = [stages[i % len(stages)] for i in sorted(stage_ids)]
            registry.open_flow(chosen, float(start), nbytes)
            self._check_allocation(stages, registry)
        # departures re-divide too: drain the registry one commit at a time
        while registry.pending_count():
            finish, flow = registry.commit_departure()
            assert finish >= flow.start
            self._check_allocation(stages, registry)

    @staticmethod
    def _check_allocation(stages, registry):
        active = registry.active_flows()
        tol = 1e-9
        for flow in active:
            # work conservation: a queued flow is never starved
            assert flow.rate > 0.0
            # max-min: every flow is bottlenecked on some saturated stage
            assert any(
                stage.allocated_rate() >= stage.capacity * (1.0 - tol)
                for stage in flow.stages
            ), f"flow {flow.flow_id} is not bottlenecked anywhere"
        for stage in stages:
            allocated = stage.allocated_rate()
            # bandwidth conservation: never above capacity
            assert allocated <= stage.capacity * (1.0 + tol)
            if stage.backlogged and any(
                len(f.stages) == 1 and f.stages[0] is stage for f in active
            ):
                # a backlogged stage that is itself some flow's only stage
                # must be fully allocated
                assert allocated == pytest.approx(stage.capacity, rel=1e-12)


class TestSymmetricEquivalence:
    @given(
        capacity=pow2_capacities,
        n_flows=pow2_counts,
        nbytes=int_bytes,
        start=int_times,
        n_stages=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_aggregate_finish_matches_reservation_exactly(
        self, capacity, n_flows, nbytes, start, n_stages
    ):
        """k symmetric flows over one shared path: the fair model's last
        finish equals the reservation queue's last finish bit-for-bit."""
        # reservation: serial reserve_path calls
        reserved = make_stages([capacity] * n_stages)
        reservation_finishes = [
            reserve_path(reserved, float(start), nbytes) for _ in range(n_flows)
        ]
        # fair: all flows arrive together, then drain
        fair_stages = make_stages([capacity] * n_stages)
        registry = FairShareRegistry()
        flows = [
            registry.open_flow(fair_stages, float(start), nbytes)
            for _ in range(n_flows)
        ]
        fair_finishes = [registry.commit_departure()[0] for _ in flows]
        assert max(fair_finishes) == max(reservation_finishes)  # exact, by design
        # symmetric fair flows all tie at the aggregate
        assert all(f == max(fair_finishes) for f in fair_finishes)

    @given(
        capacity=pow2_capacities,
        n_flows=pow2_counts,
        nbytes=st.integers(min_value=1, max_value=2**20),
        start=int_times,
    )
    @settings(max_examples=40, deadline=None)
    def test_fair_stage_books_the_same_wire_time(
        self, capacity, n_flows, nbytes, start
    ):
        """The fluid segments re-expressed as reservations occupy exactly the
        serial wire time: busy_until ends where the reservation queue's would."""
        serial = SharedLink(capacity=capacity)
        for _ in range(n_flows):
            serial.reserve(float(start), nbytes)
        stage = SharedLink(capacity=capacity)
        registry = FairShareRegistry()
        for _ in range(n_flows):
            registry.open_flow([stage], float(start), nbytes)
        while registry.pending_count():
            registry.commit_departure()
        assert stage.busy_until == serial.busy_until  # exact, by design


class TestLoneFlowShortcut:
    @given(
        capacities=st.lists(
            st.floats(min_value=1e-3, max_value=1e15, allow_nan=False), min_size=1, max_size=5
        ),
        other=st.floats(min_value=1e-3, max_value=1e15, allow_nan=False),
        nbytes=int_bytes,
    )
    @settings(max_examples=100, deadline=None)
    def test_a_flow_alone_gets_the_rate_the_general_filling_gives_it(
        self, capacities, other, nbytes
    ):
        """Checked against the code the shortcut skips: a second flow over a
        disjoint stage joins the component through one shared stage too wide to
        bind anyone, so the filling runs in full and fixes the first flow at its
        own tightest stage."""

        def path():
            return make_stages(capacities) + [SharedLink(capacity=1e30)]

        alone = FairShareRegistry().open_flow(path(), 0.0, nbytes)
        stages = path()
        registry = FairShareRegistry()
        joined = registry.open_flow(stages, 0.0, nbytes)
        neighbour = registry.open_flow(make_stages([other]) + stages[-1:], 0.0, nbytes)
        assert neighbour.rate == other
        assert alone.rate == joined.rate == min(capacities)  # exact, by design


class TestAsymmetricOrdering:
    @given(
        capacity=pow2_capacities,
        small=st.integers(min_value=1, max_value=2**20),
        extra=st.integers(min_value=1, max_value=2**20),
        start=int_times,
    )
    @settings(max_examples=60, deadline=None)
    def test_smaller_flow_finishes_strictly_earlier(
        self, capacity, small, extra, start
    ):
        """Big flow registered first (the reservation queue's bias): fair
        sharing drains the small flow strictly earlier, same aggregate."""
        big = small + extra
        # reservation: big resolves first, small queues behind it
        stage = SharedLink(capacity=capacity)
        res_big = stage.reserve(float(start), big)
        res_small = stage.reserve(float(start), small)
        assert res_small > res_big
        # fair: both arrive at `start`
        fair_stage = SharedLink(capacity=capacity)
        registry = FairShareRegistry()
        flow_big = registry.open_flow([fair_stage], float(start), big)
        flow_small = registry.open_flow([fair_stage], float(start), small)
        first_finish, first = registry.commit_departure()
        last_finish, last = registry.commit_departure()
        assert first is flow_small and last is flow_big
        assert first_finish < last_finish
        # strictly earlier than the queued-behind finish
        assert first_finish < res_small
        # the aggregate is the same work either way (exact, by design)
        assert last_finish == res_small

    @given(
        small_kib=st.integers(min_value=64, max_value=512),
        extra_kib=st.integers(min_value=64, max_value=512),
    )
    @settings(max_examples=10, deadline=None)
    def test_engine_level_ordering_flip_on_shared_uplink(self, small_kib, extra_kib):
        """End-to-end through the engine: two uplink flows of different sizes
        leaving one node finish small-first under contention='fair'."""
        net = NetworkModel(latency=0.0, bandwidth=float(1 << 30), eager_threshold=0)
        big = (small_kib + extra_kib) * 1024
        small = small_kib * 1024

        def program(rank, size):
            if rank in (0, 1):
                nbytes = big if rank == 0 else small
                req = yield Isend(dest=rank + 2, data=np.zeros(nbytes // 8), tag=0, nbytes=nbytes)
                yield Waitall([req])
            else:
                req = yield Irecv(source=rank - 2, tag=0)
                yield Waitall([req])
            return rank

        def run(mode):
            topo = SharedUplinkTopology(
                ranks_per_node=2,
                inter_latency=0.0,
                inter_bandwidth=float(1 << 30),
                contention=mode,
            )
            return run_simulation(4, program, net, topology=topo).rank_times

        res = run("reservation")
        fair = run("fair")
        # reservation: big (rank 2) first, small (rank 3) queued behind
        assert res[3] > res[2]
        # fair: the small flow's receiver finishes strictly first
        assert fair[3] < fair[2]
        assert fair[3] < res[3]
        # identical aggregate, exactly (all quantities dyadic by construction)
        assert max(fair) == max(res)
