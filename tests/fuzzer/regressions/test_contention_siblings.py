"""Regression: one fabric's contention discipline leaking into a sibling session.

Bug class: two sessions over one topology object that disagree on the
contention discipline.  The fuzzer first found it through
``with_options(contention=...)``: the engine memoized a fair-share clone on
the shared topology, so a session downgraded to ``"reservation"`` was routed
straight back to its sibling's fair fabric.  That knob is gone — a fabric's
discipline is chosen when its topology is built — but siblings can still be
built: two clusters over one topology whose ``NetworkModel.contention``
differs.  The engine runs fair when either side asks for it, and the
fair-share registry belongs to the run, so neither sibling may see the
other's discipline.

The asymmetric workload below (irregular 3-ranks-per-node placement, forced
rabenseifner) times differently under the two disciplines, which is what
makes a leak observable; symmetric flows are aggregate-exact under both and
would mask it.
"""

from __future__ import annotations

import numpy as np

from repro.api import Cluster
from repro.mpisim.network import NetworkModel


def _reservation_cluster():
    return Cluster.from_preset("shared_uplink", ranks_per_node=3)


def _fair_sibling(cluster):
    """The same topology object, with a network model that asks for fair."""
    return cluster.with_updates(network=NetworkModel(contention="fair"))


def _run(cluster):
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal(4096) for _ in range(8)]
    return cluster.communicator(8).allreduce(inputs, algorithm="rabenseifner").total_time


class TestContentionSiblingsRegression:
    def test_a_fair_network_runs_fair_over_a_reservation_topology(self):
        reservation_time = _run(_reservation_cluster())
        fair_time = _run(
            Cluster.from_preset("shared_uplink", ranks_per_node=3, contention="fair")
        )
        assert fair_time != reservation_time  # the disciplines must differ here
        assert _run(_fair_sibling(_reservation_cluster())) == fair_time

    def test_siblings_over_one_topology_keep_their_own_discipline(self):
        reservation_time = _run(_reservation_cluster())
        fair_time = _run(_fair_sibling(_reservation_cluster()))
        base = _reservation_cluster()
        sibling = _fair_sibling(base)
        assert sibling.topology is base.topology
        # interleaved runs over the one topology object: neither leaks
        assert _run(sibling) == fair_time
        assert _run(base) == reservation_time
        assert _run(sibling) == fair_time
        assert _run(base) == reservation_time

    def test_the_network_knob_leaves_the_topology_alone(self):
        base = _reservation_cluster()
        sibling = _fair_sibling(base)
        _run(sibling)
        assert sibling.topology.contention == "reservation"
        assert sibling.network.contention == "fair"
        assert base.network.contention == "reservation"

    def test_repeated_fair_runs_are_stable(self):
        fair = _fair_sibling(_reservation_cluster())
        first = _run(fair)
        assert [_run(fair) for _ in range(2)] == [first, first]

    def test_a_fair_network_on_a_bare_cluster_stays_harmless(self):
        """No topology, no shared stage: fair and reservation are one run."""
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal(256) for _ in range(4)]
        fair = Cluster(network=NetworkModel(contention="fair")).communicator(4)
        reservation = Cluster(network=NetworkModel()).communicator(4)
        outcome = fair.allreduce(inputs)
        np.testing.assert_allclose(outcome.value(0), np.sum(inputs, axis=0), rtol=1e-10)
        assert outcome.total_time == reservation.allreduce(inputs).total_time
