"""Tests for the network model and transfer progress accounting."""

import pytest

from repro.mpisim import PROGRESS_ASYNC, PROGRESS_ON_POLL, NetworkModel, TransferState


def make_network(**kwargs):
    defaults = dict(latency=1e-6, bandwidth=1e9, eager_threshold=1024, inflight_window=1000)
    defaults.update(kwargs)
    return NetworkModel(**defaults)


class TestNetworkModel:
    def test_eager_threshold(self):
        net = make_network(eager_threshold=4096)
        assert net.is_eager(4096)
        assert not net.is_eager(4097)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(progress="magic")

    def test_defaults_are_calibrated_regime(self):
        net = NetworkModel()
        assert net.progress == PROGRESS_ON_POLL
        # effective collective bandwidth ~1-2 GB/s (see cost model calibration)
        assert 0.5e9 < net.bandwidth < 5e9


class TestTransferStateOnPoll:
    def test_no_progress_before_eligible(self):
        net = make_network()
        t = TransferState(nbytes=10_000, network=net)
        assert not t.ack(5.0)
        assert t.delivered_bytes == 0

    def test_window_caps_progress_between_polls(self):
        net = make_network(inflight_window=1000, bandwidth=1e9)
        t = TransferState(nbytes=100_000, network=net)
        t.set_eligible(0.0)
        # a poll long after eligibility can only deliver the in-flight window
        t.ack(1.0)
        assert t.delivered_bytes == pytest.approx(1000)

    def test_frequent_polls_track_line_rate(self):
        net = make_network(inflight_window=1000, bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=5000, network=net)
        t.set_eligible(0.0)
        # poll every 0.5 ms -> 500 bytes per poll < window, so no capping
        time = 0.0
        while not t.completed:
            time += 0.0005
            t.ack(time)
        assert t.completion_time == pytest.approx(5000 / 1e6, rel=0.2)

    def test_completion_from_streams_remaining(self):
        net = make_network(inflight_window=1000, bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=10_000, network=net)
        t.set_eligible(0.0)
        # the receiver enters Wait at t=1.0; the window delivered 1000 bytes,
        # the remaining 9000 stream at 1e6 B/s
        finish = t.completion_from(1.0)
        assert finish == pytest.approx(1.0 + 9000 / 1e6)
        assert t.completed

    def test_completion_before_eligible_waits_for_match(self):
        net = make_network(bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=1000, network=net)
        t.set_eligible(2.0)
        finish = t.completion_from(0.5)
        assert finish == pytest.approx(2.0 + 0.001)

    def test_latency_delays_eligibility(self):
        net = make_network(latency=0.5, bandwidth=1e6)
        t = TransferState(nbytes=1000, network=net)
        t.set_eligible(1.0)
        assert t.eligible_time == pytest.approx(1.5)

    def test_eager_transfers_ignore_window(self):
        net = make_network(inflight_window=10, bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=5000, network=net, eager=True)
        t.set_eligible(0.0)
        t.ack(1.0)
        assert t.completed

    def test_completion_from_on_completed_transfer(self):
        net = make_network(bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=100, network=net, eager=True)
        t.set_eligible(0.0)
        t.ack(10.0)
        assert t.completion_from(20.0) == pytest.approx(10.0)

    def test_unmatched_completion_raises(self):
        t = TransferState(nbytes=10, network=make_network())
        with pytest.raises(RuntimeError):
            t.completion_from(0.0)


class TestTransferStateAsync:
    def test_async_progress_ignores_window(self):
        net = make_network(progress=PROGRESS_ASYNC, inflight_window=10, bandwidth=1e6, latency=0.0)
        t = TransferState(nbytes=5000, network=net)
        t.set_eligible(0.0)
        t.ack(1.0)
        assert t.completed
        assert t.completion_time == pytest.approx(1.0)
