"""Ablation benchmarks for the two modelling choices the paper's results rest on
(the progress semantics behind Figure 9's ND-vs-Overlap wait time and the
effective bandwidth behind Figure 11; see the calibration note in
``repro/mpisim/network.py``).

Two ablations isolate *why* C-Coll wins under the calibrated model:

* **Progress semantics** — with an asynchronously progressing fabric (hardware
  offload) the PIPE-SZx polling is unnecessary: the non-overlapped ND variant
  already matches the overlapped one.  Under the default rendezvous
  progress-on-poll semantics the overlap is what removes the Wait time.
* **Fabric speed** — on a fabric delivering the nominal 100 Gbps line rate,
  CPU lossy compression cannot pay for itself and C-Allreduce loses to the
  original Allreduce; the win only exists because the effective application
  bandwidth of large collectives is an order of magnitude below line rate.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.datasets import load_field, message_of_size
from repro.perfmodel import async_progress_network, default_network, line_rate_network
from repro.utils.units import MB

N_RANKS = 8
VIRTUAL_MB = 160
MULTIPLIER = 256.0


@pytest.fixture(scope="module")
def inputs():
    field = load_field("rtm", seed=3)
    data = message_of_size(field, int(VIRTUAL_MB * MB / MULTIPLIER))
    return [data * np.float32(1 + 1e-6 * r) for r in range(N_RANKS)]


@pytest.fixture(scope="module")
def config():
    return CCollConfig(codec="szx", error_bound=1e-3, size_multiplier=MULTIPLIER)


class TestProgressSemanticsAblation:
    def test_overlap_gain_comes_from_pipelining_not_progress(self, benchmark, inputs, config):
        """The computation framework's gain comes from *pipelining* compression
        with the transfers (segmented sends + polling), not from the progress
        semantics alone: without the pipelining, even a fabric with fully
        asynchronous progress cannot hide the reduce-scatter transfers, because
        each round's send is only posted after the whole chunk is compressed."""

        def run_all():
            results = {}
            for net_name, network in (
                ("on-poll", default_network()),
                ("async", async_progress_network()),
            ):
                comm = Cluster(network=network, config=config).communicator(N_RANKS)
                for overlap, variant in ((False, "nd"), (True, "on")):
                    outcome = comm.allreduce(inputs, compression=variant)
                    results[(net_name, overlap)] = outcome.total_time
            return results

        results = benchmark.pedantic(run_all, rounds=1, iterations=1)
        # the pipelined variant buys a clear improvement under both semantics ...
        assert results[("on-poll", True)] < 0.97 * results[("on-poll", False)]
        assert results[("async", True)] < 0.97 * results[("async", False)]
        # ... while async progress alone (without pipelining) does not help
        ratio = results[("async", False)] / results[("on-poll", False)]
        assert 0.95 < ratio < 1.05


class TestFabricSpeedAblation:
    def test_line_rate_fabric_removes_the_win(self, benchmark, inputs, config):
        def run_all():
            results = {}
            for net_name, network in (
                ("calibrated", default_network()),
                ("line-rate", line_rate_network()),
            ):
                comm = Cluster(network=network, config=config).communicator(N_RANKS)
                baseline = comm.allreduce(inputs, algorithm="ring")
                ccoll = comm.allreduce(inputs, compression="on")
                results[net_name] = baseline.total_time / ccoll.total_time
            return results

        speedups = benchmark.pedantic(run_all, rounds=1, iterations=1)
        assert speedups["calibrated"] > 1.5
        assert speedups["line-rate"] < 1.0
