"""Behavioural tests for :class:`repro.api.Communicator`.

The equivalence pins in ``test_facade_equivalence.py`` prove the facade
reproduces the legacy runners; these tests cover the facade's *own* logic:
algorithm tracing (proving ``algorithm="auto"`` consults ``select_algorithm``),
the five exact ``compression`` spellings, the ``compression="auto"`` gate routing,
and argument validation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.collectives.selection as selection
from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.collectives.selection import RING_MIN_BYTES, select_algorithm
from repro.mpisim import SharedUplinkTopology
from repro.perfmodel import line_rate_network


#: ``reduce_scatter(compression="nd")`` over flat / two_level / fair fat tree x
#: n in {1, 2, 3, 5, 8}, computed with the former ``compression="on", overlap=False``
ND_REDUCE_SCATTER_DIGEST = "3560d72d07002de0176d01e899c7fcdf311f2db20765b8e24ee11bc310f40140"


def _vectors(n_ranks, n=256, dtype=np.float64):
    rng = np.random.default_rng(3)
    return [rng.standard_normal(n).astype(dtype) for _ in range(n_ranks)]


class TestAlgorithmTrace:
    def test_auto_provably_consults_select_algorithm(self, monkeypatch):
        """The facade's "auto" goes through select_algorithm — asserted by
        instrumenting the selector and matching its answer to the trace."""
        calls = []
        real = selection.select_algorithm

        def spy(nbytes, n_ranks, topology=None):
            choice = real(nbytes, n_ranks, topology)
            calls.append((nbytes, n_ranks, choice))
            return choice

        monkeypatch.setattr(selection, "select_algorithm", spy)
        comm = Cluster().communicator(4)
        comm.allreduce(_vectors(4))
        assert len(calls) == 1
        nbytes, n_ranks, choice = calls[0]
        assert (nbytes, n_ranks) == (256 * 8, 4)
        assert comm.last_algorithm == choice

    def test_trace_follows_selector_across_sizes(self):
        comm = Cluster().communicator(8)
        small = _vectors(8, n=16)
        comm.allreduce(small)
        assert comm.last_algorithm == select_algorithm(16 * 8, 8, None)
        # size_multiplier pushes the virtual size over the ring threshold
        big_cluster = Cluster(config=CCollConfig(size_multiplier=float(RING_MIN_BYTES))).communicator(8)
        big_cluster.allreduce(_vectors(8, n=16))
        assert big_cluster.last_algorithm == "ring"

    def test_explicit_algorithm_recorded(self):
        comm = Cluster().communicator(4)
        comm.allreduce(_vectors(4), algorithm="rabenseifner")
        assert comm.last_algorithm == "rabenseifner"
        assert comm.algorithm_trace == ["rabenseifner"]


class TestCompressionDispatch:
    def test_each_spelling_reports_its_table_v_label(self):
        comm = Cluster().communicator(2)
        vecs = _vectors(2)
        for spelling, label in (("off", "AD"), ("di", "DI"), ("nd", "ND"), ("on", "Overlap")):
            comm.allreduce(vecs, compression=spelling)
            assert comm.last_compression == label

    @pytest.mark.parametrize(
        "spelling", ["cpr-p2p", "novel_design", "Overlap", "AD", "ON", " on ", "c-allreduce"]
    )
    def test_former_aliases_are_refused(self, spelling):
        with pytest.raises(ValueError, match="it takes 'off' / 'di' / 'nd' / 'on' / 'auto'"):
            Cluster().communicator(2).allreduce(_vectors(2), compression=spelling)

    @pytest.mark.parametrize("switch", [True, False, None, 1])
    def test_non_string_spellings_are_refused(self, switch):
        with pytest.raises(ValueError, match="not available for allreduce"):
            Cluster().communicator(2).allreduce(_vectors(2), compression=switch)

    def test_auto_gate_flat_calibrated_compresses(self):
        """On the calibrated (slow) fabric the break-even gate says compress."""
        comm = Cluster().communicator(4)
        outcome = comm.allreduce(_vectors(4, dtype=np.float32), compression="auto")
        assert comm.last_compression == "Overlap"
        assert outcome.inter_compressed is True

    def test_auto_gate_line_rate_stays_uncompressed(self):
        """On a line-rate fabric compression cannot pay; auto falls back to the
        tuning-table baseline and reports an uncompressed outcome."""
        comm = Cluster(network=line_rate_network()).communicator(4)
        outcome = comm.allreduce(_vectors(4, dtype=np.float32), compression="auto")
        assert comm.last_compression == "AD"
        assert outcome.inter_compressed is False
        assert outcome.compression_ratio is None

    def test_auto_routes_colocated_ranks_to_topology_aware(self):
        cluster = Cluster(topology=SharedUplinkTopology(ranks_per_node=4))
        comm = cluster.communicator(8)
        outcome = comm.allreduce(_vectors(8, dtype=np.float32), compression="auto")
        assert comm.last_compression == "topology_aware"
        assert comm.last_algorithm == "hierarchical"
        assert outcome.inter_compressed in (True, False)

    def test_auto_that_declines_to_compress_is_the_hierarchical_allreduce(self):
        """One skeleton: when the gate says the wire outruns the codec, the
        topology-aware route is ``algorithm="hierarchical"`` bit for bit."""
        cluster = Cluster(topology=SharedUplinkTopology(ranks_per_node=4, inter_bandwidth=12.5e9))
        vectors = _vectors(13, dtype=np.float32)
        auto = cluster.communicator(13).allreduce(vectors, compression="auto")
        plain = cluster.communicator(13).allreduce(vectors, algorithm="hierarchical")
        assert auto.inter_compressed is False and auto.compression_ratio is None
        assert auto.total_time == plain.total_time
        assert auto.sim.rank_times == plain.sim.rank_times
        for got, want in zip(auto.values, plain.values):
            assert got.tobytes() == want.tobytes()

    def test_movement_collectives_accept_auto(self):
        comm = Cluster(config=CCollConfig(error_bound=1e-3)).communicator(4)
        blocks = _vectors(4, n=2048, dtype=np.float32)
        outcome = comm.allgather(blocks, compression="auto")
        # calibrated fabric -> the gate compresses
        assert comm.last_compression == "Overlap"
        assert outcome.compression_ratio is not None


class TestValidation:
    def test_algorithm_with_compression_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            Cluster().communicator(2).allreduce(_vectors(2), algorithm="ring", compression="on")

    def test_unknown_compression_rejected(self):
        with pytest.raises(ValueError, match="not available for allreduce"):
            Cluster().communicator(2).allreduce(_vectors(2), compression="zip")

    def test_nd_rejected_outside_allreduce(self):
        with pytest.raises(ValueError, match="not available for allgather"):
            Cluster().communicator(2).allgather(_vectors(2), compression="nd")

    def test_di_rejected_for_reduce_scatter(self):
        with pytest.raises(ValueError, match="not available for reduce_scatter"):
            Cluster().communicator(2).reduce_scatter(_vectors(2), compression="di")

    @pytest.mark.parametrize("mode", ["off", "on", "di", "auto"])
    def test_bcast_of_integers_is_a_type_error_at_plan_time(self, mode):
        comm = Cluster().communicator(4)
        with pytest.raises(TypeError, match="float array, got int64"):
            comm.bcast(np.arange(8, dtype=np.int64), compression=mode)
        with pytest.raises(TypeError, match="float array, got int64"):
            comm.capture(lambda c: c.bcast(np.arange(8, dtype=np.int64), compression=mode))

    @pytest.mark.parametrize("root", [1.5, 1.0, "1", None, True, np.bool_(True)])
    @pytest.mark.parametrize(
        "name, mode",
        [(name, mode) for name in ("bcast", "scatter") for mode in ("off", "on", "di", "auto")]
        + [("gather", None), ("reduce", None)],
    )
    def test_non_integer_root_is_rejected_before_anything_runs(self, name, mode, root):
        data = _vectors(4)[0] if name == "bcast" else _vectors(4)
        options = {} if mode is None else {"compression": mode}
        with pytest.raises(ValueError, match="root must be an integer"):
            getattr(Cluster().communicator(4), name)(data, root=root, **options)

    def test_numpy_integer_root_is_accepted(self):
        comm = Cluster().communicator(4)
        assert comm.bcast(_vectors(4)[0], root=np.int64(2)).values[0] is not None

    @pytest.mark.parametrize("root", [-1, 4, np.int64(4)])
    def test_out_of_range_root_is_rejected(self, root):
        with pytest.raises(ValueError, match=r"root must be in \[0, 4\)"):
            Cluster().communicator(4).bcast(_vectors(4)[0], root=root)

    @pytest.mark.parametrize("n_ranks", [True, False, 4.0, 2.5, "4", None])
    def test_non_integer_rank_count_is_rejected(self, n_ranks):
        with pytest.raises(ValueError, match="n_ranks must be an integer"):
            Cluster().communicator(n_ranks)

    @pytest.mark.parametrize("n_ranks", [0, -3, np.int64(0)])
    def test_rank_count_below_one_is_rejected(self, n_ranks):
        with pytest.raises(ValueError, match="n_ranks must be >= 1"):
            Cluster().communicator(n_ranks)

    def test_numpy_integer_rank_count_is_a_python_int(self):
        comm = Cluster().communicator(np.int64(4))
        assert comm.n_ranks == 4 and type(comm.n_ranks) is int

    def test_gather_reduce_have_no_compression_parameter(self):
        import inspect

        from repro.api import Communicator

        assert "compression" not in inspect.signature(Communicator.gather).parameters
        assert "compression" not in inspect.signature(Communicator.reduce).parameters


class TestSessionState:
    def test_traces_accumulate_in_order(self):
        comm = Cluster().communicator(2)
        vecs = _vectors(2)
        comm.allreduce(vecs, algorithm="ring")
        comm.allreduce(vecs, compression="di")
        assert comm.algorithm_trace == ["ring", "ring"]
        assert comm.compression_trace == ["AD", "DI"]

    def test_reduce_scatter_nd_is_the_ring_without_overlap(self):
        comm = Cluster(config=CCollConfig(error_bound=1e-3, size_multiplier=64.0)).communicator(4)
        x = np.linspace(0, 20, 65536)
        vecs = [(np.sin(x) * (1 + 1e-6 * r)).astype(np.float32) for r in range(4)]
        overlapped = comm.reduce_scatter(vecs, compression="on")
        plain = comm.reduce_scatter(vecs, compression="nd")
        # PIPE-SZx pipelining hides the reduce-scatter waits
        assert overlapped.total_time < plain.total_time
        assert overlapped.sim.category_seconds("Wait") < 0.1 * plain.sim.category_seconds("Wait")
        # the trace reflects the schedule that actually ran
        assert comm.compression_trace[-2:] == ["Overlap", "ND"]

    def test_reduce_scatter_nd_matches_the_pinned_non_overlapped_ring(self):
        """Makespans, rank times, values and traces on 3 fabrics x 5 sizes."""
        digest = hashlib.sha256()
        for preset, kwargs in (("flat", {}), ("two_level", {}), ("fat_tree", {"contention": "fair"})):
            for n in (1, 2, 3, 5, 8):
                comm = Cluster.from_preset(preset, **kwargs).communicator(n)
                x = np.linspace(0.0, 20.0, 4096)
                vecs = [(np.sin(x) * (1 + 1e-3 * r)).astype(np.float32) for r in range(n)]
                out = comm.reduce_scatter(vecs, compression="nd")
                case = (preset, n, out.total_time, out.sim.rank_times, comm.compression_trace)
                digest.update(repr(case).encode())
                for value in out.values:
                    arr = np.ascontiguousarray(value)
                    digest.update(f"{arr.dtype}{arr.shape}".encode())
                    digest.update(arr.tobytes())
        assert digest.hexdigest() == ND_REDUCE_SCATTER_DIGEST

    def test_empty_inputs_raise_value_error_on_auto(self):
        with pytest.raises(ValueError, match="expected 2 per-rank arrays, got 0"):
            Cluster().communicator(2).allreduce([])
