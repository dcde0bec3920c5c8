"""Tests for the topology-aware C-Allreduce (compression on inter-node hops only).

Reached through the facade as ``Communicator.allreduce(compression="auto")`` on
a multi-rank-per-node cluster (the facade routes such clusters to the
topology-aware schedule with its ``compress_inter="auto"`` gate).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ccoll.computation as computation
from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.ccoll.adapter import CompressionAdapter, warm_round
from repro.datasets.rtm import generate_rtm_snapshot
from repro.mpisim import HierarchicalTopology, SharedUplinkTopology
from repro.mpisim.errors import RankProgramError
from repro.utils.chunking import split_counts, split_displacements


def _smooth_inputs(n_ranks: int, length: int = 4096):
    base = np.sin(np.linspace(0, 20, length))
    return [base * (1.0 + 1e-6 * rank) for rank in range(n_ranks)]


def _comm(n_ranks, topology, config=None):
    return Cluster(topology=topology, config=config).communicator(n_ranks)


class TestCorrectness:
    @pytest.mark.parametrize("n_ranks,ranks_per_node", [(8, 4), (12, 4), (9, 3), (6, 6), (5, 1)])
    def test_result_within_hop_bounded_error(self, n_ranks, ranks_per_node):
        error_bound = 1e-3
        inputs = _smooth_inputs(n_ranks)
        expected = np.sum(inputs, axis=0)
        topology = HierarchicalTopology(ranks_per_node=ranks_per_node)
        comm = _comm(n_ranks, topology, CCollConfig(error_bound=error_bound))
        outcome = comm.allreduce(inputs, compression="auto")
        # lossy hops are bounded by the inter-node ring: L-1 reduce-scatter
        # re-compressions plus one allgather round trip, each bounded by eb,
        # on partial sums of up to n_ranks terms.  The dedicated inter-node
        # links are faster than the codec break-even, so single-rank-per-node
        # placements may legitimately skip compression entirely — the bound
        # below holds either way.
        n_nodes = topology.n_nodes(n_ranks)
        tolerance = (n_nodes + 2) * error_bound * max(1, n_nodes)
        for rank in range(n_ranks):
            assert np.max(np.abs(outcome.value(rank) - expected)) <= tolerance

    def test_single_node_is_lossless(self):
        """All ranks on one node: no inter-node hop, so no compression at all."""
        inputs = _smooth_inputs(6)
        topology = HierarchicalTopology(ranks_per_node=6)
        outcome = _comm(6, topology).allreduce(inputs, compression="auto")
        np.testing.assert_allclose(
            outcome.value(0), np.sum(inputs, axis=0), rtol=1e-12, atol=1e-12
        )
        assert outcome.compression_ratio is None

    def test_compression_happens_only_on_leaders(self):
        """Non-leader ranks never touch the codec: their adapters stay unused."""
        inputs = _smooth_inputs(8)
        topology = HierarchicalTopology(ranks_per_node=4)
        comm = _comm(8, topology)
        outcome = comm.allreduce(inputs, compression="auto")
        assert comm.last_compression == "topology_aware"
        assert outcome.compression_ratio is not None
        assert outcome.compression_ratio > 1.0


class TestPerformance:
    def test_beats_uncompressed_ring_on_shared_uplinks(self):
        n_ranks = 8
        inputs = [arr * 1e3 for arr in _smooth_inputs(n_ranks, length=64 * 1024)]
        config = CCollConfig(error_bound=1e-3, size_multiplier=64.0)

        comm = _comm(n_ranks, SharedUplinkTopology(ranks_per_node=4), config)
        compressed = comm.allreduce(inputs, compression="auto")
        ring = comm.allreduce(inputs, algorithm="ring", compression="off")
        assert compressed.inter_compressed is True
        assert compressed.total_time < ring.total_time


# ----------------------------------------------------------------- leader warm
# The leader ring is compressed ahead of its programs, one round per codec call
# (``ring_rounds``).  Nothing the programs compute may change: the oracle is
# the same allreduce with the warm switched off, where every leader compresses
# on its own as it did before the warm existed.

#: placements whose nodes hold 1-5 ranks, unevenly, some of them not contiguous,
#: so the order in which ``_group_binomial_reduce`` adds a node's vectors shows
PLACEMENTS = {
    "uneven": [0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 3],
    "interleaved": [2, 0, 1, 0, 2, 0, 1, 0, 2, 3],
    "five-per-node": [rank // 5 for rank in range(13)],
    "three-per-node": [rank // 3 for rank in range(9)],
    "mostly-single": [0, 1, 1, 2, 3],
}


def _noisy_inputs(n_ranks: int, length: int = 4_097, dtype=np.float32):
    rng = np.random.default_rng(n_ranks)
    t = np.linspace(0.0, 6.0 * np.pi, length)
    return [(np.sin(t + rank) + 0.01 * rng.standard_normal(length)).astype(dtype)
            for rank in range(n_ranks)]  # fmt: skip


def _placed(placement):
    """A topology with ``placement`` on a fabric slow enough that ``auto`` compresses."""
    return HierarchicalTopology(placement=placement, inter_bandwidth=1e8)


def _auto(placement, inputs):
    comm = _comm(len(placement), _placed(placement))
    outcome = comm.allreduce(inputs, compression="auto")
    assert comm.last_compression == "topology_aware" and outcome.inter_compressed is True
    return outcome


def _replace_leader_warm(monkeypatch, warm):
    monkeypatch.setattr(computation, "warm_round", warm)


def _assert_same_outcome(outcome, oracle):
    assert outcome.total_time == oracle.total_time
    assert outcome.compression_ratio == oracle.compression_ratio
    for mine, expected in zip(outcome.values, oracle.values, strict=True):
        assert mine.dtype == expected.dtype and mine.tobytes() == expected.tobytes()


class TestLeaderWarm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("placement", list(PLACEMENTS))
    def test_every_leader_finds_its_rounds_compressed(
        self, placement, dtype, codec_calls, adapters, monkeypatch
    ):
        """One ``compressed_nbytes`` per round over the ``L`` leaders (``L - 1``
        reduce-scatter rounds and the allgather's blocks), no leader compressing on
        its own, and the outcome of the warm-off oracle bit for bit."""
        placement = PLACEMENTS[placement]
        leaders = len(set(placement))
        inputs = _noisy_inputs(len(placement), dtype=dtype)
        warmed = _auto(placement, inputs)
        assert codec_calls == {
            "compress_bytes": 0, "compress": 0, "decompress": 0,
            "compressed_nbytes": leaders, "nbytes_inputs": leaders**2,
        }  # fmt: skip
        assert all(not adapter.warmed for adapter in adapters)

        _replace_leader_warm(monkeypatch, lambda arrays, ranks: None)
        _assert_same_outcome(_auto(placement, inputs), warmed)
        assert codec_calls["compress"] == leaders**2

    def test_the_warm_keeps_at_most_one_round_ahead_of_a_leader(self, adapters, monkeypatch):
        """A round is compressed when a leader asks with an empty queue, so no queue
        ever holds more than the round in flight and the next one."""
        placement = PLACEMENTS["five-per-node"]
        deepest = []

        def watched(arrays, ranks):
            deepest.append(max(len(adapter.warmed) for adapter in ranks))
            return warm_round(arrays, ranks)

        _replace_leader_warm(monkeypatch, watched)
        _auto(placement, _noisy_inputs(len(placement)))
        assert len(deepest) == 3 and max(deepest) <= 1

    def test_a_one_node_communicator_has_no_leader_ring_to_warm(self, codec_calls, adapters):
        inputs = _noisy_inputs(4)
        comm = _comm(4, _placed([0, 0, 0, 0]))
        outcome = comm.allreduce(inputs, compression="auto")
        assert sum(codec_calls.values()) == 0
        assert all(adapter._warm is None for adapter in adapters)
        assert outcome.compression_ratio is None

    @pytest.mark.parametrize("sent_in", ["first-round", "allgather"])
    @pytest.mark.parametrize("codec", ["szx", "null"])
    def test_a_refused_round_raises_what_the_leader_raised(self, sent_in, codec, monkeypatch):
        """A NaN in a chunk leader 2 sends in the first reduce-scatter round, or in the
        reduced chunk it compresses for the allgather: the warm stops at that round
        and the leader raises what it raises with no warm (the null codec would
        store a NaN: what refuses it is the adapter's check)."""
        placement = PLACEMENTS["uneven"]
        leaders = sorted(set(placement))
        chunk = 1 if sent_in == "first-round" else 2
        inputs = _noisy_inputs(len(placement))
        counts = split_counts(inputs[0].size, len(leaders))
        inputs[placement.index(2) + 1][split_displacements(counts)[chunk] + 3] = np.nan
        comm = _comm(len(placement), _placed(placement), CCollConfig(codec=codec))

        def raised():
            with pytest.raises(RankProgramError) as error:
                comm.allreduce(inputs, compression="auto")
            return str(error.value)

        warmed = raised()
        assert "NaN or Inf" in warmed
        _replace_leader_warm(monkeypatch, lambda arrays, ranks: None)
        assert raised() == warmed

    def test_a_lying_warm_costs_codec_calls_never_a_value(self, codec_calls, monkeypatch):
        """One value off in the first chunk of the first round: the chunk's ``L - 1``
        reduce-scatter hops and the allgather block it ends in miss, so ``L`` leaders
        compress on their own, and the outcome is the warm's bit for bit."""
        placement = PLACEMENTS["interleaved"]
        leaders = len(set(placement))
        inputs = _noisy_inputs(len(placement))
        honest = _auto(placement, inputs)
        lied = []

        def lying(arrays, ranks):
            arrays = list(arrays)
            if not lied:
                arrays[0] = arrays[0].copy()
                arrays[0][5] += np.float32(1.0)
                lied.append(True)
            return warm_round(arrays, ranks)

        _replace_leader_warm(monkeypatch, lying)
        _assert_same_outcome(_auto(placement, inputs), honest)
        assert codec_calls["compress"] == leaders
        assert codec_calls["compressed_nbytes"] == 2 * leaders

    def test_the_ledger_shape_compresses_nothing_rank_by_rank(self, codec_calls, adapters):
        """``allreduce_ccoll``'s ``auto`` call: 16 ranks, 2 per node on the fat tree,
        the RTM field: 8 leaders, 8 rounds of 8 chunks of 31 104 values."""
        field = generate_rtm_snapshot(seed=0).flatten()
        rng = np.random.default_rng(7)
        inputs = [field + (2e-4 * rng.standard_normal(field.size)).astype(np.float32)
                  for _ in range(16)]  # fmt: skip
        comm = Cluster.from_preset(
            "fat_tree", ranks_per_node=2,
            config=CCollConfig(codec="szx", error_bound=1e-3, size_multiplier=64),
        ).communicator(16)  # fmt: skip
        sizes = []
        real = CompressionAdapter.compress

        def sized(self, data):
            sizes.append(data.size)
            return real(self, data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CompressionAdapter, "compress", sized)
            outcome = comm.allreduce(inputs, compression="auto")
        assert outcome.inter_compressed is True
        assert set(sizes) == {31_104} and len(sizes) == 64
        assert codec_calls == {
            "compress_bytes": 0, "compress": 0, "decompress": 0,
            "compressed_nbytes": 8, "nbytes_inputs": 64,
        }  # fmt: skip
        assert all(not adapter.warmed for adapter in adapters)
