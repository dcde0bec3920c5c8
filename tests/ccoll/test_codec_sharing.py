"""Every payload through the codec once: the reconstruction a message carries and the codec memo.

Virtual time, values and payload bytes are pinned elsewhere (golden makespans,
``tests/workload/baseline_pin.json``); this file pins what the host does: how
often the codec really runs, who owns what comes back, and that a memo entry is
never served to a computation it does not belong to.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig, CodecMemo
from repro.compression.errors import CompressionError, UnsupportedDataError


class TestSharedEndpointDecode:
    def test_allreduce_decodes_every_message_once(self, codec_calls):
        """The ledger's ``allreduce_ccoll`` shape: 16 ranks on the fat tree, off / on / auto.

        ``on``: 15 x 16 reduce-scatter messages + 16 allgather blocks, each ring
        round compressed as one batch (15 + 1 ``compress_many`` calls, no rank
        compresses on its own); ``auto``: the topology-aware leader ring over
        the 8 node leaders, one codec call per message (7 x 8 + 8).  Each
        message carries the reconstruction its encoder made, so the decoder
        never runs (it ran once per message before, and once per receiver, 592
        times, before that).
        """
        cluster = Cluster.from_preset(
            "fat_tree", ranks_per_node=2, config=CCollConfig(codec="szx", size_multiplier=64)
        )
        comm = cluster.communicator(16)
        rng = np.random.default_rng(5)
        inputs = [rng.standard_normal(4096).astype(np.float32) for _ in range(16)]
        for mode in ("off", "on", "auto"):
            comm.allreduce(inputs, compression=mode)
        assert codec_calls == {
            "compress": 64, "decompress": 0, "compress_many": 16, "many_inputs": 256
        }  # fmt: skip

    @pytest.mark.parametrize("mode", ["on", "di"])
    @pytest.mark.parametrize("op", ["bcast", "allgather", "allreduce", "scatter"])
    def test_results_are_owned_by_their_rank(self, op, mode):
        """A caller may scribble on one rank's result: no other rank, and no later
        call, sees it (the reconstruction the ranks share never leaves the programs)."""
        comm = Cluster().communicator(4)
        rng = np.random.default_rng(9)
        data = [rng.standard_normal(3000) for _ in range(4)]

        def call():
            if op == "bcast":
                return comm.bcast(data[0], compression=mode).values
            return getattr(comm, op)(data, compression=mode).values

        def arrays(value):
            return value if isinstance(value, list) else [value]

        first = call()
        before = [[block.copy() for block in arrays(value)] for value in first]
        for index, block in enumerate(arrays(first[1])):
            if op == "allgather" and index == 1:
                continue  # a rank's own block is the caller's input array, as it always was
            assert block.flags.writeable
            assert not any(np.shares_memory(block, other) for other in arrays(first[2]))
            block[:] = np.inf
        second = call()
        for value, expected in ((first[2], before[2]), (second[1], before[1]), (second[2], before[2])):
            for block, same in zip(arrays(value), expected):
                assert np.array_equal(block, same)

    def test_the_shared_decode_is_read_only_and_a_private_one_is_not(self):
        config = CCollConfig()
        sender, one, other = config.make_adapters(config.context(), 3)
        message = sender.compress(np.linspace(0.0, 1.0, 500))
        shared = one.decompress_shared(message)
        assert other.decompress_shared(message) is shared
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
        private = one.decompress(message)
        assert private is not shared and private.flags.writeable
        assert np.array_equal(private, shared)
        # carried by the message, nowhere else: a new message has an array of its own
        assert one.decompress_shared(sender.compress(np.linspace(0.0, 1.0, 500))) is not shared


def _adapter(memo, **config):
    config = CCollConfig(codec_memo=memo, **config)
    return config.make_adapters(config.context(), 1)[0]


class TestCodecMemo:
    def test_a_hit_skips_the_codec_and_changes_nothing(self, codec_calls):
        data = np.random.default_rng(1).standard_normal(2000)
        plain = _adapter(None)
        expected = plain.compress(data)
        memo = CodecMemo()
        first, second = _adapter(memo), _adapter(memo)
        messages = [first.compress(data), second.compress(data), second.compress(data.copy())]
        assert codec_calls["compress"] == 2  # the memo-less one, and one for all three
        for message in messages:
            assert message == expected and message.payload == expected.payload
        # every call is still a call: the ratio statistics count them all
        assert (first.stats.count, second.stats.count) == (1, 2)
        assert second.overall_ratio() == plain.overall_ratio()
        decoded = [first.decompress(messages[0]), second.decompress(messages[1])]
        assert np.array_equal(decoded[0], plain.decompress(expected))
        # what the memo holds never escapes writable
        assert decoded[0] is not decoded[1] and decoded[0].flags.writeable
        assert not second.decompress_shared(messages[2]).flags.writeable
        assert second.decompress_shared(messages[2]) is first.decompress_shared(messages[0])
        assert codec_calls["decompress"] == 0  # with a memo or without
        assert np.array_equal(decoded[0], plain.codec.decompress(expected.payload))

    def test_config_equality_ignores_the_memo(self):
        assert CCollConfig(codec_memo=CodecMemo()) == CCollConfig()
        assert "memo" not in repr(CCollConfig(codec_memo=CodecMemo()))

    def test_the_same_bytes_under_another_computation_never_share_an_entry(self):
        """Error bound, codec, dtype and the sign of zero are all in the key."""
        # float32 values in [1, 2) read as finite float64 values pair by pair
        buffer = np.random.default_rng(2).uniform(1.0, 2.0, 8192).astype(np.float32).view(np.float64)
        assert np.isfinite(buffer).all()
        zeros = np.zeros(256)
        memo = CodecMemo()
        cases = [
            (dict(), buffer),
            (dict(error_bound=1e-2), buffer),
            (dict(codec="zfp_abs"), buffer),
            (dict(codec="pipe_szx"), buffer),
            (dict(), buffer.view(np.float32)),  # the same bytes as twice as many float32
            (dict(), zeros),
            (dict(), -zeros),
        ]
        for entries, (config, data) in enumerate(cases, start=1):
            through_memo = _adapter(memo, **config).compress(data)
            assert len(memo.compressed) == entries
            plain = _adapter(None, **config)
            assert through_memo == plain.compress(data)
            restored = _adapter(memo, **config).decompress(through_memo)
            assert restored.dtype == data.dtype
            assert np.array_equal(restored, plain.codec.decompress(through_memo.payload))
        assert np.signbit(_adapter(memo).decompress(_adapter(memo).compress(-zeros))).all()
        assert not np.signbit(_adapter(memo).decompress(_adapter(memo).compress(zeros))).any()

    def test_codec_errors_raise_the_same_and_are_never_stored(self):
        memo = CodecMemo()
        for adapter in (_adapter(None), _adapter(memo), _adapter(memo)):
            with pytest.raises(UnsupportedDataError, match="NaN or Inf"):
                adapter.compress(np.array([1.0, np.nan, 3.0]))
            # refused by the kernel itself, between quantising and filling ``restored``
            with pytest.raises(CompressionError, match="too small relative to the data range"):
                adapter.compress(np.array([0.0, 1e30]))
        assert not memo.compressed
        _adapter(memo).compress(np.array([1.0, 2.0, 3.0]))
        assert len(memo.compressed) == 1
