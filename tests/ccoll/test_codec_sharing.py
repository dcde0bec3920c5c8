"""Every payload through the codec once: the reconstruction a message carries and the codec tape.

Virtual time, values and payload bytes are pinned elsewhere (golden makespans,
``tests/workload/baseline_pin.json``); this file pins what the host does: how
often the codec really runs, who owns what comes back, and that a tape entry is
never served to a computation it does not belong to.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.ccoll.adapter import CodecTape
from repro.compression import PipelinedSZx, SZxCompressor, ZFPCompressor
from repro.compression.errors import CompressionError, UnsupportedDataError
from repro.workload import CollectiveCall, JobSpec, WorkloadEngine


class TestSharedEndpointDecode:
    def test_allreduce_decodes_every_message_once(self, codec_calls):
        """The ledger's ``allreduce_ccoll`` shape: 16 ranks on the fat tree, off / on / auto.

        ``on``: 15 x 16 reduce-scatter messages + 16 allgather blocks, each ring
        round compressed as one batch (15 + 1 ``compressed_nbytes`` calls);
        ``auto``: the topology-aware leader ring over the 8 node leaders, 7
        reduce-scatter rounds + the allgather's blocks, one batch of 8 each
        (7 + 1 calls; it was one codec call per message, 64, before).  No rank
        compresses on its own.  Each message carries the reconstruction its
        encoder made, so the decoder never runs (it ran once per message
        before, and once per receiver, 592 times, before that).
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
            "compress_bytes": 0, "compress": 0, "decompress": 0,
            "compressed_nbytes": 24, "nbytes_inputs": 320,
        }  # fmt: skip

    def test_no_simulation_packs_a_payload(self, codec_calls, monkeypatch):
        """A message carries its payload's length and reconstruction, never its
        bytes, so no codec packs one: not SZx or PIPE-SZx in an allreduce ``off``,
        ``on`` (PIPE-SZx reduce-scatter, SZx allgather) or ``auto`` (the leader
        ring), nor in a workload run with baselines, whose bcast roots compress
        on their own (a batch of one) and whose baselines replay a tape; and not
        ZFP ABS or FXR in a C-Coll ``on`` allgather or a CPR-P2P ``di`` ring."""

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"a simulation packed a {self.name} payload")

        for codec in (SZxCompressor, PipelinedSZx, ZFPCompressor):
            monkeypatch.setattr(codec, "compress_bytes", forbidden)
        comm = Cluster.from_preset("fat_tree", ranks_per_node=2).communicator(8)
        rng = np.random.default_rng(6)
        inputs = [rng.standard_normal(4096).astype(np.float32) for _ in range(8)]
        for mode in ("off", "on", "auto"):
            comm.allreduce(inputs, compression=mode)
        calls = tuple(
            CollectiveCall(op=op, msg_elems=2048, compression=mode)
            for op, mode in (("bcast", "on"), ("allreduce", "on"), ("allreduce", "auto"))
        )
        spec = JobSpec(job_id="j", n_ranks=4, iterations=2, seed=4, calls=calls)
        cluster = Cluster.from_preset("fat_tree", nodes=8, ranks_per_node=2, contention="fair")
        report = WorkloadEngine(cluster, policy="packed").run([spec], baseline=True)
        assert report.records[0].isolated is not None
        assert codec_calls["compress"] == 2 and codec_calls["compressed_nbytes"] > 0
        for name in ("zfp_abs", "zfp_fxr"):
            comm = Cluster(config=CCollConfig(codec=name)).communicator(8)
            for mode in ("on", "di"):
                comm.allreduce(inputs, compression=mode)

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


def _adapter(recorded, **config):
    """The one adapter of a plan made from ``config`` on the tape ``recorded``
    (``None``: no tape)."""
    tape = None if recorded is None else CodecTape(recorded)
    config = CCollConfig(codec_tape=tape, **config)
    return config.make_adapters(config.context(), 1)[0]


class TestCodecTape:
    def test_a_replay_skips_the_codec_and_changes_nothing(self, codec_calls):
        data = np.random.default_rng(1).standard_normal(2000)
        plain = _adapter(None)
        expected = plain.compress(data)
        recorded = []
        first = _adapter(recorded)
        messages = [first.compress(data)]
        # the plain call and the recorded one
        assert codec_calls["compress"] == 2 and len(recorded) == 1
        (_, entries), = recorded
        replay = _adapter(recorded)
        assert len(replay.warmed) == 1 and len(entries) == 1
        messages.append(replay.compress(data.copy()))  # an equal input, in another buffer
        assert codec_calls["compress"] == 2 and not replay.warmed
        assert len(entries) == 1  # a hit records nothing
        messages.append(replay.compress(data))  # past the end of the tape: recorded
        assert codec_calls["compress"] == 3 and len(entries) == 2
        for message in messages:
            assert message == expected
        # every call is still a call: the ratio statistics count them all
        assert (first.stats.count, replay.stats.count) == (1, 2)
        assert replay.overall_ratio() == plain.overall_ratio()
        decoded = [first.decompress(messages[0]), replay.decompress(messages[1])]
        assert np.array_equal(decoded[0], plain.decompress(expected))
        # what the tape holds never escapes writable, and holds nothing a caller owns
        assert decoded[0] is not decoded[1] and decoded[0].flags.writeable
        assert replay.decompress_shared(messages[1]) is first.decompress_shared(messages[0])
        for tape_input, _, tape_decoded in entries:
            assert not tape_input.flags.writeable and not tape_decoded.flags.writeable
            assert not np.shares_memory(tape_input, data)
            assert tape_input.tobytes() == data.tobytes()
        assert codec_calls["decompress"] == 0  # with a tape or without
        payload = plain.codec.compress_bytes(data)
        assert expected.real_nbytes == len(payload)
        assert decoded[0].tobytes() == plain.codec.decompress_bytes(payload).tobytes()

    def test_config_equality_ignores_the_tape(self):
        assert CCollConfig(codec_tape=CodecTape([])) == CCollConfig()
        assert "tape" not in repr(CCollConfig(codec_tape=CodecTape([])))

    def test_a_replay_serves_only_the_same_bits_under_the_same_codec(self, codec_calls):
        """Error bound, codec, dtype and the sign of zero all turn a replay into a miss."""
        # float32 values in [1, 2) read as finite float64 values pair by pair
        buffer = np.random.default_rng(2).uniform(1.0, 2.0, 8192).astype(np.float32).view(np.float64)
        assert np.isfinite(buffer).all()
        zeros = np.zeros(256)
        cases = [
            (dict(), buffer, dict(error_bound=1e-2), buffer),
            (dict(), buffer, dict(codec="zfp_abs"), buffer),
            (dict(), buffer, dict(codec="pipe_szx"), buffer),
            # the same bytes, read as twice as many float32
            (dict(), buffer, dict(), buffer.view(np.float32)),
            (dict(), zeros, dict(), -zeros),
            (dict(), -zeros, dict(), zeros),
        ]
        for recorded_under, recorded_data, config, data in cases:
            recorded = []
            _adapter(recorded, **recorded_under).compress(recorded_data)
            before = codec_calls["compress"]
            replay = _adapter(recorded, **config)
            message = replay.compress(data)
            assert not replay.warmed
            if config.get("codec") != "zfp_abs":  # the counting fixture watches SZx / PIPE-SZx
                assert codec_calls["compress"] == before + 1
            plain = _adapter(None, **config)
            assert message == plain.compress(data)
            restored = replay.decompress(message)
            assert restored.dtype == data.dtype
            payload = plain.codec.compress_bytes(data)
            assert message.real_nbytes == len(payload)
            assert restored.tobytes() == plain.codec.decompress_bytes(payload).tobytes()
            if not data.any():  # a zero keeps its sign through the codec
                assert np.array_equal(np.signbit(restored), np.signbit(data))

    def test_codec_errors_raise_the_same_and_are_never_recorded(self):
        recorded = []
        for adapter in (_adapter(None), _adapter(recorded), _adapter(recorded)):
            with pytest.raises(UnsupportedDataError, match="NaN or Inf"):
                adapter.compress(np.array([1.0, np.nan, 3.0]))
            # refused by the kernel itself, between quantising and filling ``restored``
            with pytest.raises(CompressionError, match="too small relative to the data range"):
                adapter.compress(np.array([0.0, 1e30]))
        assert recorded == [(CCollConfig().make_codec().describe(), [])]
        _adapter(recorded).compress(np.array([1.0, 2.0, 3.0]))
        assert len(recorded[0][1]) == 1
