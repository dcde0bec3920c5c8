"""The ``restored`` out-parameter: an encoder's reconstruction is the decoder's, byte for byte.

The simulated collectives compute with ``restored`` and never run the decoder,
so this differential (with the fuzzer's ``codec_roundtrip`` audit) is what ties
the two together: same dtype, same bytes — signs of zero and float32 rounding
included — and the same payload as a compress without it.
"""

import numpy as np
import pytest

from repro.compression import NullCompressor, PipelinedSZx, SZxCompressor, ZFPCompressor

SIZES = (1, 2, 127, 128, 129, 1_000, 5_120, 5_121, 15_552, 40_000)

CODECS = {
    "szx_abs": lambda: SZxCompressor(error_bound=1e-3),
    "szx_rel": lambda: SZxCompressor(error_bound=1e-3, error_mode="rel"),
    "szx_block50": lambda: SZxCompressor(error_bound=1e-3, block_size=50),
    "pipe_5120_128": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=5120, block_size=128),
    "pipe_300_64": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=300, block_size=64),
    "pipe_1000_128": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=1000, block_size=128),
    "zfp_abs": lambda: ZFPCompressor(mode="abs", error_bound=1e-3),
    "zfp_fxr": lambda: ZFPCompressor(mode="fxr", rate=8),
    "null": NullCompressor,
}


def _fields(rng: np.random.Generator, n: int, dtype) -> dict:
    """The input classes of the differential, ``n`` values of ``dtype`` each."""
    sine = np.sin(np.linspace(0.0, 20.0, n)) + 0.05 * rng.standard_normal(n)
    # one float32 subnormal step below zero, or -0.0: a block's midpoint is half a
    # step, which the float32 medium rounds to -0.0.  Under a relative bound those
    # blocks are non-constant, and a zero quant on a -0.0 medium decodes to +0.0
    # only because the quant is an integer (a float rint keeps the sign)
    denormals = -float(np.finfo(np.float32).smallest_subnormal) * rng.integers(0, 2, n)
    half = sine.copy()
    half[: n // 2] = 1.0
    fields = {
        "sine_noise": sine,
        "constant": np.full(n, 3.25),
        "wide_range": rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 5.0, n),
        "denormals": denormals,
        "signed_zeros": np.where(rng.integers(0, 2, n) == 1, -0.0, 0.0),
        "half_constant": half,
    }
    return {name: values.astype(dtype) for name, values in fields.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_restored_is_the_decode_byte_for_byte(codec_name, dtype):
    codec = CODECS[codec_name]()
    rng = np.random.default_rng(2024)
    for n in SIZES:
        for field, data in _fields(rng, n, dtype).items():
            case = (codec_name, np.dtype(dtype).name, n, field)
            restored = np.full(n, np.nan, dtype=dtype)
            payload = codec.compress_bytes(data, restored=restored)
            assert payload == codec.compress_bytes(data), case
            decoded = codec.decompress_bytes(payload)
            assert restored.dtype == decoded.dtype, case
            assert restored.tobytes() == decoded.tobytes(), case


def test_the_buffer_wrapper_passes_restored_through():
    data = np.random.default_rng(4).standard_normal(3_000)
    for codec in (SZxCompressor(error_bound=1e-3), PipelinedSZx(error_bound=1e-3)):
        restored = np.empty_like(data)
        buf = codec.compress(data, restored=restored)
        assert buf == codec.compress(data)
        assert np.array_equal(restored, codec.decompress(buf))


@pytest.mark.parametrize("codec_name", list(CODECS))
def test_an_unusable_restored_is_refused_before_any_work(codec_name):
    codec = CODECS[codec_name]()
    data = np.linspace(0.0, 1.0, 256)
    read_only = np.zeros(256)
    read_only.setflags(write=False)
    unusable = {
        "size": np.zeros(255),
        "dtype": np.zeros(256, dtype=np.float32),
        "dimensionality": np.zeros((2, 128)),
        "writability": read_only,
        "contiguity": np.zeros(512)[::2],
        "type": [0.0] * 256,
    }
    for what, restored in unusable.items():
        for call in (codec.compress_bytes, codec.compress):
            with pytest.raises(ValueError, match="restored"):
                call(data, restored=restored)
        assert not np.any(restored), what
