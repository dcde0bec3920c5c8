"""The ``restored`` out-parameter: an encoder's reconstruction is the decoder's, byte for byte.

The simulated collectives compute with ``restored`` and never run the decoder,
so this differential (with the fuzzer's ``codec_roundtrip`` audit) is what ties
the two together: same dtype, same bytes — signs of zero and float32 rounding
included — and the same payload as a compress without it.  Block and chunk
sizes other than the codecs' go through the kernel with explicit lengths and
block size, and through codec subclasses whose class constants are those sizes.
"""

import functools

import numpy as np
import pytest

import repro.compression.szx as szx
from repro.compression import NullCompressor, PipelinedSZx, SZxCompressor, ZFPCompressor

SIZES = (1, 2, 127, 128, 129, 1_000, 5_120, 5_121, 15_552, 40_000)

#: (block size, chunk length; ``None``: the buffer is one chunk) of the kernel
#: geometries no codec constructor takes
GEOMETRIES = {"szx_block50": (50, None), "pipe_300_64": (64, 300), "pipe_1000_128": (128, 1000)}


def _at_geometry(name: str):
    """SZx (no chunk length) or PIPE-SZx at geometry ``name``: a subclass whose
    class constants are its block and chunk size, as no constructor takes them
    (the decoder reads both from the payload)."""
    block, chunk = GEOMETRIES[name]
    base, sizes = (SZxCompressor, {}) if chunk is None else (PipelinedSZx, {"chunk_elems": chunk})
    return type(name, (base,), {"block_size": block, **sizes})(error_bound=1e-3)


CODECS = {
    "szx_abs": lambda: SZxCompressor(error_bound=1e-3),
    "pipe_5120_128": lambda: PipelinedSZx(error_bound=1e-3),
    "zfp_abs": lambda: ZFPCompressor(mode="abs", error_bound=1e-3),
    "zfp_fxr": lambda: ZFPCompressor(mode="fxr", rate=8),
    "null": NullCompressor,
    **{name: functools.partial(_at_geometry, name) for name in GEOMETRIES},
}


def _fields(rng: np.random.Generator, n: int, dtype) -> dict:
    """The input classes of the differential, ``n`` values of ``dtype`` each."""
    sine = np.sin(np.linspace(0.0, 20.0, n)) + 0.05 * rng.standard_normal(n)
    # one float32 subnormal step below zero, or -0.0: a block's midpoint is half a
    # step, which the float32 medium rounds to -0.0.  Under a bound scaled to the
    # value range those blocks are non-constant, and a zero quant on a -0.0 medium
    # decodes to +0.0 only because the quant is an integer (a float rint keeps the sign)
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
    # zero and non-zero blocks side by side: only then do ZFP's decoders
    # zero-fill and scatter, so these two compare that branch with restored
    sparse = np.zeros(n)
    spikes = rng.integers(0, n, size=max(1, n // 50))
    sparse[spikes] = 5.0 * rng.standard_normal(spikes.size)
    fields["sparse"] = sparse
    fields["zero_heavy"] = np.where((np.arange(n) // 40) % 3 == 0, sine, 0.0)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_restored_under_a_range_scaled_bound(dtype):
    """A relative bound resolved by the caller (``1e-3 * value range``, as Figs.
    14-15 do): the denormal fields' blocks turn non-constant on -0.0 mediums."""
    rng = np.random.default_rng(2024)
    for n in SIZES:
        for field, data in _fields(rng, n, dtype).items():
            case = (np.dtype(dtype).name, n, field)
            value_range = float(np.max(data)) - float(np.min(data))
            codec = SZxCompressor(error_bound=1e-3 * (value_range or 1.0))
            restored = np.full(n, np.nan, dtype=dtype)
            payload = codec.compress_bytes(data, restored=restored)
            assert payload == codec.compress_bytes(data), case
            assert restored.tobytes() == codec.decompress_bytes(payload).tobytes(), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_the_kernels_restored_is_its_decode_at_any_geometry(geometry, dtype):
    block, chunk = GEOMETRIES[geometry]
    rng = np.random.default_rng(2024)
    for n in SIZES:
        lens = [min(chunk or n, n - start) for start in range(0, n, chunk or n)]
        for field, data in _fields(rng, n, dtype).items():
            case = (geometry, np.dtype(dtype).name, n, field)
            restored = np.full(n, np.nan, dtype=dtype)
            payloads = szx.compress_chunks(data, lens, block, 1e-3, restored)
            assert payloads == szx.compress_chunks(data, lens, block, 1e-3), case
            decoded = szx.decompress_chunks(payloads, lens)
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
