"""``compress_many`` against one ``compress_bytes`` call per array, byte for byte.

SZx with an absolute bound and PIPE-SZx compress a whole batch in one pass of
the chunked kernel (every input's chunks back to back); every other codec goes
through the base class's loop.  Either way each payload and each ``restored``
must equal what the input's own call produces, and an input that call refuses
must raise the same error class from the batch.
"""

import numpy as np
import pytest

import repro.compression.szx as szx
from repro.compression import NullCompressor, PipelinedSZx, SZxCompressor, ZFPCompressor

SIZES = (0, 1, 127, 128, 129, 5_120, 5_121, 15_552)

CODECS = {
    "szx_abs": lambda: SZxCompressor(error_bound=1e-3),
    "szx_rel": lambda: SZxCompressor(error_bound=1e-3, error_mode="rel"),
    "szx_block50": lambda: SZxCompressor(error_bound=1e-3, block_size=50),
    "pipe_5120_128": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=5120, block_size=128),
    "pipe_300_64": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=300, block_size=64),
    "pipe_1000_128": lambda: PipelinedSZx(error_bound=1e-3, chunk_elems=1000, block_size=128),
    "zfp_abs": lambda: ZFPCompressor(mode="abs", error_bound=1e-3),
    "null": NullCompressor,
}
#: the codecs whose batch is one kernel pass rather than the base class's loop
ONE_PASS = ("szx_abs", "szx_block50", "pipe_5120_128", "pipe_300_64", "pipe_1000_128")


def _field(kind: str, n: int, dtype, rng: np.random.Generator) -> np.ndarray:
    if kind == "sine_noise":
        values = np.sin(np.linspace(0.0, 20.0, n)) + 0.05 * rng.standard_normal(n)
    elif kind == "constant":
        values = np.full(n, 3.25)
    elif kind == "wide_range":
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 5.0, n)
    else:  # float32 subnormal steps below zero, or -0.0
        values = -float(np.finfo(np.float32).smallest_subnormal) * rng.integers(0, 2, n)
    return values.astype(dtype)


def _batch(dtype, seed: int = 2024):
    """Every size of every field, in an order that interleaves sizes and fields."""
    rng = np.random.default_rng(seed)
    kinds = ("sine_noise", "constant", "wide_range", "denormals")
    return [_field(kind, n, dtype, rng) for n in SIZES for kind in kinds]


def _one_by_one(codec, arrays):
    restoreds = [np.full(data.size, np.nan, dtype=data.dtype) for data in arrays]
    payloads = [codec.compress_bytes(data, restored) for data, restored in zip(arrays, restoreds)]
    return payloads, restoreds


def _assert_same_as_one_by_one(codec, arrays):
    expected, expected_restored = _one_by_one(codec, arrays)
    restoreds = [np.full(data.size, np.nan, dtype=data.dtype) for data in arrays]
    payloads = codec.compress_many(arrays, restoreds)
    assert len(payloads) == len(arrays)
    for index, (data, payload, restored) in enumerate(zip(arrays, payloads, restoreds)):
        case = (index, data.size, data.dtype.name)
        assert payload == expected[index], case
        assert restored.dtype == data.dtype, case
        assert restored.tobytes() == expected_restored[index].tobytes(), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_a_batch_is_its_inputs_compressed_one_by_one(codec_name, dtype):
    codec = CODECS[codec_name]()
    arrays = _batch(dtype)
    _assert_same_as_one_by_one(codec, arrays)  # the whole batch, 32 inputs
    _assert_same_as_one_by_one(codec, arrays[::-1][:7])  # another order, another mix
    for data in arrays[::5]:
        _assert_same_as_one_by_one(codec, [data])  # a batch of one
    _assert_same_as_one_by_one(codec, [arrays[0]] * 3)  # the same input three times
    assert codec.compress_many([], []) == []


@pytest.mark.parametrize("codec_name", ONE_PASS)
def test_one_kernel_pass_and_no_per_array_call(codec_name, monkeypatch):
    codec = CODECS[codec_name]()
    passes = []
    real = szx.compress_chunks

    def counted(*args, **kwargs):
        passes.append(args[0].size)
        return real(*args, **kwargs)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a one-pass batch called compress_bytes")

    arrays = _batch(np.float32)
    expected, _ = _one_by_one(codec, arrays)
    monkeypatch.setattr(szx, "compress_chunks", counted)
    monkeypatch.setattr(type(codec), "compress_bytes", forbidden)
    assert codec.compress_many(arrays, [np.empty_like(data) for data in arrays]) == expected
    assert passes == [sum(data.size for data in arrays)]


def test_a_batch_of_mixed_dtypes_is_still_exact():
    rng = np.random.default_rng(3)
    arrays = [_field("sine_noise", 600, dtype, rng) for dtype in (np.float32, np.float64) * 2]
    for name in ONE_PASS:
        _assert_same_as_one_by_one(CODECS[name](), arrays)


def _outcome(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        return type(error)
    return None


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_a_nan_anywhere_raises_what_the_per_array_call_raises(codec_name, where):
    codec = CODECS[codec_name]()
    rng = np.random.default_rng(11)
    arrays = [_field("sine_noise", n, np.float64, rng) for n in (129, 5_121, 300, 1, 15_552)]
    arrays[where][arrays[where].size // 2] = np.nan
    restoreds = [np.empty_like(data) for data in arrays]
    alone = _outcome(lambda: codec.compress_bytes(arrays[where], restoreds[where]))
    assert _outcome(lambda: codec.compress_many(arrays, restoreds)) is alone
    if codec_name != "null":  # the null codec stores whatever it is given
        assert alone is not None
