"""``compressed_nbytes`` against ``compress_bytes`` and ``decompress_bytes``: the
one differential between a simulated message and a real payload.

A simulated message carries its payload's length and its reconstruction, never
its bytes, and the simulated collectives compute with that reconstruction
without running the decoder.  So the batch call must return
``len(compress_bytes(data))`` for every input and fill every ``restored`` with
``decompress_bytes(compress_bytes(data))`` byte for byte: same dtype, signs of
zero and float32 rounding included.  SZx and PIPE-SZx count a batch in one
pass of the chunked kernel that packs nothing (every input's chunks back to
back); ZFP counts each input from its widths (ABS) or its geometry (FXR), and
``null`` from its size.  An input ``compress_bytes`` refuses must raise the
same error, class and text, from the batch.  Block and chunk sizes other than
the codecs' go through the kernel with explicit lengths and block size, and
through codec subclasses whose class constants are those sizes.

Each of these mutants of the length tails fails here (checked on a copy of the
codecs): the flag bytes off by one (``(per + 8) // 8`` or ``per // 8``), a
dropped width byte (``row_nbytes`` without the ``1 +``), a medium of fewer than
4 bytes, PIPE-SZx's index one size short or without its own header, an empty
SZx payload counted as 0 bytes, a batch that skips copying its reconstruction
back or copies it from the wrong offset, a refused batch that raises the
kernel's error instead of re-running the inputs one by one, PIPE-SZx's re-run
without its finiteness check; ZFP-ABS's zero flags off by one, one width byte
per block or 16-value detail rows, ZFP-FXR's blocks a byte short, ZFP-ABS
dequantising without its margin, ZFP without ``check_restored``, and
``null`` without its header.
"""

import functools

import numpy as np
import pytest

import repro.compression.szx as szx
from repro.compression import NullCompressor, PipelinedSZx, SZxCompressor, ZFPCompressor
from repro.utils.bitpack import bit_length_u64, zigzag_encode

#: empty, one value, block edges, ragged PIPE-SZx tails (5 121 and 192) and the
#: ledger's RTM chunk
SIZES = (0, 1, 127, 129, 192, 5_120, 5_121, 15_552)

#: (block size, chunk length; ``None``: an input is one chunk) of the kernel
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
    "zfp_fxr": lambda: ZFPCompressor(mode="fxr", rate=8.0),
    "null": NullCompressor,
    **{name: functools.partial(_at_geometry, name) for name in GEOMETRIES},
}
#: the codecs whose batch is one kernel pass rather than the base class's loop
ONE_PASS = ("szx_abs", "pipe_5120_128", *GEOMETRIES)


def _field(kind: str, n: int, dtype, rng: np.random.Generator) -> np.ndarray:
    if kind in ("sine_noise", "zero_heavy", "half_constant"):
        values = np.sin(np.linspace(0.0, 20.0, n)) + 0.05 * rng.standard_normal(n)
        if kind == "zero_heavy":  # runs of all-zero blocks between noisy ones
            values = np.where((np.arange(n) // 40) % 3 == 0, values, 0.0)
        elif kind == "half_constant":
            values[: n // 2] = 1.0
    elif kind == "sparse":  # zero and non-zero blocks side by side: ZFP's zero-fill and scatter
        values = np.where(np.arange(n) % 50 == 7, 5.0 * rng.standard_normal(n), 0.0)
    elif kind == "signed_zeros":
        values = np.where(rng.integers(0, 2, n) == 1, -0.0, 0.0)
    elif kind == "constant":
        values = np.full(n, 3.25)
    elif kind == "partly_constant":  # runs of flat blocks between noisy ones
        values = np.where(np.arange(n) % 700 < 350, 0.5, rng.standard_normal(n))
    elif kind == "wide_range":
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 5.0, n)
    elif kind == "one_sided":  # blocks ~2**20 from zero, spread within one float32 step
        sign = np.where(np.arange(n) // 1_000 % 2, -1.0, 1.0)
        values = sign * (2.0**20 + rng.uniform(0.001, 0.016, n))
    else:
        # one float32 subnormal step below zero, or -0.0: a block's midpoint is half
        # a step, which the float32 medium rounds to -0.0.  Under a bound scaled to
        # the value range those blocks are non-constant, and a zero quant on a -0.0
        # medium decodes to +0.0 only because the quant is an integer (a float rint
        # keeps the sign)
        values = -float(np.finfo(np.float32).smallest_subnormal) * rng.integers(0, 2, n)
    return values.astype(dtype)


KINDS = (
    "sine_noise", "constant", "partly_constant", "wide_range", "one_sided", "denormals",
    "signed_zeros", "sparse", "zero_heavy", "half_constant",
)  # fmt: skip


def _batch(dtype, seed: int = 2024):
    """Every size of every field, in an order that interleaves sizes and fields."""
    rng = np.random.default_rng(seed)
    return [_field(kind, n, dtype, rng) for n in SIZES for kind in KINDS]


def _one_by_one(codec, arrays):
    """Every array's payload, made on its own, and what that payload decodes to."""
    payloads = [codec.compress_bytes(data) for data in arrays]
    return payloads, [codec.decompress_bytes(payload) for payload in payloads]


def _assert_same_as_one_by_one(codec, arrays):
    expected, decoded = _one_by_one(codec, arrays)
    restoreds = [np.full(data.size, np.nan, dtype=data.dtype) for data in arrays]
    sizes = codec.compressed_nbytes(arrays, restoreds)
    assert sizes == [len(payload) for payload in expected]
    assert all(type(size) is int for size in sizes)
    for index, (data, restored) in enumerate(zip(arrays, restoreds)):
        case = (index, data.size, data.dtype.name)
        assert restored.dtype == decoded[index].dtype == data.dtype, case
        assert restored.tobytes() == decoded[index].tobytes(), case


def test_a_one_sided_block_has_its_medium_outside_its_range():
    """In float64, the float32 medium of a ``one_sided`` block rounds past its
    values (a float32 step at 2**20 is 1/8), so every offset, and every quant,
    has the block's sign: its width comes from one end of the row alone."""
    block = SZxCompressor.block_size
    rows = _field("one_sided", 120 * block, np.float64, np.random.default_rng(0)).reshape(-1, block)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    medium = ((lo + hi) * 0.5).astype(np.float32).astype(np.float64)
    assert (hi - lo > 2e-3).all()  # no block is constant at the tests' bound
    assert ((medium < lo) | (medium > hi)).mean() > 0.8  # all but those a sign change cuts


@pytest.mark.parametrize("block", [128, 50])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_a_width_is_that_of_the_widest_zigzag_code_in_its_row(dtype, block):
    """The widths come from each row's two ends; a width one bit too wide would
    still round-trip and count consistently, so the oracle is the row itself."""
    arrays = [data for data in _batch(dtype) if data.size]
    values = np.concatenate(arrays)
    _, const_mask, _, quants, nbits = szx._quantise(
        values, [data.size for data in arrays], block, 1e-3, None
    )
    widest = zigzag_encode(quants[~const_mask]).max(axis=1)
    assert nbits.tolist() == bit_length_u64(widest).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_a_batch_is_its_inputs_compressed_one_by_one(codec_name, dtype):
    codec = CODECS[codec_name]()
    arrays = _batch(dtype)
    _assert_same_as_one_by_one(codec, arrays)  # the whole batch, 80 inputs
    _assert_same_as_one_by_one(codec, arrays[::-1][:7])  # another order, another mix
    for data in arrays[::3]:
        _assert_same_as_one_by_one(codec, [data])  # a batch of one, as a rank compresses
    _assert_same_as_one_by_one(codec, [arrays[-5]] * 3)  # the same input three times
    assert codec.compressed_nbytes([], []) == []


@pytest.mark.parametrize("codec_name", list(CODECS))
def test_a_batch_of_mixed_dtypes_is_still_exact(codec_name):
    """One pass over float32 and float64 inputs together: a float32 value is exact
    in float64, and its reconstruction is rounded to float32 once, as alone."""
    rng = np.random.default_rng(3)
    arrays = [
        _field(kind, n, dtype, rng)
        for kind, n in (("sine_noise", 600), ("partly_constant", 5_121), ("constant", 1))
        for dtype in (np.float32, np.float64)
    ]
    _assert_same_as_one_by_one(CODECS[codec_name](), arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_a_range_scaled_bound_is_still_exact(dtype):
    """A relative bound resolved by the caller (``1e-3 * value range``, as Figs.
    14-15 do): the denormal fields' blocks turn non-constant on -0.0 mediums."""
    for data in _batch(dtype):
        value_range = float(np.max(data)) - float(np.min(data)) if data.size else 0.0
        _assert_same_as_one_by_one(SZxCompressor(error_bound=1e-3 * (value_range or 1.0)), [data])


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_a_ragged_batch_counts_what_its_chunks_compress_to(geometry, dtype):
    """Every input's chunks back to back, whatever the block and chunk size: each
    chunk's length is that of its payload in one packing pass, and the counting
    pass restores what the payloads decode to."""
    block, chunk = GEOMETRIES[geometry]
    arrays = [data for data in _batch(dtype) if data.size]
    lens = [
        min(chunk or data.size, data.size - start)
        for data in arrays
        for start in range(0, data.size, chunk or data.size)
    ]
    values = np.concatenate(arrays)
    restored = np.full(values.size, np.nan, dtype=dtype)
    payloads = szx.compress_chunks(values, lens, block, 1e-3)
    sizes = szx.chunk_nbytes(values, lens, block, 1e-3, restored)
    assert sizes.tolist() == [len(payload) for payload in payloads]
    decoded = szx.decompress_chunks(payloads, lens)
    assert restored.dtype == decoded.dtype
    assert restored.tobytes() == decoded.tobytes()


@pytest.mark.parametrize("codec_name", ONE_PASS)
def test_one_kernel_pass_and_nothing_packed(codec_name, monkeypatch):
    codec = CODECS[codec_name]()
    passes = []
    real = szx.chunk_nbytes

    def counted(*args, **kwargs):
        passes.append(args[0].size)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a length batch packed bits or called compress_bytes")

    arrays = _batch(np.float32)
    expected, _ = _one_by_one(codec, arrays)
    monkeypatch.setattr(szx, "chunk_nbytes", counted)
    monkeypatch.setattr(type(codec), "compress_bytes", forbidden)
    monkeypatch.setattr(szx, "pack_width_classes", forbidden)
    sizes = codec.compressed_nbytes(arrays, [np.empty_like(data) for data in arrays])
    assert sizes == [len(payload) for payload in expected]
    assert passes == [sum(data.size for data in arrays)]


def _outcome(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the class and text are what is compared
        return type(error), str(error)
    return None


#: what each refusal puts in one input (``None``: the input stays as it is)
REFUSALS = {
    "nan": lambda data: np.nan,
    "inf": lambda data: -np.inf,
    "anchor": lambda data: 1e300,  # beyond SZx's float32 anchors
    "width": lambda data: 1e30,  # ~2**99 quantisation steps of 2e-3
}


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("refusal", list(REFUSALS))
@pytest.mark.parametrize("codec_name", list(CODECS))
def test_a_refusal_raises_what_the_per_array_call_raises(codec_name, refusal, where):
    codec = CODECS[codec_name]()
    rng = np.random.default_rng(11)
    arrays = [_field("sine_noise", n, np.float64, rng) for n in (129, 5_121, 300, 1, 192)]
    arrays[where][arrays[where].size // 2] = REFUSALS[refusal](arrays[where])
    restoreds = [np.empty_like(data) for data in arrays]
    alone = _outcome(lambda: codec.compress_bytes(arrays[where]))
    assert _outcome(lambda: codec.compressed_nbytes(arrays, restoreds)) == alone
    if codec_name in ONE_PASS:
        assert alone is not None


def test_the_first_refused_input_is_the_one_that_raises():
    """The kernel checks the anchor range before the quantised width, so a batch
    whose first bad input is too wide for the bound and whose second overflows
    the anchors must still raise the first one's error."""
    rng = np.random.default_rng(5)
    arrays = [_field("sine_noise", 300, np.float64, rng) for _ in range(3)]
    arrays[0][7], arrays[2][9] = 1e30, 1e300
    restoreds = [np.empty_like(data) for data in arrays]
    for name in ONE_PASS:
        codec = CODECS[name]()
        alone = _outcome(lambda: codec.compress_bytes(arrays[0]))
        assert "too small relative to the data range" in alone[1]
        assert _outcome(lambda: codec.compressed_nbytes(arrays, restoreds)) == alone


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
        usable = np.zeros(256)
        with pytest.raises(ValueError, match="restored"):
            codec.compressed_nbytes([data, data], [usable, restored])
        assert not np.any(usable) and not np.any(restored), what
