"""Tests for repro.utils.bitpack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.bitpack import (
    bit_length_u64,
    narrow_signed_dtype,
    narrow_uint_dtype,
    pack_uint_bits,
    pack_uint_bits_rows,
    pack_width_classes,
    row_nbytes,
    unpack_uint_bits,
    unpack_uint_bits_rows,
    unpack_width_classes,
    zigzag_decode,
    zigzag_encode,
)


class TestPackUnpack:
    def test_round_trip_small(self):
        values = np.array([0, 1, 2, 3, 7, 5], dtype=np.uint64)
        packed = pack_uint_bits(values, 3)
        out = unpack_uint_bits(packed, len(values), 3)
        np.testing.assert_array_equal(out, values)

    def test_round_trip_various_widths(self):
        rng = np.random.default_rng(0)
        for nbits in (1, 2, 5, 8, 13, 17, 31, 40):
            values = rng.integers(0, 2**nbits, size=257, dtype=np.uint64)
            packed = pack_uint_bits(values, nbits)
            out = unpack_uint_bits(packed, len(values), nbits)
            np.testing.assert_array_equal(out, values)

    def test_packed_length(self):
        values = np.arange(10, dtype=np.uint64)
        packed = pack_uint_bits(values, 4)
        assert len(packed) == (10 * 4 + 7) // 8

    def test_zero_bits_is_empty(self):
        assert pack_uint_bits(np.array([0, 0], dtype=np.uint64), 0) == b""
        np.testing.assert_array_equal(
            unpack_uint_bits(b"", 5, 0), np.zeros(5, dtype=np.uint64)
        )

    def test_empty_values(self):
        assert pack_uint_bits(np.array([], dtype=np.uint64), 7) == b""
        assert unpack_uint_bits(b"", 0, 7).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            pack_uint_bits(np.array([8], dtype=np.uint64), 3)

    def test_truncated_buffer_rejected(self):
        values = np.arange(100, dtype=np.uint64)
        packed = pack_uint_bits(values, 7)
        with pytest.raises(ValueError, match="too small"):
            unpack_uint_bits(packed[:-5], 100, 7)

    def test_invalid_nbits_rejected(self):
        with pytest.raises(ValueError):
            pack_uint_bits(np.array([1], dtype=np.uint64), 65)
        with pytest.raises(ValueError):
            unpack_uint_bits(b"\x00", 1, -1)


class TestBitLength:
    def test_matches_int_bit_length(self):
        values = np.array([0, 1, 2, 3, 7, 8, 255, 256, 2**31, 2**48 - 1, 2**63], dtype=np.uint64)
        expected = [int(v).bit_length() for v in values]
        np.testing.assert_array_equal(bit_length_u64(values), expected)

    def test_powers_of_two_boundaries(self):
        """Values adjacent to powers of two — exactly where a float round-trip lies."""
        exps = np.arange(1, 64, dtype=np.uint64)
        powers = np.uint64(1) << exps
        np.testing.assert_array_equal(bit_length_u64(powers), exps + 1)
        np.testing.assert_array_equal(bit_length_u64(powers - np.uint64(1)), exps)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    def test_every_power_of_two_neighbourhood(self, dtype):
        """``2**k - 1, 2**k, 2**k + 1`` for every ``k`` the dtype holds — exactly
        where a float path lies unless every integer it sees is exact."""
        top = np.iinfo(dtype).max
        values = sorted({v for k in range(65) for v in (2**k - 1, 2**k, 2**k + 1) if v <= top})
        assert top in values
        got = bit_length_u64(np.array(values, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [v.bit_length() for v in values]

    def test_signed_and_nested_input(self):
        assert bit_length_u64([[0, 1], [255, 256]]).tolist() == [[0, 1], [8, 9]]
        assert bit_length_u64(np.array([5, 2**40], dtype=np.int64)).tolist() == [3, 41]


class TestZigzag:
    def test_known_mapping(self):
        q = np.array([0, -1, 1, -2, 2, -3], dtype=np.int64)
        np.testing.assert_array_equal(zigzag_encode(q), [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(zigzag_decode(np.arange(6, dtype=np.uint64)), q)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_round_trip_preserves_width(self, dtype):
        info = np.iinfo(dtype)
        q = np.array([0, 1, -1, info.max // 2, -(info.max // 2) - 1], dtype=dtype)
        encoded = zigzag_encode(q)
        assert encoded.dtype == np.dtype(f"u{np.dtype(dtype).itemsize}")
        decoded = zigzag_decode(encoded)
        assert decoded.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(decoded, q)

    def test_narrow_and_wide_agree(self):
        """The codec hot paths rely on zigzag being width-independent."""
        rng = np.random.default_rng(5)
        q = rng.integers(-(2**14), 2**14, size=1000)
        np.testing.assert_array_equal(
            zigzag_encode(q.astype(np.int16)).astype(np.uint64),
            zigzag_encode(q.astype(np.int64)),
        )
        u = zigzag_encode(q.astype(np.int64))
        np.testing.assert_array_equal(
            zigzag_decode(u.astype(np.uint16)).astype(np.int64), zigzag_decode(u)
        )

    def test_python_list_input(self):
        np.testing.assert_array_equal(zigzag_encode([2, -2]), [4, 3])
        np.testing.assert_array_equal(zigzag_decode([4, 3]), [2, -2])


class TestNarrowDtypes:
    def test_uint_widths(self):
        assert narrow_uint_dtype(0) == np.uint8
        assert narrow_uint_dtype(8) == np.uint8
        assert narrow_uint_dtype(9) == np.uint16
        assert narrow_uint_dtype(17) == np.uint32
        assert narrow_uint_dtype(48) == np.uint64

    @pytest.mark.parametrize("nbits", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
    def test_uint_width_is_the_narrowest_that_holds_every_value(self, nbits):
        dtype = narrow_uint_dtype(nbits)
        assert np.iinfo(dtype).max == 2 ** (8 * dtype.itemsize) - 1 >= 2**nbits - 1
        assert dtype.itemsize == 1 or 2 ** (4 * dtype.itemsize) - 1 < 2**nbits - 1
        top = np.array([2**nbits - 1], dtype=np.uint64)
        assert int(top.astype(dtype)[0]) == 2**nbits - 1

    def test_signed_bounds(self):
        assert narrow_signed_dtype(100.0) == np.int16
        assert narrow_signed_dtype(2.0**20) == np.int32
        assert narrow_signed_dtype(2.0**40) == np.int64
        assert narrow_signed_dtype(float("nan")) == np.int64
        assert narrow_signed_dtype(float("inf")) == np.int64


def _pack_row_reference(row, nbits) -> bytes:
    """One row in Python-int arithmetic: MSB first, zero-padded to a whole byte."""
    acc = 0
    for value in row:
        acc = (acc << nbits) | int(value)
    nbytes = (len(row) * nbits + 7) // 8
    return (acc << (nbytes * 8 - len(row) * nbits)).to_bytes(nbytes, "big")


def _unpack_row_reference(blob: bytes, count: int, nbits: int) -> list:
    """Inverse of :func:`_pack_row_reference`, again on Python ints only."""
    acc = int.from_bytes(blob, "big") >> (len(blob) * 8 - count * nbits)
    mask = (1 << nbits) - 1
    return [(acc >> (nbits * (count - 1 - i))) & mask for i in range(count)]


def _edge_values(rng, shape, nbits) -> np.ndarray:
    """Random ``nbits``-wide values with the all-ones and all-zeros words present."""
    values = rng.integers(0, 2**nbits, size=shape, dtype=np.uint64)
    values.flat[0] = 2**nbits - 1
    values.flat[-1] = 0
    return values


class TestPackRows:
    def _reference(self, values, nbits):
        # independent of the kernels under test (pack_uint_bits *is*
        # pack_uint_bits_rows on one row)
        return b"".join(_pack_row_reference(row, nbits) for row in values)

    @pytest.mark.parametrize("nbits", range(1, 65))
    def test_every_width_against_python_int_arithmetic(self, nbits):
        rng = np.random.default_rng(1000 + nbits)
        for count in (1, 7, 8, 15, 29, 128):
            values = _edge_values(rng, (3, count), nbits)
            per_row = (count * nbits + 7) // 8
            assert per_row == int(row_nbytes(count, nbits))
            packed = self._reference(values, nbits)
            assert pack_uint_bits_rows(values, nbits) == packed
            assert pack_uint_bits(values[1], nbits) == packed[per_row : 2 * per_row]
            expected = [
                _unpack_row_reference(packed[i * per_row : (i + 1) * per_row], count, nbits)
                for i in range(3)
            ]
            assert expected == values.tolist()
            for dtype in (np.uint64, None):
                decoded = unpack_uint_bits_rows(packed, 3, count, nbits, dtype=dtype)
                assert decoded.tolist() == expected
            assert unpack_uint_bits(packed[:per_row], count, nbits).tolist() == expected[0]

    @pytest.mark.parametrize("nbits", [1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 48])
    def test_matches_per_row_packing(self, nbits):
        rng = np.random.default_rng(nbits)
        values = rng.integers(0, 2**min(nbits, 48), size=(13, 29), dtype=np.uint64)
        batched = pack_uint_bits_rows(values, nbits)
        assert batched == self._reference(values, nbits)
        np.testing.assert_array_equal(
            unpack_uint_bits_rows(batched, 13, 29, nbits), values
        )

    def test_narrow_result_dtype(self):
        values = np.array([[1, 2, 3]], dtype=np.uint64)
        out = unpack_uint_bits_rows(pack_uint_bits_rows(values, 5), 1, 3, 5, dtype=None)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, values)

    def test_zero_width_and_empty(self):
        assert pack_uint_bits_rows(np.zeros((4, 8), dtype=np.uint64), 0) == b""
        assert pack_uint_bits_rows(np.zeros((0, 8), dtype=np.uint64), 5) == b""
        assert unpack_uint_bits_rows(b"", 4, 8, 0).shape == (4, 8)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_uint_bits_rows(np.zeros(4, dtype=np.uint64), 3)

    def test_truncated_buffer_rejected(self):
        values = np.ones((5, 10), dtype=np.uint64)
        packed = pack_uint_bits_rows(values, 6)
        with pytest.raises(ValueError, match="too small"):
            unpack_uint_bits_rows(packed[:-1], 5, 10, 6)

    @given(
        n_rows=st.integers(0, 9),
        count=st.integers(0, 40),
        nbits=st.integers(0, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_round_trip(self, n_rows, count, nbits, seed):
        rng = np.random.default_rng(seed)
        high = 2**nbits if nbits else 1
        values = rng.integers(0, high, size=(n_rows, count), dtype=np.uint64)
        packed = pack_uint_bits_rows(values, nbits)
        assert len(packed) == (n_rows * int(row_nbytes(count, nbits)) if count else 0)
        out = unpack_uint_bits_rows(packed, n_rows, count, nbits)
        if nbits == 0:
            np.testing.assert_array_equal(out, np.zeros((n_rows, count), dtype=np.uint64))
        else:
            np.testing.assert_array_equal(out, values)


class TestWidthClasses:
    def _layout(self, nbits, count):
        sizes = row_nbytes(count, nbits)
        starts = np.cumsum(sizes) - sizes
        return sizes, starts, int(sizes.sum())

    def test_matches_sequential_packing(self):
        rng = np.random.default_rng(1)
        count = 17
        nbits = np.array([3, 0, 7, 3, 12, 0, 7, 7], dtype=np.int64)
        values = np.zeros((len(nbits), count), dtype=np.uint64)
        for i, w in enumerate(nbits):
            if w:
                values[i] = rng.integers(0, 2 ** int(w), size=count)
        _, starts, total = self._layout(nbits, count)
        region = pack_width_classes(values, nbits, starts, total)
        assert region == b"".join(pack_uint_bits(row, int(w)) for row, w in zip(values, nbits))
        decoded = unpack_width_classes(
            np.frombuffer(region, dtype=np.uint8), nbits, starts, count
        )
        np.testing.assert_array_equal(decoded, values)

    def test_single_class_and_empty(self):
        values = np.full((3, 5), 6, dtype=np.uint64)
        nbits = np.full(3, 3, dtype=np.int64)
        _, starts, total = self._layout(nbits, 5)
        region = pack_width_classes(values, nbits, starts, total)
        np.testing.assert_array_equal(
            unpack_width_classes(np.frombuffer(region, np.uint8), nbits, starts, 5), values
        )
        empty = pack_width_classes(
            np.zeros((0, 5), dtype=np.uint64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), 0,
        )
        assert empty == b""

    def test_scatter_into_provided_region(self):
        """The out= form interleaves several fields in one region (ZFP layout)."""
        values = np.array([[5], [2]], dtype=np.uint64)
        nbits = np.array([3, 2], dtype=np.int64)
        sizes, starts, total = self._layout(nbits, 1)
        region = np.zeros(total, dtype=np.uint8)
        returned = pack_width_classes(values, nbits, starts, total, out=region)
        assert returned is region
        assert region.tobytes() == pack_width_classes(values, nbits, starts, total)

    @given(
        widths=st.lists(st.integers(0, 48), min_size=0, max_size=12),
        count=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_ragged_classes_round_trip(self, widths, count, seed):
        """Ragged width mixes (duplicate, empty, and zero-width classes) round-trip
        and match per-row sequential packing byte for byte."""
        rng = np.random.default_rng(seed)
        nbits = np.asarray(widths, dtype=np.int64)
        values = np.zeros((len(widths), count), dtype=np.uint64)
        for i, w in enumerate(widths):
            if w:
                values[i] = rng.integers(0, 2**w, size=count, dtype=np.uint64)
        sizes = row_nbytes(count, nbits)
        starts = np.cumsum(sizes) - sizes
        total = int(sizes.sum())
        region = pack_width_classes(values, nbits, starts, total)
        assert region == b"".join(
            pack_uint_bits(row, int(w)) for row, w in zip(values, nbits)
        )
        decoded = unpack_width_classes(
            np.frombuffer(region, dtype=np.uint8), nbits, starts, count, dtype=None
        )
        np.testing.assert_array_equal(decoded.astype(np.uint64), values)

    @pytest.mark.parametrize("count", [1, 7, 8, 15, 29, 128])
    def test_ragged_widths_with_gaps_against_python_int_arithmetic(self, count):
        """Rows of every width class, out of width order, at cursors with gaps
        between them: each row lands where its cursor says, byte for byte what
        Python-int packing gives, and the gaps are left alone."""
        rng = np.random.default_rng(count)
        widths = [64, 0, 3, 17, 3, 49, 8, 0, 33, 1, 63, 24, 17, 5]
        nbits = np.asarray(widths, dtype=np.int64)
        values = np.zeros((len(widths), count), dtype=np.uint64)
        for i, w in enumerate(widths):
            if w:
                values[i] = _edge_values(rng, count, w)
        sizes = row_nbytes(count, nbits)
        gaps = rng.integers(0, 4, size=len(widths))
        starts = np.cumsum(sizes + gaps) - sizes
        total = int(starts[-1] + sizes[-1]) + 2

        def expected(fill: int) -> bytes:
            region = bytearray([fill]) * total
            for row, w, start in zip(values, widths, starts):
                blob = _pack_row_reference(row, w)
                region[start : start + len(blob)] = blob
            return bytes(region)

        region = np.full(total, 0xAA, dtype=np.uint8)
        assert pack_width_classes(values, nbits, starts, total, out=region) is region
        assert region.tobytes() == expected(0xAA)
        assert pack_width_classes(values, nbits, starts, total) == expected(0)
        for dtype in (np.uint64, None):
            decoded = unpack_width_classes(region, nbits, starts, count, dtype=dtype)
            assert decoded.tolist() == values.tolist()

    def test_overwide_values_raise_not_truncate(self):
        """Narrowing to the widest class must never silently truncate a value
        that the documented per-row equivalent would reject."""
        values = np.array([[257]], dtype=np.uint64)
        nbits = np.array([8], dtype=np.int64)
        starts = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="do not fit"):
            pack_width_classes(values, nbits, starts, 1)
