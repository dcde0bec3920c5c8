"""Tests for repro.utils.bitpack."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import bitpack
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
        # 9 and 17 end in a one-value group, 16 and 64 in a full one; at
        # widths 57-64 a value can straddle two 64-bit words
        for count in (1, 7, 8, 9, 15, 16, 17, 29, 64, 128):
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

    @pytest.mark.parametrize("nbits", [1, 7, 8, 9, 13, 24, 31, 57, 63])
    @pytest.mark.parametrize("count", [1, 5, 15, 16])
    def test_packs_strided_and_read_only_input_and_leaves_it_alone(self, nbits, count):
        """ZFP packs a column slice of its quants (``encoded[:, 1:]``) and
        decoders hand in read-only payload bytes: both are read as they are
        and neither is written to."""
        rng = np.random.default_rng(nbits * 100 + count)
        field = _edge_values(rng, (6, count + 1), nbits).astype(narrow_uint_dtype(nbits))
        field.setflags(write=False)
        before = field.copy()
        strided = field[:, 1:]
        assert not strided.flags.c_contiguous
        expected = self._reference(strided, nbits)
        assert pack_uint_bits_rows(strided, nbits) == expected
        assert pack_uint_bits_rows(field, nbits) == self._reference(field, nbits)
        np.testing.assert_array_equal(field, before)

        read_only = np.frombuffer(expected, np.uint8)
        assert not read_only.flags.writeable
        for buffer in (expected, read_only):
            decoded = unpack_uint_bits_rows(buffer, 6, count, nbits, dtype=None)
            np.testing.assert_array_equal(decoded, strided)

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

    @pytest.mark.parametrize("dtype, widths", [(np.uint8, (1, 3, 7, 8)), (np.uint16, (5, 9, 11, 16))])
    @pytest.mark.parametrize("count", [1, 7, 15, 128])
    def test_narrow_input_dtypes_keep_bits_shifted_past_their_width(self, dtype, widths, count):
        """The codecs hand in uint8 / uint16 values, and the packing kernel
        shifts them up to 63 bits into 64-bit words: every bit must survive
        whatever dtype numpy's promotion rules give a narrow array shifted
        by a 0-d uint64 amount."""
        rng = np.random.default_rng(count)
        nbits = np.array(widths * 3, dtype=np.int64)
        values = np.zeros((nbits.size, count), dtype=dtype)
        for i, w in enumerate(nbits):
            values[i] = _edge_values(rng, count, int(w))
        sizes, starts, total = self._layout(nbits, count)
        expected = b"".join(_pack_row_reference(row, int(w)) for row, w in zip(values, nbits))
        assert pack_width_classes(values, nbits, starts, total) == expected
        for w in widths:
            rows = values[nbits == w]
            assert pack_uint_bits_rows(rows, w) == b"".join(
                _pack_row_reference(row, w) for row in rows
            )
        decoded = unpack_width_classes(np.frombuffer(expected, np.uint8), nbits, starts, count)
        np.testing.assert_array_equal(decoded, values)

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

    def test_two_fields_share_one_region_with_gaps_up_to_its_last_byte(self):
        """ZFP's layout: a one-value DC row, then a 15-value detail row, per
        block, here with gap bytes between the blocks and the last detail row
        ending on the region's last byte.  Each field is packed into the same
        sentinel-filled region; the rows match Python-int packing and every
        byte no row names keeps its sentinel."""
        rng = np.random.default_rng(11)
        n_rows, detail = 40, 15
        nbits_dc = rng.integers(0, 20, size=n_rows).astype(np.int64)
        nbits_det = rng.integers(0, 13, size=n_rows).astype(np.int64)
        dc = np.zeros((n_rows, 1), dtype=np.uint64)
        det = np.zeros((n_rows, detail), dtype=np.uint64)
        for i in range(n_rows):
            if nbits_dc[i]:
                dc[i] = _edge_values(rng, 1, int(nbits_dc[i]))
            if nbits_det[i]:
                det[i] = _edge_values(rng, detail, int(nbits_det[i]))
        nbits_det[-1] = 11  # the last row is not empty, so it reaches the end
        det[-1] = _edge_values(rng, detail, 11)
        dc_sizes = row_nbytes(1, nbits_dc)
        piece_sizes = dc_sizes + row_nbytes(detail, nbits_det)
        gaps = rng.integers(1, 4, size=n_rows)  # before every block
        piece_starts = np.cumsum(piece_sizes + gaps) - piece_sizes
        total = int(piece_starts[-1] + piece_sizes[-1])

        expected = bytearray([0x5A]) * total
        for i in range(n_rows):
            dc_at = int(piece_starts[i])
            det_at = dc_at + int(dc_sizes[i])
            for row, w, at in ((dc[i], nbits_dc[i], dc_at), (det[i], nbits_det[i], det_at)):
                blob = _pack_row_reference(row, int(w))
                expected[at : at + len(blob)] = blob
        assert expected[-1] == 0  # the last row's zero tail, not the sentinel

        region = np.full(total, 0x5A, dtype=np.uint8)
        pack_width_classes(dc, nbits_dc, piece_starts, total, out=region)
        pack_width_classes(det, nbits_det, piece_starts + dc_sizes, total, out=region)
        assert region.tobytes() == bytes(expected)
        np.testing.assert_array_equal(
            unpack_width_classes(region, nbits_dc, piece_starts, 1), dc
        )
        np.testing.assert_array_equal(
            unpack_width_classes(region, nbits_det, piece_starts + dc_sizes, detail), det
        )

    def test_unpack_reads_strided_and_read_only_regions(self):
        """A strided slice and a read-only ``frombuffer`` region decode to what
        the contiguous region decodes to."""
        rng = np.random.default_rng(12)
        count = 9
        nbits = rng.integers(0, 17, size=30).astype(np.int64)
        values = np.zeros((nbits.size, count), dtype=np.uint64)
        for i, w in enumerate(nbits):
            if w:
                values[i] = _edge_values(rng, count, int(w))
        _, starts, total = self._layout(nbits, count)
        packed = pack_width_classes(values, nbits, starts, total)
        contiguous = unpack_width_classes(
            np.frombuffer(packed, np.uint8).copy(), nbits, starts, count
        )
        np.testing.assert_array_equal(contiguous, values)

        interleaved = np.full(2 * total, 0xFF, dtype=np.uint8)
        interleaved[::2] = np.frombuffer(packed, np.uint8)
        read_only = np.frombuffer(packed, np.uint8)
        assert not read_only.flags.writeable
        for region in (interleaved[::2], read_only):
            for dtype in (np.uint64, None):
                decoded = unpack_width_classes(region, nbits, starts, count, dtype=dtype)
                np.testing.assert_array_equal(decoded, contiguous)

    def test_packs_strided_read_only_values_and_leaves_them_alone(self):
        """ZFP packs its DC and detail fields as column slices of one quant
        matrix; the wrapper must read them as they are and write none of it."""
        rng = np.random.default_rng(13)
        n_rows, block = 40, 16
        nbits_dc = rng.integers(0, 12, size=n_rows).astype(np.int64)
        nbits_det = rng.integers(0, 12, size=n_rows).astype(np.int64)
        encoded = np.zeros((n_rows, block), dtype=np.uint16)
        for i in range(n_rows):
            if nbits_dc[i]:
                encoded[i, :1] = _edge_values(rng, 1, int(nbits_dc[i]))
            if nbits_det[i]:
                encoded[i, 1:] = _edge_values(rng, block - 1, int(nbits_det[i]))
        encoded.setflags(write=False)
        before = encoded.copy()
        for field, nbits in ((encoded[:, :1], nbits_dc), (encoded[:, 1:], nbits_det)):
            assert not field.flags.c_contiguous
            count = field.shape[1]
            _, starts, total = self._layout(nbits, count)
            packed = pack_width_classes(field, nbits, starts, total)
            assert packed == b"".join(
                _pack_row_reference(row, int(w)) for row, w in zip(field, nbits) if w
            )
            decoded = unpack_width_classes(
                np.frombuffer(packed, np.uint8), nbits, starts, count, dtype=None
            )
            np.testing.assert_array_equal(decoded, field)
        np.testing.assert_array_equal(encoded, before)

    def test_widths_over_64_are_refused_both_ways(self):
        """The wrappers call the kernels below the public entry points, so they
        check each class's width themselves."""
        nbits = np.array([65], dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        total = int(row_nbytes(1, 65))
        with pytest.raises(ValueError, match="nbits must be"):
            pack_width_classes(np.array([[1 << 20]], dtype=np.uint32), nbits, starts, total)
        with pytest.raises(ValueError, match="nbits must be"):
            unpack_width_classes(np.zeros(total, dtype=np.uint8), nbits, starts, 1)

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda total: np.full(2 * total, 0x33, dtype=np.uint8)[::2],
            lambda total: np.full((total, 1), 0x33, dtype=np.uint8),
            lambda total: np.full(total, 0x33, dtype=np.uint16),
        ],
        ids=["strided", "2-D", "uint16"],
    )
    def test_an_out_that_is_not_flat_contiguous_uint8_is_refused_unwritten(self, make_out):
        values = np.array([[5, 1], [2, 3]], dtype=np.uint64)
        nbits = np.array([3, 2], dtype=np.int64)
        _, starts, total = self._layout(nbits, 2)
        out = make_out(total)
        base = out if out.base is None else out.base
        before = base.copy()
        with pytest.raises(ValueError, match="1-D C-contiguous uint8"):
            pack_width_classes(values, nbits, starts, total, out=out)
        np.testing.assert_array_equal(base, before)

    def test_overwide_values_raise_not_truncate(self):
        """Narrowing to the widest class must never silently truncate a value
        that the documented per-row equivalent would reject."""
        values = np.array([[257]], dtype=np.uint64)
        nbits = np.array([8], dtype=np.int64)
        starts = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="do not fit"):
            pack_width_classes(values, nbits, starts, 1)


def _traced_peak(call):
    """``(bytes, result)``: what ``call()`` had allocated at its peak beyond what
    was live before it, and what it returned."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - live, result
    finally:
        if started:
            tracemalloc.stop()


class _PerByteWindows:
    """A planted placement: an int64 cursor for every byte of the rows placed
    (``starts[rows][:, None] + arange(per_row)``), as the width classes placed
    rows before each row got one cursor."""

    def __init__(self, region, per_row):
        self.region, self.per_row = region, per_row

    def _cursors(self, starts):
        return starts[:, None] + np.arange(self.per_row)

    def __setitem__(self, starts, rows):
        self.region[self._cursors(starts)] = rows.view(np.uint8).reshape(-1, self.per_row)

    def __getitem__(self, starts):
        return self.region[self._cursors(starts)]


class TestPlacementAllocatesNoPerBytePass:
    """Guards: placing a width class's rows adds no per-byte pass.

    ``pack_width_classes`` / ``unpack_width_classes`` place each row of a class
    at its cursor with one index per row; an index per byte would allocate
    8 bytes per placed byte.  The shapes are 1 M values as SZx lays them out
    (7 800 rows x 128, width 9) and as ZFP's detail field does (62 500 x 15,
    width 11), one width class each, so the placement handles every byte of
    the region.  Each direction's ``tracemalloc`` peak beyond the same class
    through its kernel alone (``pack_uint_bits_rows`` / ``unpack_uint_bits_rows``),
    and for unpack beyond the matrix it returns, stays under 4x the region:
    1.8x / 1.8x to pack and 1.1x / 1.4x to unpack, where the planted per-byte
    cursors read 7.3-8.4x.  Allocation sizes do not depend on the host, so
    this cannot flake as a time ratio can."""

    SHAPES = pytest.mark.parametrize(
        "n_rows, count, width", [(7_800, 128, 9), (62_500, 15, 11)], ids=["szx", "zfp_detail"]
    )
    BOUND = 4.0

    def _extra(self, n_rows, count, width):
        """Each direction's peak beyond its kernel, in region bytes."""
        values = np.random.default_rng(5).integers(0, 1 << width, (n_rows, count), np.uint16)
        nbits = np.full(n_rows, width, dtype=np.int64)
        starts = np.arange(n_rows) * int(row_nbytes(count, width))
        total = int(row_nbytes(count, width)) * n_rows
        region = np.zeros(total, dtype=np.uint8)
        pack, _ = _traced_peak(lambda: pack_width_classes(values, nbits, starts, total, out=region))
        pack_kernel, blob = _traced_peak(lambda: pack_uint_bits_rows(values, width))
        assert region.tobytes() == blob
        unpack, decoded = _traced_peak(
            lambda: unpack_width_classes(region, nbits, starts, count, dtype=None)
        )
        unpack_kernel, _ = _traced_peak(
            lambda: unpack_uint_bits_rows(blob, n_rows, count, width, dtype=None)
        )
        np.testing.assert_array_equal(decoded, values)
        return (pack - pack_kernel) / total, (unpack - decoded.nbytes - unpack_kernel) / total

    @SHAPES
    def test_each_direction_stays_under_a_per_byte_index(self, n_rows, count, width):
        pack, unpack = self._extra(n_rows, count, width)
        assert pack < self.BOUND and unpack < self.BOUND, (pack, unpack)

    @SHAPES
    def test_a_per_byte_placement_fails_the_bound(self, n_rows, count, width, monkeypatch):
        monkeypatch.setattr(bitpack, "_row_windows", _PerByteWindows)
        pack, unpack = self._extra(n_rows, count, width)
        assert pack > self.BOUND and unpack > self.BOUND, (pack, unpack)
