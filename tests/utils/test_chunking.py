"""Tests for repro.utils.chunking."""

import pytest

from repro.utils.chunking import chunk_bounds, split_counts, split_displacements


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(10, 5) == [(0, 5), (5, 10)]

    def test_uneven_split_last_chunk_short(self):
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_larger_than_total(self):
        assert chunk_bounds(3, 100) == [(0, 3)]

    def test_empty(self):
        assert chunk_bounds(0, 4) == []

    def test_covers_every_index_exactly_once(self):
        bounds = chunk_bounds(1000, 77)
        covered = [i for start, stop in bounds for i in range(start, stop)]
        assert covered == list(range(1000))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 4)
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)


class TestSplitCounts:
    def test_even(self):
        assert split_counts(12, 4) == [3, 3, 3, 3]

    def test_uneven_extra_goes_to_first_ranks(self):
        assert split_counts(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_elements(self):
        assert split_counts(2, 4) == [1, 1, 0, 0]

    def test_sum_is_total(self):
        for total in (0, 1, 17, 1000):
            for parts in (1, 3, 7, 16):
                assert sum(split_counts(total, parts)) == total

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            split_counts(10, 0)
        with pytest.raises(ValueError):
            split_counts(-1, 2)


class TestSplitDisplacements:
    def test_prefix_sum(self):
        assert split_displacements([3, 3, 2, 2]) == [0, 3, 6, 8]

    def test_empty(self):
        assert split_displacements([]) == []
