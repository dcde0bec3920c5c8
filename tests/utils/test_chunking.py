"""Tests for repro.utils.chunking."""

import pytest

from repro.utils.chunking import split_counts, split_displacements


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


@pytest.mark.parametrize(
    "total, parts",
    [(0, 1), (0, 4), (1, 4), (10, 4), (12, 4), (17, 16), (1000, 7), (5, 5)],
)
def test_counts_and_displacements_tile_every_index_once(total, parts):
    """Rank ``r`` owns ``[displs[r], displs[r] + counts[r])``: the blocks cover
    ``range(total)`` exactly once, in rank order, and differ by at most one."""
    counts = split_counts(total, parts)
    displs = split_displacements(counts)
    assert len(counts) == len(displs) == parts
    owned = [i for start, n in zip(displs, counts) for i in range(start, start + n)]
    assert owned == list(range(total))
    assert max(counts) - min(counts) <= 1
    assert counts == sorted(counts, reverse=True)  # the extras go to the first ranks
