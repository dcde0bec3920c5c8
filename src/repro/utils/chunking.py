"""Chunk partitioning helpers.

The collective algorithms split flat arrays into one contiguous block per
rank; the helpers here centralise that index arithmetic (and its corner
cases: empty arrays, more ranks than elements, uneven splits).
"""

from __future__ import annotations

from typing import List

__all__ = ["split_counts", "split_displacements"]


def split_counts(total: int, parts: int) -> List[int]:
    """Split ``total`` elements into ``parts`` nearly-equal counts (MPI-style).

    The first ``total % parts`` parts receive one extra element, matching the
    convention used by MPICH when dividing a buffer among ranks.
    """
    if parts <= 0:
        raise ValueError(f"parts must be > 0, got {parts}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def split_displacements(counts: List[int]) -> List[int]:
    """Return the exclusive prefix sum (displacements) of ``counts``."""
    displs = [0] * len(counts)
    for i in range(1, len(counts)):
        displs[i] = displs[i - 1] + counts[i - 1]
    return displs
