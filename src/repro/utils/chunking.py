"""Chunk partitioning helpers.

Both the pipelined compressor (PIPE-SZx) and the collective algorithms slice
flat arrays into contiguous chunks; the helpers here centralise that index
arithmetic (and its corner cases: empty arrays, chunk sizes larger than the
array, uneven splits).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["chunk_bounds", "split_counts", "split_displacements"]


def chunk_bounds(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Return ``(start, stop)`` index pairs covering ``range(total)`` in order.

    The final chunk may be shorter than ``chunk_size``.  ``total == 0`` yields
    an empty list.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    bounds = []
    start = 0
    while start < total:
        stop = min(start + chunk_size, total)
        bounds.append((start, stop))
        start = stop
    return bounds


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
