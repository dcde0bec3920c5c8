"""Compression-ratio bookkeeping.

Tables II and VI of the paper report min/avg/max compression ratios over many
files of a dataset; the harness reduces the per-file ratios to that triple with
:func:`aggregate_ratio_stats`.  :class:`CompressionStats` accumulates the
outcomes of one rank's compressions, from which a collective reports its
overall ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["compression_ratio", "CompressionStats", "aggregate_ratio_stats"]


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Original size divided by compressed size (larger is better)."""
    if original_nbytes < 0 or compressed_nbytes < 0:
        raise ValueError("byte counts must be non-negative")
    if compressed_nbytes == 0:
        if original_nbytes == 0:
            return 1.0
        raise ValueError("compressed_nbytes is zero for non-empty data")
    return float(original_nbytes) / float(compressed_nbytes)


@dataclass
class CompressionStats:
    """Accumulates compression outcomes across multiple buffers.

    Each C-Coll compression adapter keeps one, so a collective can report how
    much traffic was saved on the wire.
    """

    original_bytes: int = 0
    compressed_bytes: int = 0
    ratios: List[float] = field(default_factory=list)

    def record(self, original_nbytes: int, compressed_nbytes: int) -> float:
        """Record one compression outcome; returns the per-buffer ratio."""
        ratio = compression_ratio(original_nbytes, compressed_nbytes)
        self.original_bytes += int(original_nbytes)
        self.compressed_bytes += int(compressed_nbytes)
        self.ratios.append(ratio)
        return ratio

    @property
    def count(self) -> int:
        """Number of recorded buffers."""
        return len(self.ratios)

    @property
    def overall_ratio(self) -> float:
        """Ratio of the total original bytes to the total compressed bytes."""
        return compression_ratio(self.original_bytes, self.compressed_bytes)


def aggregate_ratio_stats(ratios: Iterable[float]) -> Dict[str, float]:
    """Reduce an iterable of per-buffer ratios to the min/avg/max triple."""
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ValueError("no ratios recorded")
    return {
        "min": min(ratios),
        "avg": sum(ratios) / len(ratios),
        "max": max(ratios),
    }
