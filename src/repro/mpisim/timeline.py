"""Per-category execution-time bookkeeping (the paper's breakdown bars).

The paper's Figures 7-10 break the collective execution time into the
categories ComDecom, Allgather, Memcpy, Wait, Reduction and Others.  Rank
programs tag every ``Compute``/``Wait`` command with one of these labels; the
engine accumulates them into a :class:`TimeBreakdown` per rank, and the
harness merges/normalises them for plotting and table printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

__all__ = [
    "TimeBreakdown",
    "CAT_COMDECOM",
    "CAT_ALLGATHER",
    "CAT_MEMCPY",
    "CAT_WAIT",
    "CAT_REDUCTION",
    "CAT_OTHERS",
    "STANDARD_CATEGORIES",
]

CAT_COMDECOM = "ComDecom"
CAT_ALLGATHER = "Allgather"
CAT_MEMCPY = "Memcpy"
CAT_WAIT = "Wait"
CAT_REDUCTION = "Reduction"
CAT_OTHERS = "Others"

#: the order used by the paper's stacked-bar figures
STANDARD_CATEGORIES = (
    CAT_COMDECOM,
    CAT_ALLGATHER,
    CAT_MEMCPY,
    CAT_WAIT,
    CAT_REDUCTION,
    CAT_OTHERS,
)


@dataclass
class TimeBreakdown:
    """Accumulated virtual time per category for one rank (or one average)."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, category: str, duration: float) -> None:
        """Accumulate ``duration`` seconds under ``category``."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.seconds[category] = self.seconds.get(category, 0.0) + float(duration)

    def get(self, category: str) -> float:
        """Time attributed to ``category`` (0.0 when absent)."""
        return self.seconds.get(category, 0.0)

    @property
    def total(self) -> float:
        """Sum of all categories."""
        return float(sum(self.seconds.values()))

    def categories(self) -> List[str]:
        """Categories present, standard ones first (in figure order)."""
        extra = [c for c in self.seconds if c not in STANDARD_CATEGORIES]
        return [c for c in STANDARD_CATEGORIES if c in self.seconds] + sorted(extra)

    def as_dict(self) -> Dict[str, float]:
        """Copy of the category -> seconds mapping."""
        return dict(self.seconds)

    def merge(self, other: "TimeBreakdown | Mapping[str, float]") -> "TimeBreakdown":
        """Add another breakdown into this one (in place) and return self."""
        items = other.seconds if isinstance(other, TimeBreakdown) else other
        for category, duration in items.items():
            self.add(category, duration)
        return self

    def scaled(self, factor: float) -> "TimeBreakdown":
        """Return a new breakdown with every category multiplied by ``factor``."""
        return TimeBreakdown({c: v * factor for c, v in self.seconds.items()})

    @staticmethod
    def mean(breakdowns: Iterable["TimeBreakdown"]) -> "TimeBreakdown":
        """Average several per-rank breakdowns into one."""
        breakdowns = list(breakdowns)
        if not breakdowns:
            raise ValueError("mean() of no breakdowns")
        merged = TimeBreakdown()
        for b in breakdowns:
            merged.merge(b)
        return merged.scaled(1.0 / len(breakdowns))
