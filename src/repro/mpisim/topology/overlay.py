"""Fault overlays: which stage ids are degraded or failed right now.

Plain data with the three queries a fabric asks of it; the fabric owns the
stages and applies the answers (package docstring, "Fault model").
"""

from __future__ import annotations

from typing import Container, Dict, Tuple

__all__ = ["FaultOverlay", "StageKey"]

#: a stage id is any hashable tuple naming one directed physical link, e.g.
#: ``("ft-up", pod, edge, agg)``; its first element is the stage *family*
StageKey = Tuple


class FaultOverlay(Dict[StageKey, Tuple[float, bool]]):
    """Live overlays of one fabric: stage-id prefix -> ``(capacity factor, failed)``.

    Empty (falsy) on a healthy fabric, so hot paths can skip it outright.
    """

    def factor(self, key: StageKey) -> float:
        """Product of the live overlay factors matching one stage id."""
        factor = 1.0
        for prefix, (f, _) in self.items():
            if key[: len(prefix)] == prefix:
                factor *= f
        return factor

    def is_failed(self, key: StageKey) -> bool:
        """Whether any live overlay marks this stage id failed."""
        return any(
            failed and key[: len(prefix)] == prefix for prefix, (_, failed) in self.items()
        )

    def tier_factor(self, families: Container[str]) -> float:
        """Worst live (non-failed) overlay factor over a tier's stage families.

        Deliberately conservative tier-level semantics: an overlay scoped to
        a single stage counts as degrading its whole tier, so the selector
        and the compression gate react to the worst case rather than
        averaging over paths they cannot enumerate.
        """
        worst = 1.0
        for prefix, (factor, failed) in self.items():
            if not failed and prefix[0] in families:
                worst = min(worst, factor)
        return worst
