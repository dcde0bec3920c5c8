"""Shared knobs and helpers for the experiment harness.

Every experiment accepts a ``scale`` argument:

* ``"small"`` (default) — reduced rank counts, fewer sweep points and smaller
  real arrays, so the whole table/figure regenerates in seconds to a couple of
  minutes.  The *virtual* message sizes still cover the paper's range via the
  size-multiplier mechanism, so the shapes are comparable.
* ``"paper"`` — the paper's rank counts (16 / 128) and full sweep points; this
  is slower (tens of minutes for the biggest sweeps) but closest to the
  original settings.

The helpers here centralise how per-rank inputs are built from the synthetic
datasets and how the real-array size / size-multiplier pair is chosen for a
requested virtual message size, and hold :func:`sweep`, the one loop that
runs every swept experiment's cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.ccoll.config import CCollConfig
from repro.datasets.base import Field
from repro.datasets.registry import load_field, message_of_size
from repro.utils.units import MB
from repro.utils.validation import ensure_in

__all__ = [
    "ScaleSettings",
    "SCALES",
    "ERROR_BOUND",
    "FIELD_CASES",
    "FIELD_ERROR_BOUND",
    "resolve_scale",
    "virtual_message",
    "per_rank_variants",
    "default_config",
    "sweep",
]

#: the absolute error bound of the evaluation wherever a figure does not sweep it
ERROR_BOUND = 1e-3
#: the (application, field) pairs of the per-field comparison (Figure 13 / Table VI)
FIELD_CASES = (
    ("hurricane", "PRECIPf"),
    ("hurricane", "QGRAUPf"),
    ("hurricane", "CLOUDf"),
    ("cesm", "Q"),
)
#: the bound of that comparison
FIELD_ERROR_BOUND = 1e-4


@dataclass(frozen=True)
class ScaleSettings:
    """Knobs that differ between the ``small`` and ``paper`` scales."""

    name: str
    #: rank count standing in for the paper's 16-node experiments
    ranks_small_cluster: int
    #: rank count standing in for the paper's 128-node experiments
    ranks_large_cluster: int
    #: target size (bytes) of the *real* array backing each virtual message
    target_real_bytes: int
    #: message-size sweep (virtual MB) used by the size-sweep figures
    size_sweep_mb: Tuple[int, ...]
    #: node-count sweep used by Figure 12
    node_sweep: Tuple[int, ...]
    #: data volume used for the compressor characterisation tables
    table_points: int


SCALES = {
    "small": ScaleSettings(
        name="small",
        ranks_small_cluster=8,
        ranks_large_cluster=16,
        target_real_bytes=int(1.2 * MB),
        size_sweep_mb=(28, 128, 278, 478, 678),
        node_sweep=(2, 4, 8, 16),
        table_points=220_000,
    ),
    "paper": ScaleSettings(
        name="paper",
        ranks_small_cluster=16,
        ranks_large_cluster=128,
        target_real_bytes=int(4 * MB),
        size_sweep_mb=(28, 78, 128, 178, 228, 278, 328, 378, 428, 478, 528, 578, 628, 678),
        node_sweep=(2, 4, 8, 16, 32, 64, 128),
        table_points=1_000_000,
    ),
}


def resolve_scale(scale) -> ScaleSettings:
    """Return the :class:`ScaleSettings` for a name or pass through an instance."""
    if isinstance(scale, ScaleSettings):
        return scale
    ensure_in(scale, tuple(SCALES), "scale")
    return SCALES[scale]


def virtual_message(
    field: Field, virtual_mb: float, settings: ScaleSettings
) -> Tuple[np.ndarray, float]:
    """Build a real array plus size multiplier representing ``virtual_mb`` of data.

    The real array is roughly ``settings.target_real_bytes`` long (never larger
    than the virtual size); the multiplier scales it back up so the network and
    cost models see the full virtual message.
    """
    virtual_bytes = int(virtual_mb * MB)
    real_bytes = min(virtual_bytes, settings.target_real_bytes)
    data = message_of_size(field, real_bytes)
    multiplier = virtual_bytes / data.nbytes
    return data, multiplier


def per_rank_variants(data: np.ndarray, n_ranks: int) -> List[np.ndarray]:
    """Per-rank copies of ``data`` with a tiny deterministic scale jitter.

    The 1e-6-per-rank jitter keeps the per-rank buffers from being
    bit-identical (as they would never be in a real allreduce) while staying
    far below every error bound used in the paper.
    """
    return [data * np.array(1.0 + 1e-6 * rank, dtype=data.dtype) for rank in range(n_ranks)]


def default_config(
    error_bound: float = ERROR_BOUND,
    codec: str = "szx",
    size_multiplier: float = 1.0,
    rate: float = 4.0,
) -> CCollConfig:
    """The C-Coll configuration used across experiments unless stated otherwise."""
    return CCollConfig(
        codec=codec,
        error_bound=error_bound,
        rate=rate,
        size_multiplier=size_multiplier,
    )


def load_rtm_message(virtual_mb: float, settings: ScaleSettings):
    """Convenience: an RTM-backed virtual message (the dataset used by most figures)."""
    return virtual_message(load_field("rtm", seed=3), virtual_mb, settings)


def sweep(
    axes: Dict[str, Sequence], cell: Callable[..., Iterable[Dict[str, object]]]
) -> List[Dict[str, object]]:
    """The harness's one sweep loop: ``cell(**key)`` for every key of ``axes``.

    A key takes one value from each named axis; keys come in product order,
    the last axis varying fastest.  Each row the cell returns is prefixed
    with its key's columns.
    """
    rows: List[Dict[str, object]] = []
    for values in itertools.product(*axes.values()):
        key = dict(zip(axes, values))
        rows.extend({**key, **row} for row in cell(**key))
    return rows
