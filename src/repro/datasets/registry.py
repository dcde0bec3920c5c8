"""Dataset registry: one place that knows every application/field pair.

The experiment harness asks for fields by ``(application, field)`` name; the
registry dispatches to the right generator, records the paper's original
specification (Table IV) for documentation, and offers a convenient
``message_of_size`` helper that tiles/truncates a field to the message sizes
used in the performance figures (28 MB ... 678 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.datasets.base import Field
from repro.datasets.cesm import CESM_FIELDS, DEFAULT_CESM_SHAPE, generate_cesm_field
from repro.datasets.hurricane import (
    DEFAULT_HURRICANE_SHAPE,
    HURRICANE_FIELDS,
    generate_hurricane_field,
)
from repro.datasets.rtm import DEFAULT_RTM_SHAPE, generate_rtm_snapshot

__all__ = ["DatasetSpec", "DATASET_SPECS", "load_field", "message_of_size"]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one application dataset as used in the paper (Table IV)."""

    application: str
    description: str
    paper_files: str
    paper_dimensions: Tuple[int, ...]
    fields: Tuple[str, ...]


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "rtm": DatasetSpec(
        application="rtm",
        description="Seismic wave propagation snapshots (reverse time migration)",
        paper_files="70",
        paper_dimensions=(849, 849, 235),
        fields=("snapshot",),
    ),
    "hurricane": DatasetSpec(
        application="hurricane",
        description="Hurricane ISABEL weather simulation",
        paper_files="48 x 13",
        paper_dimensions=(100, 500, 500),
        fields=tuple(sorted(HURRICANE_FIELDS)),
    ),
    "cesm": DatasetSpec(
        application="cesm",
        description="CESM-ATM climate simulation",
        paper_files="26 x 33",
        paper_dimensions=(1800, 3600),
        fields=tuple(sorted(CESM_FIELDS)),
    ),
}


def load_field(application: str, field: str = None, seed=0, shape=None, **kwargs) -> Field:
    """Generate a synthetic field for ``application``/``field``.

    ``field`` defaults to the first field of the application ("snapshot" for
    RTM, alphabetically first otherwise).  ``shape`` overrides the default
    generator shape — useful for scaling message sizes up or down.
    """
    app = application.lower()
    if app not in DATASET_SPECS:
        raise KeyError(
            f"unknown application {application!r}; available: {', '.join(sorted(DATASET_SPECS))}"
        )
    spec = DATASET_SPECS[app]
    if field is None:
        field = spec.fields[0]

    if app == "rtm":
        return generate_rtm_snapshot(shape=shape or DEFAULT_RTM_SHAPE, seed=seed, **kwargs)
    if app == "hurricane":
        return generate_hurricane_field(
            name=field, shape=shape or DEFAULT_HURRICANE_SHAPE, seed=seed
        )
    return generate_cesm_field(name=field, shape=shape or DEFAULT_CESM_SHAPE, seed=seed)


def message_of_size(field: Field, nbytes: int) -> np.ndarray:
    """Return a flat array of exactly ``nbytes`` bytes built from ``field``.

    The performance figures sweep message sizes (28 MB ... 678 MB); the real
    experiments concatenate dataset files until the target size is reached.
    This helper tiles the field (with a tiny deterministic perturbation per
    repetition so repeats are not bit-identical) and truncates to the exact
    byte count.
    """
    itemsize = field.data.dtype.itemsize
    if nbytes < itemsize:
        raise ValueError(f"nbytes must be at least one element ({itemsize} bytes), got {nbytes}")
    count = nbytes // itemsize
    flat = field.flatten()
    reps = int(np.ceil(count / flat.size))
    if reps == 1:
        return flat[:count].copy()
    pieces = []
    for rep in range(reps):
        # The perturbation is far below any error bound used in the paper, it
        # only prevents artificially periodic data from inflating ratios.
        scale = 1.0 + 1e-7 * rep
        pieces.append(flat * np.float32(scale))
    return np.concatenate(pieces)[:count]
