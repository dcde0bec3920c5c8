"""Common infrastructure for the synthetic scientific datasets.

The paper evaluates C-Coll on three application datasets (RTM seismic
wavefields, Hurricane ISABEL weather fields, CESM-ATM climate fields) obtained
from SDRBench.  Those files are not redistributable here, so this package
generates synthetic surrogates whose *compressibility profile* (smoothness,
sparsity, value range) is tuned per application so the compressors behave in
the same qualitative regime as the paper's Tables I, II, III and VI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import resolve_rng

__all__ = ["Field", "smooth_random_field", "sparse_random_field"]


@dataclass(frozen=True)
class Field:
    """A named scientific field produced by one of the dataset generators.

    Attributes
    ----------
    application:
        Application family ("rtm", "hurricane", "cesm").
    name:
        Field name within the application (e.g. "QVAPORf", "CLOUD").
    data:
        The field values with their natural (2-D or 3-D) shape.
    """

    application: str
    name: str
    data: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        """Natural shape of the field."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of values in the field."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Size of the field in bytes."""
        return int(self.data.nbytes)

    @property
    def value_range(self) -> float:
        """max - min of the field values."""
        return float(self.data.max() - self.data.min())

    def flatten(self) -> np.ndarray:
        """Return the field as a contiguous 1-D array (the MPI message view)."""
        return np.ascontiguousarray(self.data.reshape(-1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Field(application={self.application!r}, name={self.name!r}, "
            f"shape={self.shape}, dtype={self.data.dtype})"
        )


def smooth_random_field(
    shape: Tuple[int, ...], smoothness: float, rng=None, dtype=np.float32
) -> np.ndarray:
    """Gaussian-filtered white noise rescaled to [0, 1].

    ``smoothness`` is the Gaussian sigma in grid cells; larger values produce
    smoother (more compressible) fields.
    """
    from scipy import ndimage  # imported where it is called: 0.2 s no other path pays

    gen = resolve_rng(rng)
    noise = gen.standard_normal(shape)
    field = ndimage.gaussian_filter(noise, sigma=smoothness, mode="wrap")
    fmin, fmax = field.min(), field.max()
    if fmax > fmin:
        field = (field - fmin) / (fmax - fmin)
    else:  # pragma: no cover - degenerate tiny shapes
        field = np.zeros(shape)
    return field.astype(dtype)


def sparse_random_field(
    shape: Tuple[int, ...],
    smoothness: float,
    coverage: float,
    rng=None,
    dtype=np.float32,
) -> np.ndarray:
    """A mostly-zero field with smooth localized structures covering ``coverage``.

    This mimics precipitation/cloud-type fields (PRECIPf, QGRAUPf, CLOUDf)
    where most of the domain is exactly zero and the non-zero regions are
    smooth blobs — the regime where SZx's constant-block detection shines.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    gen = resolve_rng(rng)
    base = smooth_random_field(shape, smoothness, gen, dtype=np.float64)
    threshold = np.quantile(base, 1.0 - coverage)
    field = np.where(base > threshold, base - threshold, 0.0)
    peak = field.max()
    if peak > 0:
        field = field / peak
    return field.astype(dtype)
