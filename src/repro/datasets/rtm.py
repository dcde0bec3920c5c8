"""Synthetic RTM (reverse time migration) seismic wavefield snapshots.

The paper's largest dataset is a set of 70 RTM snapshots of shape
849 x 849 x 235 (Seismic wave propagation from the GeoDRIVE platform).  A
snapshot of a propagating wavefield has two properties that matter for the
evaluation:

* large regions that the wave has not reached yet are (numerically) zero or
  extremely smooth, which produces the very high SZx compression ratios
  (~30-120x depending on the error bound, Table II);
* the wavefront itself is an oscillatory, band-limited structure whose
  amplitude decays geometrically with distance from the source.

``generate_rtm_snapshot`` synthesises exactly that structure: expanding
spherical Ricker-like wavefronts from three source locations, plus a small
rough component controlling how hard the data becomes at tight error bounds.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.base import Field
from repro.utils.rng import resolve_rng

__all__ = ["generate_rtm_snapshot", "DEFAULT_RTM_SHAPE"]

DEFAULT_RTM_SHAPE: Tuple[int, int, int] = (48, 72, 72)
_WAVE_SPEED = 0.35  # grid cells per unit time step (controls front radius)
#: peak wave amplitude; seismic wavefield snapshots have small absolute values,
#: which is why the paper's absolute error bounds (1e-2 ... 1e-4) yield very
#: high compression ratios on RTM (Table II).
_WAVE_AMPLITUDE = 0.05
#: seismic sources in one snapshot
_N_SOURCES = 3


def _ricker(radial_offset: np.ndarray, width: float) -> np.ndarray:
    """Ricker wavelet profile (second derivative of a Gaussian)."""
    x = radial_offset / width
    return (1.0 - 2.0 * x * x) * np.exp(-x * x)


def generate_rtm_snapshot(
    shape: Tuple[int, int, int] = DEFAULT_RTM_SHAPE,
    time_index: int = 20,
    noise_amplitude: float = 2e-5,
    seed=0,
) -> Field:
    """Generate one synthetic RTM wavefield snapshot.

    Parameters
    ----------
    shape:
        Grid shape of the snapshot.
    time_index:
        Virtual time step; larger values move the wavefronts further from the
        sources (and fill more of the volume with signal).
    noise_amplitude:
        Amplitude of the rough component relative to the unit wave amplitude;
        this is what limits compressibility at error bounds below ~1e-4.
    seed:
        Seed (or Generator) controlling the source layout and noise.
    """
    if time_index < 0:
        raise ValueError(f"time_index must be >= 0, got {time_index}")
    rng = resolve_rng(seed)
    grid = np.indices(shape).astype(np.float64)
    field = np.zeros(shape, dtype=np.float64)

    for _ in range(_N_SOURCES):
        source = np.array([rng.uniform(0.2, 0.8) * (s - 1) for s in shape])
        radius = np.sqrt(sum((grid[d] - source[d]) ** 2 for d in range(len(shape))))
        front_radius = _WAVE_SPEED * time_index
        width = 4.0 + 0.02 * time_index
        amplitude = _WAVE_AMPLITUDE / (1.0 + 0.05 * front_radius)
        wave = amplitude * _ricker(radius - front_radius, width)
        # The wave has not reached points far beyond the front yet.
        wave[radius > front_radius + 4.0 * width] = 0.0
        field += wave

    if noise_amplitude > 0:
        field += noise_amplitude * rng.standard_normal(shape)

    return Field(application="rtm", name=f"snapshot_t{time_index:04d}", data=field.astype(np.float32))
