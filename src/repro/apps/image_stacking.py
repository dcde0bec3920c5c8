"""RTM image stacking — the paper's end-to-end use case (Section IV-E).

Seismic imaging (reverse time migration) produces one partial image per shot /
per node; the final image is the element-wise sum of all partial images, which
on a cluster is exactly an ``MPI_Allreduce(SUM)`` over large float buffers.
The paper evaluates C-Allreduce on this workload (Figures 17 and 18): it is
1.2-1.5x faster than the original Allreduce depending on the error bound,
while the reconstructed stacked image stays visually and numerically faithful
(PSNR ~43/58/80 dB at bounds 1e-2/1e-3/1e-4), whereas the fixed-rate ZFP
baseline destroys the image.

``run_image_stacking`` reproduces that experiment: every simulated rank
contributes one synthetic RTM partial image, the images are summed with the
selected allreduce implementation, and the result is compared against the
exact (uncompressed) stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ccoll.config import CCollConfig
from repro.api import Cluster
from repro.datasets.rtm import generate_rtm_snapshot
from repro.metrics.quality import QualityReport, quality_report
from repro.mpisim.network import NetworkModel

__all__ = ["StackingResult", "STACKING_METHODS", "generate_partial_images", "run_image_stacking"]

#: allreduce implementations selectable for the stacking experiment
STACKING_METHODS = ("allreduce", "c-allreduce", "cpr-szx", "cpr-zfp-abs", "cpr-zfp-fxr")


@dataclass
class StackingResult:
    """Outcome of one image-stacking run."""

    method: str
    n_ranks: int
    image_shape: tuple
    stacked: np.ndarray
    reference: np.ndarray
    quality: QualityReport
    total_time: float
    compression_ratio: Optional[float]


def generate_partial_images(
    n_ranks: int,
    image_shape=(72, 72),
    depth: int = 24,
    seed: int = 0,
) -> List[np.ndarray]:
    """One synthetic RTM partial image per rank.

    Each rank's partial image is the depth-summed wavefield of a snapshot at a
    different (virtual) shot time, which mimics how per-shot migration images
    differ while sharing the subsurface structure.
    """
    images = []
    for rank in range(n_ranks):
        snapshot = generate_rtm_snapshot(
            shape=(depth, image_shape[0], image_shape[1]),
            time_index=12 + 6 * rank,
            seed=seed,
        )
        images.append(np.ascontiguousarray(snapshot.data.sum(axis=0), dtype=np.float32))
    return images


def _method_config(method: str, error_bound: float, rate: float, size_multiplier: float) -> CCollConfig:
    codec = {
        "c-allreduce": "szx",
        "cpr-szx": "szx",
        "cpr-zfp-abs": "zfp_abs",
        "cpr-zfp-fxr": "zfp_fxr",
    }[method]
    return CCollConfig(
        codec=codec, error_bound=error_bound, rate=rate, size_multiplier=size_multiplier
    )


def run_image_stacking(
    n_ranks: int = 16,
    method: str = "c-allreduce",
    error_bound: float = 1e-3,
    rate: float = 4.0,
    image_shape=(72, 72),
    seed: int = 0,
    size_multiplier: float = 1.0,
    network: Optional[NetworkModel] = None,
    partial_images: Optional[List[np.ndarray]] = None,
) -> StackingResult:
    """Stack per-rank RTM partial images with the selected allreduce.

    Parameters mirror the paper's experiment: ``method`` selects the original
    MPI_Allreduce, C-Allreduce, or one of the CPR-P2P baselines; ``error_bound``
    applies to the error-bounded codecs and ``rate`` to the fixed-rate baseline.
    """
    method = method.lower()
    if method not in STACKING_METHODS:
        raise ValueError(f"unknown stacking method {method!r}; expected one of {STACKING_METHODS}")

    if partial_images is None:
        partial_images = generate_partial_images(n_ranks, image_shape=image_shape, seed=seed)
    if len(partial_images) != n_ranks:
        raise ValueError(f"expected {n_ranks} partial images, got {len(partial_images)}")
    image_shape = partial_images[0].shape
    flats = [np.ascontiguousarray(img, dtype=np.float32).reshape(-1) for img in partial_images]
    reference = np.sum(np.stack(flats, axis=0), axis=0, dtype=np.float64).astype(np.float32)

    compression_ratio = None
    if method == "allreduce":
        comm = Cluster(
            network=network, config=CCollConfig(size_multiplier=size_multiplier)
        ).communicator(n_ranks)
        outcome = comm.allreduce(flats, algorithm="ring")
    else:
        config = _method_config(method, error_bound, rate, size_multiplier)
        comm = Cluster(network=network, config=config).communicator(n_ranks)
        compression = "on" if method == "c-allreduce" else "di"
        outcome = comm.allreduce(flats, compression=compression)
        compression_ratio = outcome.compression_ratio

    stacked = np.asarray(outcome.value(0), dtype=np.float32)
    quality = quality_report(reference, stacked)
    return StackingResult(
        method=method,
        n_ranks=n_ranks,
        image_shape=tuple(image_shape),
        stacked=stacked.reshape(image_shape),
        reference=reference.reshape(image_shape),
        quality=quality,
        total_time=outcome.total_time,
        compression_ratio=compression_ratio,
    )
