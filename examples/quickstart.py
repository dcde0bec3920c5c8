#!/usr/bin/env python
"""Quickstart: the three-layer session API on a compressed allreduce.

The library is used through three layers (PR 3's ``repro.api``):

1. **Cluster** — describe the machine once: interconnect model, topology,
   cost model, C-Coll codec settings and the virtual-size multiplier.
2. **Communicator** — an mpi4py-style session bound to that cluster and a
   rank count; every MPI collective is a method
   (``allreduce``, ``bcast``, ``reduce_scatter``, ...).
3. **Outcomes** — each call returns per-rank values plus the simulated
   timeline (makespan, per-category breakdown, bytes on the wire).

This walkthrough compresses a scientific field with the SZx-style codec, then
runs the original MPI_Allreduce and C-Allreduce on the same simulated cluster
and compares speed and accuracy.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.compression import SZxCompressor
from repro.datasets import load_field
from repro.metrics import psnr

N_RANKS = 8
ERROR_BOUND = 1e-3
SIZE_MULTIPLIER = 64.0  # every real byte stands for 64 virtual bytes (paper-scale messages)


def main() -> None:
    # --- 1. a scientific field and its error-bounded compression ------------
    field = load_field("rtm", seed=1)
    data = field.flatten()
    codec = SZxCompressor(error_bound=ERROR_BOUND)
    compressed = codec.compress(data)
    reconstructed = codec.decompress(compressed)
    print(f"field: {field!r}")
    print(
        f"SZx @ {ERROR_BOUND:g}: ratio {compressed.ratio:.1f}x, "
        f"max error {np.max(np.abs(reconstructed - data)):.2e}, "
        f"PSNR {psnr(data, reconstructed):.1f} dB"
    )

    # --- 2. layer one: the cluster, bound once -------------------------------
    cluster = Cluster(
        config=CCollConfig(
            codec="szx", error_bound=ERROR_BOUND, size_multiplier=SIZE_MULTIPLIER
        )
    )
    per_rank = [data * np.float32(1 + 1e-6 * r) for r in range(N_RANKS)]
    exact_sum = np.sum(np.stack(per_rank), axis=0, dtype=np.float64)

    # --- 3. layer two: the communicator session ------------------------------
    comm = cluster.communicator(N_RANKS)

    baseline = comm.allreduce(per_rank, algorithm="ring")  # the paper's AD baseline
    print(
        f"\nMPI_Allreduce  ({N_RANKS} ranks, "
        f"{per_rank[0].nbytes * SIZE_MULTIPLIER / 1e6:.0f} MB virtual): "
        f"{baseline.total_time * 1e3:.1f} ms"
    )

    # --- 4. layer three: outcomes --------------------------------------------
    ccoll = comm.allreduce(per_rank, compression="on")  # the full C-Allreduce
    speedup = baseline.total_time / ccoll.total_time
    quality = psnr(exact_sum, ccoll.value(0))
    print(
        f"C-Allreduce: {ccoll.total_time * 1e3:.1f} ms "
        f"({speedup:.2f}x speedup, compression ratio {ccoll.compression_ratio:.1f}x)"
    )
    print(f"result accuracy vs exact sum: PSNR {quality:.1f} dB")
    max_err = np.max(np.abs(ccoll.value(0) - exact_sum))
    print(f"max aggregated error {max_err:.2e} (chain bound {(N_RANKS + 1) * ERROR_BOUND:.2e})")


if __name__ == "__main__":
    main()
