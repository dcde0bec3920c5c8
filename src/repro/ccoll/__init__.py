"""C-Coll: the compression-facilitated MPI collective framework (the paper's core).

Public entry points (rank programs composed by the session API):

* :func:`c_allreduce_program` — C-Allreduce
* :func:`c_allgather_program`, :func:`c_bcast_program`,
  :func:`c_scatter_program` — the data-movement-framework collectives
* :func:`c_reduce_scatter_program` — the computation-framework collective
* :func:`cpr_allreduce_program` (and friends) — the CPR-P2P baselines; for
  allgather / bcast / scatter each shares its planner with the C-Coll program
  it is compared against (``repro.ccoll.movement._plan_compressed_*``)
* the C-Coll data-movement and CPR-P2P programs are hops on the baselines'
  schedules: the ring reduce-scatter, ring allgather, binomial broadcast and
  binomial scatter of :mod:`repro.collectives` run them, so each compressed
  collective moves data exactly as its baseline does (only the pipelined
  reduce-scatter of :mod:`repro.ccoll.computation` has a schedule of its own)
* the topology-aware C-Allreduce has no rank program of its own: it is the
  hierarchical skeleton of :mod:`repro.collectives.hierarchical` with the
  compressed leader stage of :mod:`repro.ccoll.topology_aware` plugged in
* :class:`CCollConfig` — codec, error bound, pipelining and scaling settings
"""

from repro.ccoll.adapter import CompressedMessage, CompressionAdapter
from repro.ccoll.allreduce import c_allreduce_program
from repro.ccoll.computation import c_reduce_scatter_program, segment_count
from repro.ccoll.config import CCollConfig
from repro.ccoll.cpr_p2p import (
    cpr_allgather_program,
    cpr_allreduce_program,
    cpr_bcast_program,
    cpr_scatter_program,
)
from repro.ccoll.movement import (
    CCollOutcome,
    c_allgather_program,
    c_bcast_program,
    c_scatter_program,
    exchange_sizes_program,
)

__all__ = [
    "CCollConfig",
    "CCollOutcome",
    "CompressionAdapter",
    "CompressedMessage",
    "c_allreduce_program",
    "c_allgather_program",
    "c_bcast_program",
    "c_scatter_program",
    "exchange_sizes_program",
    "c_reduce_scatter_program",
    "segment_count",
    "cpr_allreduce_program",
    "cpr_allgather_program",
    "cpr_bcast_program",
    "cpr_scatter_program",
]
