"""The :class:`Communicator` — the session object exposing every collective.

Layer two of the three-layer story (``Cluster -> Communicator -> outcomes``).
A communicator binds a :class:`~repro.api.cluster.Cluster` and a rank count
once, then exposes the full collective surface as methods::

    comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(16)
    outcome = comm.allreduce(vectors)                       # tuning-table pick
    outcome = comm.allreduce(vectors, compression="on")     # full C-Allreduce
    outcome = comm.allreduce(vectors, compression="auto")   # PR 2 break-even gate
    comm.last_algorithm                                     # what "auto" chose

Every method builds a :class:`~repro.collectives.context.CollectivePlan` (the
``_plan_*`` builders of :mod:`repro.collectives` and :mod:`repro.ccoll` decide
the schedule, codecs and payloads but run nothing) and hands it to
:meth:`Communicator._launch`, the one place a simulation starts: it runs the
plan's rank programs on the cluster's network and topology through
:func:`~repro.mpisim.launcher.run_simulation` and returns the plan's
:class:`~repro.collectives.context.CollectiveOutcome` (or
:class:`~repro.ccoll.movement.CCollOutcome` when compression is involved).
:meth:`Communicator.capture` returns the plan unlaunched instead.

The ``compression`` argument (default ``"off"``) is the one name of a C-Coll
variant.  It is one of five exact spellings, and :data:`COMPRESSION_MODES`
maps each to the Table V label the call reports as its route::

    "off" -> AD    "di" -> DI    "nd" -> ND    "on" -> Overlap    "auto"

It is checked against :data:`C_VARIANTS`, what each compressible collective
runs::

    allreduce                   AD DI ND Overlap
    allgather / bcast / scatter AD DI Overlap
    reduce_scatter              AD ND Overlap

``"off"`` (``AD``)
    The uncompressed baseline; ``algorithm`` picks the schedule (``"auto"``
    consults :func:`repro.collectives.selection.select_algorithm`).
``"di"`` / ``"nd"`` / ``"on"`` (``DI`` / ``ND`` / ``Overlap``)
    CPR-P2P compression on every hop; the C-Coll schedule without PIPE-SZx
    overlap; the full C-Coll framework.
``"auto"``
    The placement- and bandwidth-aware choice: on multi-rank-per-node fabrics
    the topology-aware C-Allreduce, compressing the inter-node hops when the
    break-even gate says so; elsewhere the same gate,
    :func:`repro.ccoll.topology_aware.select_inter_compression`, decides
    between the full C-collective and the uncompressed baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.cluster import Cluster
from repro.ccoll.allreduce import _plan_c_allreduce
from repro.ccoll.computation import _plan_c_reduce_scatter
from repro.ccoll.cpr_p2p import (
    _plan_cpr_allreduce,
    cpr_allgather_program,
    cpr_bcast_program,
    cpr_scatter_program,
)
from repro.ccoll.movement import (
    CCollOutcome,
    _plan_compressed_allgather,
    _plan_compressed_bcast,
    _plan_compressed_scatter,
    c_allgather_program,
    c_bcast_program,
    c_scatter_program,
)
from repro.ccoll.topology_aware import (
    _plan_topology_aware_c_allreduce,
    select_inter_compression,
)
from repro.collectives.allgather import _plan_ring_allgather
from repro.collectives.alltoall import _plan_pairwise_alltoall
from repro.collectives.barrier import _plan_barrier
from repro.collectives.bcast import _plan_binomial_bcast
from repro.collectives.context import CollectiveOutcome, CollectivePlan
from repro.collectives.gather import _plan_binomial_gather
from repro.collectives.reduce import _plan_binomial_reduce
from repro.collectives.reduce_scatter import _plan_ring_reduce_scatter
from repro.collectives.scatter import _plan_binomial_scatter
from repro.collectives.selection import _plan_allreduce
from repro.mpisim.launcher import run_simulation
from repro.mpisim.network import NetworkModel
from repro.mpisim.topology import FlatTopology
from repro.utils.validation import ensure_integer

__all__ = ["Communicator", "issue_collective"]

#: the five ``compression`` spellings and the Table V label each names
#: (``"auto"`` picks one per call)
COMPRESSION_MODES: Dict[str, str] = {
    "off": "AD",
    "di": "DI",
    "nd": "ND",
    "on": "Overlap",
    "auto": "auto",
}

#: the Table V variants each compressible collective runs
#: (``"auto"`` is accepted by all of them)
C_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "allreduce": ("AD", "DI", "ND", "Overlap"),
    "allgather": ("AD", "DI", "Overlap"),
    "bcast": ("AD", "DI", "Overlap"),
    "scatter": ("AD", "DI", "Overlap"),
    "reduce_scatter": ("AD", "ND", "Overlap"),
}


def compression_mode(op: str, compression: str) -> str:
    """``"auto"`` or the Table V label ``compression`` names, if ``op`` runs it."""
    runs = (*C_VARIANTS[op], "auto")
    mode = COMPRESSION_MODES.get(compression) if isinstance(compression, str) else None
    if mode not in runs:
        spellings = [name for name, label in COMPRESSION_MODES.items() if label in runs]
        raise ValueError(
            f"compression={compression!r} is not available for {op}; "
            f"it takes {' / '.join(map(repr, spellings))}"
        )
    return mode


def issue_collective(
    comm: "Communicator", op: str, inputs, *, algorithm: str = "auto", compression: str = "off"
):
    """Issue collective ``op`` on per-rank ``inputs``: the one op -> method table
    of the callers that name a collective by string (workload jobs, fuzzer
    scenarios).  ``bcast`` sends ``inputs[0]`` from root 0; only ``allreduce``
    takes ``algorithm``."""
    if op == "allreduce":
        return comm.allreduce(inputs, algorithm=algorithm, compression=compression)
    if op == "allgather":
        return comm.allgather(inputs, compression=compression)
    if op == "bcast":
        return comm.bcast(inputs[0], root=0, compression=compression)
    if op == "reduce_scatter":
        return comm.reduce_scatter(inputs, compression=compression)
    raise ValueError(f"unknown collective op {op!r}")


class Communicator:
    """A fixed-size rank session on a :class:`Cluster`.

    Parameters
    ----------
    cluster:
        The machine description (``None`` -> the calibrated default cluster).
    n_ranks:
        Communicator size; bound once, like ``MPI_COMM_WORLD``.
    """

    def __init__(self, cluster: Optional[Cluster], n_ranks: int) -> None:
        self.n_ranks = ensure_integer(n_ranks, "n_ranks", minimum=1)
        self.cluster = cluster if cluster is not None else Cluster()
        #: algorithm chosen by each allreduce call, latest last ("auto" trace)
        self.algorithm_trace: List[str] = []
        #: canonical compression route of each compressed-capable call
        self.compression_trace: List[str] = []
        #: set on a :meth:`capture` probe: plans land here instead of running
        self._captured: Optional[List[CollectivePlan]] = None

    # ----------------------------------------------------------------- helpers

    @property
    def size(self) -> int:
        """Alias of ``n_ranks`` (MPI naming)."""
        return self.n_ranks

    @property
    def last_algorithm(self) -> Optional[str]:
        """The allreduce algorithm used by the most recent call, if any."""
        return self.algorithm_trace[-1] if self.algorithm_trace else None

    @property
    def last_compression(self) -> Optional[str]:
        """Canonical compression route of the most recent compressible call."""
        return self.compression_trace[-1] if self.compression_trace else None

    def with_options(self, **config_updates) -> "Communicator":
        """A sibling session with some :class:`~repro.ccoll.config.CCollConfig`
        fields replaced, e.g. ``error_bound=1e-4`` or ``size_multiplier=64.0``.

        The returned communicator shares this session's rank count and the
        *same* topology object, so parameter sweeps (the harness runs many)
        adjust the config without rebuilding the fabric's stage caches or the
        session itself.  The fabric's contention discipline is chosen once,
        when its topology is built (``Cluster.from_preset(..., contention="fair")``).
        """
        cluster = self.cluster
        if config_updates:
            cluster = cluster.with_updates(
                config=cluster.config.with_updates(**config_updates)
            )
        clone = Communicator(cluster, self.n_ranks)
        clone._captured = self._captured
        return clone

    def _launch(self, plan: CollectivePlan, route: Optional[str] = None):
        """Run ``plan`` on this cluster — the one place a simulation starts.

        ``route`` is the canonical compression route to trace (compressible
        collectives only).  A :meth:`capture` probe keeps the plan and
        returns ``None`` instead.
        """
        if self._captured is not None:
            self._captured.append(plan)
            return None
        sim = run_simulation(
            self.n_ranks,
            plan.factory,
            network=self.cluster.network,
            topology=self.cluster.topology,
        )
        outcome = plan.finish(sim)
        if plan.algorithm is not None:
            self.algorithm_trace.append(plan.algorithm)
        if route is not None:
            self.compression_trace.append(route)
        return outcome

    def capture(self, call: Callable[["Communicator"], Any]) -> CollectivePlan:
        """Return the plan ``call`` would launch, without running it.

        The session-multiplexing hook behind :mod:`repro.workload`: ``call``
        receives a sibling communicator and issues exactly one collective
        against it (``lambda c: c.allreduce(vectors)``), which returns
        ``None``.  All build-time work happens for real — algorithm selection
        against this cluster's topology, compression planning, payload
        precomputation — but no engine is built and no virtual time elapses.
        The returned :class:`~repro.collectives.context.CollectivePlan` holds
        the per-rank program ``factory`` a multi-job engine can bind onto its
        own slots, and the ``finish`` that turns a simulation of it into the
        collective's outcome.
        """
        probe = self.with_options()
        probe._captured = plans = []
        call(probe)
        if len(plans) != 1:
            raise RuntimeError(
                f"capture() expects exactly one collective call, got {len(plans)}"
            )
        return plans[0]

    def _gate_says_compress(self) -> bool:
        """The PR 2 break-even gate on this cluster's fabric."""
        topology = self.cluster.topology if self.cluster.topology is not None else FlatTopology()
        network = self.cluster.network if self.cluster.network is not None else NetworkModel()
        return select_inter_compression(topology, self.cluster.config, network.bandwidth)

    # --------------------------------------------------------------- allreduce

    def allreduce(self, inputs, algorithm: str = "auto", compression: str = "off"):
        """Element-wise sum across all ranks; every rank gets the result.

        ``algorithm`` applies to the uncompressed path (``"auto"`` consults
        the tuning table; or name one of ``ring`` / ``recursive_doubling`` /
        ``rabenseifner`` / ``hierarchical``).  ``compression`` names the
        variant (see the module docstring).
        """
        mode = compression_mode("allreduce", compression)
        if mode == "AD":
            plan = _plan_allreduce(
                inputs, self.n_ranks, algorithm, self.cluster.context(), self.cluster.topology
            )
        elif algorithm != "auto":
            raise ValueError(
                "algorithm= only applies to compression='off'; the compressed "
                "variants fix their own schedule (ring / hierarchical)"
            )
        elif mode == "auto":
            mode, plan = self._auto_compressed_allreduce(inputs)
        elif mode == "DI":
            plan = _plan_cpr_allreduce(inputs, self.n_ranks, self.cluster.config)
        else:
            plan = _plan_c_allreduce(
                inputs, self.n_ranks, self.cluster.config, overlap=mode == "Overlap"
            )
        return self._launch(plan, mode)

    def _auto_compressed_allreduce(self, inputs) -> Tuple[str, CollectivePlan]:
        """``compression="auto"``: placement-aware schedule + break-even gate.

        Multi-rank-per-node fabrics get the topology-aware C-Allreduce, where
        the gate decides per fabric whether the inter-node hops are worth
        compressing.  One-rank-per-node fabrics (including flat) have no
        intra/inter split, so the same break-even gate simply picks between
        the full C-Allreduce and the tuning-table baseline.  Returns the
        compression route and the plan, whose outcome records the gate's call
        as ``inter_compressed``.
        """
        topology, config = self.cluster.topology, self.cluster.config
        compress = self._gate_says_compress()
        if topology is not None and topology.max_ranks_per_node(self.n_ranks) > 1:
            # co-located ranks: the hierarchical schedule applies (on a single
            # node it degenerates to the lossless intra-node reduction)
            return "topology_aware", _plan_topology_aware_c_allreduce(
                inputs, self.n_ranks, topology, config, compress_inter=compress
            )
        if compress:
            route = "Overlap"
            plan = _plan_c_allreduce(inputs, self.n_ranks, config, overlap=True)
        else:
            route = "AD"
            plan = _plan_allreduce(inputs, self.n_ranks, "auto", self.cluster.context(), topology)
        finish = plan.finish

        def gated(sim) -> CCollOutcome:
            done = finish(sim)
            return CCollOutcome(
                values=done.values,
                sim=done.sim,
                compression_ratio=getattr(done, "compression_ratio", None),
                inter_compressed=compress,
            )

        return route, dataclasses.replace(plan, finish=gated)

    # --------------------------------------------------- data-movement family

    def allgather(self, inputs, compression: str = "off") -> CollectiveOutcome:
        """Every rank contributes a block; every rank receives all blocks."""
        mode = self._movement_mode("allgather", compression)
        if mode == "AD":
            plan = _plan_ring_allgather(inputs, self.n_ranks, self.cluster.context())
        else:
            program = cpr_allgather_program if mode == "DI" else c_allgather_program
            plan = _plan_compressed_allgather(program, inputs, self.n_ranks, self.cluster.config)
        return self._launch(plan, mode)

    def bcast(self, data, root: int = 0, compression: str = "off") -> CollectiveOutcome:
        """Broadcast ``data`` from ``root`` to every rank."""
        self._check_root(root)
        mode = self._movement_mode("bcast", compression)
        if mode == "AD":
            plan = _plan_binomial_bcast(data, self.n_ranks, self.cluster.context(), root=root)
        else:
            program = cpr_bcast_program if mode == "DI" else c_bcast_program
            plan = _plan_compressed_bcast(
                program, data, self.n_ranks, self.cluster.config, root=root
            )
        return self._launch(plan, mode)

    def scatter(self, inputs, root: int = 0, compression: str = "off") -> CollectiveOutcome:
        """Scatter one block per rank from ``root``."""
        self._check_root(root)
        mode = self._movement_mode("scatter", compression)
        if mode == "AD":
            plan = _plan_binomial_scatter(inputs, self.n_ranks, self.cluster.context(), root=root)
        else:
            program = cpr_scatter_program if mode == "DI" else c_scatter_program
            plan = _plan_compressed_scatter(
                program, inputs, self.n_ranks, self.cluster.config, root=root
            )
        return self._launch(plan, mode)

    def reduce_scatter(self, inputs, compression: str = "off") -> CollectiveOutcome:
        """Reduce element-wise and scatter chunks; rank ``r`` gets chunk ``r``.

        ``"nd"`` runs the compressed ring without PIPE-SZx overlap.
        """
        mode = self._movement_mode("reduce_scatter", compression)
        if mode == "AD":
            plan = _plan_ring_reduce_scatter(inputs, self.n_ranks, self.cluster.context())
        else:
            plan = _plan_c_reduce_scatter(
                inputs, self.n_ranks, self.cluster.config, overlap=mode == "Overlap"
            )
        return self._launch(plan, mode)

    def _movement_mode(self, name: str, compression: str) -> str:
        """Resolve ``compression`` for a collective other than allreduce:
        ``"auto"`` becomes ``"Overlap"`` or ``"AD"`` by the break-even gate."""
        mode = compression_mode(name, compression)
        if mode == "auto":
            mode = "Overlap" if self._gate_says_compress() else "AD"
        return mode

    # ------------------------------------------------------ uncompressed-only

    def gather(self, inputs, root: int = 0) -> CollectiveOutcome:
        """Gather one block per rank to ``root`` (no compressed variant in C-Coll)."""
        self._check_root(root)
        return self._launch(
            _plan_binomial_gather(inputs, self.n_ranks, self.cluster.context(), root=root)
        )

    def reduce(self, inputs, root: int = 0) -> CollectiveOutcome:
        """Sum one vector per rank onto ``root`` (no compressed variant in C-Coll)."""
        self._check_root(root)
        return self._launch(
            _plan_binomial_reduce(inputs, self.n_ranks, self.cluster.context(), root=root)
        )

    def alltoall(self, inputs) -> CollectiveOutcome:
        """Pairwise exchange: ``inputs[r][d]`` is the block rank ``r`` sends to ``d``."""
        return self._launch(
            _plan_pairwise_alltoall(inputs, self.n_ranks, self.cluster.context())
        )

    def barrier(self) -> CollectiveOutcome:
        """Synchronise all ranks; every rank's value is ``None``."""
        return self._launch(_plan_barrier())

    # -------------------------------------------------------------------- misc

    def _check_root(self, root: int) -> None:
        ensure_integer(root, "root")
        if not 0 <= root < self.n_ranks:
            raise ValueError(f"root must be in [0, {self.n_ranks}), got {root!r}")

    def __repr__(self) -> str:
        return f"Communicator(n_ranks={self.n_ranks}, cluster={self.cluster!r})"
