"""repro.api — the unified session API for running collectives.

This is the package's public surface since PR 3.  The three-layer story:

1. :class:`Cluster` describes the machine once — interconnect, topology and
   the C-Coll settings, which live in its ``config`` (a
   :class:`~repro.ccoll.config.CCollConfig`: codec, error bound, cost model,
   virtual-size scaling) — either directly or via
   ``Cluster.from_preset("fat_tree", nodes=8)``.
2. :class:`Communicator` is an mpi4py-style session bound to a cluster and a
   rank count, exposing ``allreduce / reduce_scatter / allgather / bcast /
   scatter / gather / reduce / alltoall / barrier`` with ``algorithm="auto"``
   (the MPICH-style tuning table) and one ``compression`` string naming the
   Table V variant: ``"off"`` (AD, the default), ``"di"`` (CPR-P2P on every
   hop), ``"nd"`` (C-Coll without PIPE-SZx overlap), ``"on"`` (Overlap, the
   full C-Coll framework) or ``"auto"`` (the fabric break-even gate).  Which
   collective runs which variant is ``repro.api.communicator.C_VARIANTS``.
3. Every call returns the familiar outcome objects
   (:class:`~repro.collectives.context.CollectiveOutcome` /
   :class:`~repro.ccoll.movement.CCollOutcome`): per-rank values plus the
   simulated timeline.

For example::

    from repro.api import Cluster, Communicator

    comm = Cluster.from_preset("shared_uplink", ranks_per_node=4).communicator(16)
    outcome = comm.allreduce(vectors, compression="auto")
    print(outcome.total_time, comm.last_algorithm)

Under the facade every collective is a *plan*: the ``_plan_*`` builders of
:mod:`repro.collectives` and :mod:`repro.ccoll` return a
:class:`~repro.collectives.context.CollectivePlan` (rank-program factory plus
the closure that reads the outcome off a finished simulation) and the
communicator is the single place that launches one on the discrete-event
simulator — or, through :meth:`Communicator.capture`, hands it out unlaunched
for :mod:`repro.workload` to replay on a shared multi-job engine.
"""

from repro.api.cluster import Cluster
from repro.api.communicator import Communicator

__all__ = ["Cluster", "Communicator"]
