"""Topology layer: per-(src, dst) link resolution for the simulated fabric.

Module map (imports run one way, left to right)::

    links.py    SharedLink / LinkModel / reserve_path: how a stage is shared and metered
    overlay.py  FaultOverlay: which stage ids are degraded or failed
    base.py     Topology, flat / hierarchical / shared-uplink, the Contended mixin   <- links
    switch.py   SwitchFabricTopology (rails, routing), fat tree, dragonfly          <- links, base, overlay

The seed simulator modelled the interconnect as one global
:class:`~repro.mpisim.network.NetworkModel` — every rank pair saw the same
latency and bandwidth, which matches the paper's one-rank-per-node Omni-Path
runs but cannot express the placements real clusters use.  This package makes
the interconnect pluggable: a :class:`Topology` maps every (src, dst) rank
pair to a :class:`LinkModel`, and the engine charges each transfer against its
link instead of the global model.

Five topologies are provided:

* :class:`FlatTopology` — every pair uses the global network model, exactly as
  the seed did.  ``link()`` returns ``None`` so the engine takes the original
  code path and all calibrated figures reproduce bit-for-bit.
* :class:`HierarchicalTopology` — two-level fabric: ranks co-located on a node
  talk over a fast intra-node link (shared-memory / UPI class), ranks on
  different nodes over the slower inter-node fabric.  Each pair gets a
  dedicated link (no contention), which isolates the placement effect.
* :class:`SharedUplinkTopology` — hierarchical placement plus contention: all
  concurrent inter-node transfers leaving one node split that node's single
  uplink evenly.  This is the regime where hierarchical collectives (and the
  topology-aware C-Allreduce in :mod:`repro.ccoll.topology_aware`) pay off.
* :class:`FatTreeTopology` / :class:`DragonflyTopology` — switch-level
  fabrics built on :class:`SwitchFabricTopology`.

Path/stage contention model
---------------------------

The shared-uplink model meters per-node egress only: transfers between two
*different* node pairs never contend.  Switch-level fabrics fix that by
resolving every inter-node ``(src, dst)`` pair to a multi-hop *path* of
:class:`SharedLink` stages — NIC egress, one link per inter-switch hop, NIC
ingress — so any two transfers whose paths overlap on a stage queue against
each other, wherever their endpoints live.  A three-level k-ary fat tree
(``k = 4`` shown) wires the stages like this::

            core0   core1   core2   core3          ("ft-agg-core" /
              |  \\  /  |      |  \\  /  |            "ft-core-agg" stages)
            +-------------+ +-------------+
            | agg0   agg1 | | agg0   agg1 |  ...   (one box per pod,
            |   |  X   |  | |   |  X   |  |         k/2 agg switches)
            | edge0 edge1 | | edge0 edge1 |        ("ft-up"/"ft-down" stages)
            +--/-\\---/-\\--+ +--/-\\---/-\\--+
              h0 h1 h2 h3     h4 h5 h6 h7   ...    (k/2 hosts per edge,
              |NIC rails 0..r per host|             "nic-up"/"nic-down")

A transfer ``h0 -> h6`` climbs ``nic-up -> ft-up -> ft-agg-core`` and descends
``ft-core-agg -> ft-down -> nic-down``; a concurrent ``h1 -> h7`` that hashes
onto the same aggregation/core choice shares three of those stages and queues
behind it, even though the two flows share neither endpoint.  Each stage is a
:class:`SharedLink` with its own capacity (switch links are scaled by
``1 / oversubscription``), multi-NIC hosts expose ``nics_per_node`` parallel
rail stages selected per message (hash or stripe), and routing is either
``minimal`` (deterministic ECMP hash over the candidate paths) or ``adaptive``
(least-loaded candidate by reservation backlog).

Contention models
-----------------

A run times overlapping bulk streams on shared stages with one of two
disciplines.  The stage is the same :class:`SharedLink` object under both; a
topology's discipline is fixed when it is built (its ``contention``
parameter — no re-timed clone of a topology exists), and the engine resolves
the run's once — fair when either that parameter or
``NetworkModel.contention`` asks for it.  The fair-share registry belongs to
that run (the :class:`~repro.mpisim.engine.Engine` creates it), not to the
topology:

``contention="reservation"`` (default)
    A :class:`SharedLink` serialises bulk streams at full capacity and gates
    windowed poll credits behind earlier reservations, so aggregate traffic
    never exceeds the stage capacity.  A multi-stage path reserves every
    stage it crosses from a common start time (see :func:`reserve_path`); per
    stage the occupied wire time is ``bytes / capacity``, which keeps
    per-stage capacity conservation exact — the property-based tests in
    ``tests/property`` pin this invariant.  Serialising is *aggregate-exact*
    for symmetric flows: the last of ``k`` equal streams finishes exactly when
    fair splitting would finish all of them.  For asymmetric mixes it is
    biased — whichever flow resolves first occupies the whole wire, so a
    small flow queued behind a large one finishes late.

``contention="fair"``
    Each stage applies processor sharing with max-min fair rates
    (progressive filling, see :mod:`repro.mpisim.fairshare`): the
    active-flow set re-divides the stage capacity on every arrival and
    departure, flows receive rate-change callbacks instead of a precomputed
    finish time, and the engine commits a departure only once no rank can act
    before it.  Symmetric flow sets reproduce the reservation model's
    aggregate finish times exactly; in an asymmetric mix the smaller flow
    completes strictly earlier — the physically faithful order.  This is the
    model to use when flow *ordering* matters (e.g. topology-aware
    C-Allreduce compresses only inter-node hops, making the residual flows
    asymmetric).

Both disciplines conserve capacity exactly; ``reservation`` stays the
bit-for-bit default everywhere (golden makespan pins in ``tests/property``
freeze it).  Uncontended topologies (flat, hierarchical) have no shared
stages, so the knob does not apply to them.

Fault model
-----------

Switch fabrics accept *fault overlays* — keyed by a stage-id prefix — that
degrade or fail whole families of stages mid-run (installed by the seeded
schedules of :mod:`repro.faults` through ``Engine.schedule_event``):

* **Degradation** (``set_stage_fault(prefix, factor=f)``): every stage whose
  id starts with ``prefix`` runs at ``nominal_capacity x f``.  Overlapping
  overlays multiply.  Already-instantiated stages are re-capacitated in
  place and cached path-link bottleneck bandwidths are refreshed, so both
  bulk reservations and windowed poll credits see the degraded wire;
  ``contention="fair"`` callers additionally feed the returned stages to
  :meth:`FairShareRegistry.apply_capacity_change` so in-flight fluid flows
  re-divide at the new capacities (the injector does this automatically).
* **Failure** (``failed=True``): the stage stays capacitated but routing
  refuses to cross it — ``_choose_route`` drops candidates containing a
  failed stage (raising if none survives) and ``resolve_link`` skips failed
  NIC rails, advancing deterministically to the next live rail.  In-flight
  transfers drain; only *new* messages re-route, which models link-level
  retransmission finishing what already entered the wire.
* **Reaction contract**: with any overlay active, adaptive routing orders
  candidates by (worst degradation, reservation backlog, placement history),
  so traffic rebalances around degraded stages before it balances load; and
  ``effective_inter_bandwidth()`` applies the worst live overlay factor per
  tier (conservatively treating a single degraded stage as degrading its
  whole tier), which is what lets the collective selector and the
  C-Allreduce compression gate react to faults with no code of their own.

Which stages can fail: any stage family a fabric wires — ``nic-up`` /
``nic-down`` rails, fat-tree ``ft-up`` / ``ft-down`` / ``ft-agg-core`` /
``ft-core-agg``, dragonfly ``df-local`` / ``df-global``.  Overlays are
cleared by ``clear_stage_fault`` and by ``reset()`` (a fresh simulation
starts healthy); with no overlays installed, every code path above is
byte-identical to the fault-free fabric, which keeps the golden makespan
pins bit-for-bit.
"""

from repro.mpisim.fairshare import CONTENTION_FAIR, CONTENTION_RESERVATION
from repro.mpisim.topology.base import (
    DEFAULT_INTER_BANDWIDTH,
    DEFAULT_INTER_LATENCY,
    DEFAULT_INTRA_BANDWIDTH,
    DEFAULT_INTRA_LATENCY,
    FlatTopology,
    HierarchicalTopology,
    SharedUplinkTopology,
    Topology,
)
from repro.mpisim.topology.links import LinkModel, SharedLink, reserve_path
from repro.mpisim.topology.switch import (
    RAIL_HASH,
    RAIL_STRIPE,
    ROUTE_ADAPTIVE,
    ROUTE_MINIMAL,
    DragonflyTopology,
    FatTreeTopology,
    SwitchFabricTopology,
)

__all__ = [
    "SharedLink",
    "CONTENTION_RESERVATION",
    "CONTENTION_FAIR",
    "LinkModel",
    "reserve_path",
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "SharedUplinkTopology",
    "SwitchFabricTopology",
    "FatTreeTopology",
    "DragonflyTopology",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_MINIMAL",
    "ROUTE_ADAPTIVE",
]
