"""Switch-level fabrics: path resolution, NIC rails, routing, fault reactions.

:class:`SwitchFabricTopology` turns candidate routes into cached multi-stage
:class:`LinkModel` paths; :class:`FatTreeTopology` and
:class:`DragonflyTopology` supply the wiring.  See the package docstring's
"Path/stage contention model" and "Fault model" sections.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mpisim.fairshare import CONTENTION_FAIR, CONTENTION_RESERVATION
from repro.mpisim.topology.base import (
    DEFAULT_INTER_BANDWIDTH,
    DEFAULT_INTER_LATENCY,
    DEFAULT_INTRA_BANDWIDTH,
    DEFAULT_INTRA_LATENCY,
    Contended,
    PlacedTopology,
)
from repro.mpisim.topology.links import LinkModel, SharedLink
from repro.mpisim.topology.overlay import FaultOverlay, StageKey
from repro.utils.validation import ensure_in, ensure_non_negative, ensure_positive

__all__ = [
    "SwitchFabricTopology",
    "FatTreeTopology",
    "DragonflyTopology",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_MINIMAL",
    "ROUTE_ADAPTIVE",
    "FAT_TREE_LINK_FAMILIES",
    "DRAGONFLY_LINK_FAMILIES",
]

#: per-switch-hop traversal latency (cut-through switching class); the NIC
#: latency (``DEFAULT_INTER_LATENCY``) dominates, matching the calibration
DEFAULT_HOP_LATENCY = 200e-9
#: intermediate groups an adaptively routed dragonfly offers as Valiant detours
VALIANT_CANDIDATES = 2

#: multi-NIC rail-selection policies
RAIL_HASH = "hash"
RAIL_STRIPE = "stripe"
#: routing policies over the candidate paths of a switch fabric
ROUTE_MINIMAL = "minimal"
ROUTE_ADAPTIVE = "adaptive"

#: stage families of the NIC tier, wired by every switch fabric
NIC_STAGE_FAMILIES = ("nic-up", "nic-down")
#: a fat tree's switch-tier stage families
FAT_TREE_LINK_FAMILIES = ("ft-up", "ft-down", "ft-agg-core", "ft-core-agg")
#: a dragonfly's switch-tier stage families
DRAGONFLY_LINK_FAMILIES = ("df-local", "df-global")

_GOLDEN_64 = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    """Deterministic integer hash over small non-negative ints.

    Used for ECMP path and rail selection; unlike :func:`hash` it is stable
    across processes and Python versions, so simulated routings are
    reproducible everywhere.
    """
    h = _GOLDEN_64
    for v in values:
        h ^= (int(v) + _GOLDEN_64 + ((h << 6) & _MASK_64) + (h >> 2)) & _MASK_64
        h = (h * 0x100000001B3) & _MASK_64
    return h


class SwitchFabricTopology(Contended, PlacedTopology):
    """Path-based fabric: every inter-node pair resolves to a chain of stages.

    Concrete fabrics (:class:`FatTreeTopology`, :class:`DragonflyTopology`)
    describe their wiring by returning *candidate routes* — sequences of
    stage ids — between two nodes and the capacity of each stage family
    (:meth:`_tiers`); this base class turns the chosen route into a cached
    :class:`LinkModel` whose ``stages`` chain the per-stage
    :class:`SharedLink` reservation queues, so transfers between different
    node pairs contend wherever their paths overlap (see the package
    docstring's fat-tree diagram).

    Parameters
    ----------
    ranks_per_node / placement:
        Rank placement, as for :class:`HierarchicalTopology` (whose dedicated
        shared-memory-class intra-node link this fabric shares).
    nic_latency / nic_bandwidth:
        Host injection: each NIC rail is a :class:`SharedLink` of this
        capacity; ``nic_latency`` is charged once per message (it dominates
        the per-hop switch latency, matching the calibration).
    nics_per_node:
        Parallel NIC rails per node (multi-NIC / rail-optimised hosts).
    rail_policy:
        ``"hash"`` — rail chosen by a deterministic hash of (src, dst) ranks;
        ``"stripe"`` — successive messages leaving a node round-robin the rails.
    routing:
        ``"minimal"`` — deterministic ECMP hash over the candidate routes;
        ``"adaptive"`` — candidate with the smallest reservation backlog.
    oversubscription:
        Host injection : switch capacity ratio; every inter-switch stage has
        capacity ``nic_bandwidth / oversubscription``.
    hop_latency:
        Extra latency per switch-to-switch hop.
    contention:
        ``"reservation"`` (default) — stages serialise bulk streams through
        the :class:`SharedLink` queue; ``"fair"`` — the active flows of each
        stage re-divide its bandwidth max-min fairly (see the package
        docstring).
    """

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
        nic_latency: float = DEFAULT_INTER_LATENCY,
        nic_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
        nics_per_node: int = 1,
        rail_policy: str = RAIL_HASH,
        routing: str = ROUTE_MINIMAL,
        oversubscription: float = 1.0,
        hop_latency: float = DEFAULT_HOP_LATENCY,
        contention: str = CONTENTION_RESERVATION,
    ) -> None:
        super().__init__(ranks_per_node=ranks_per_node, placement=placement)
        ensure_non_negative(nic_latency, "nic_latency")
        ensure_positive(nic_bandwidth, "nic_bandwidth")
        ensure_positive(oversubscription, "oversubscription")
        ensure_non_negative(hop_latency, "hop_latency")
        ensure_in(rail_policy, (RAIL_HASH, RAIL_STRIPE), "rail_policy")
        ensure_in(routing, (ROUTE_MINIMAL, ROUTE_ADAPTIVE), "routing")
        if nics_per_node < 1:
            raise ValueError(f"nics_per_node must be >= 1, got {nics_per_node}")
        self._intra = LinkModel(latency=DEFAULT_INTRA_LATENCY, bandwidth=DEFAULT_INTRA_BANDWIDTH)
        self.nic_latency = float(nic_latency)
        self.nic_bandwidth = float(nic_bandwidth)
        self.rail_policy = rail_policy
        self.routing = routing
        self.hop_latency = float(hop_latency)
        self.nics_per_node = int(nics_per_node)
        self.oversubscription_ratio = float(oversubscription)
        #: capacity of every ordinary inter-switch stage
        self.switch_bandwidth = self.nic_bandwidth / self.oversubscription_ratio
        # route specs are contention-independent pure structure
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[StageKey, ...], ...]] = {}
        self._init_contention(contention)
        self._path_links: Dict[Tuple[StageKey, ...], LinkModel] = {}
        self._stripe_counters: Dict[int, int] = {}
        # cleared by reset()
        self._overlay = FaultOverlay()
        # what survives the live overlays, memoised until they change: the
        # candidate routes per (src_node, dst_node) and the rail per
        # (src_node, dst_node, chosen rail); never an empty answer
        self._surviving_routes: Dict[Tuple[int, int], Tuple[Tuple[StageKey, ...], ...]] = {}
        self._live_rails: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------- fabric structure hooks

    @property
    @abstractmethod
    def n_fabric_nodes(self) -> int:
        """Number of host slots the fabric wires up."""

    @abstractmethod
    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageKey, ...], ...]:
        """Candidate inter-switch stage chains between two distinct nodes.

        Each candidate excludes the NIC stages (the base class adds them);
        an empty chain means the nodes share a leaf switch and only the NICs
        contend.  Returns at least one candidate.
        """

    def _tiers(self) -> Tuple[Tuple[float, Tuple[str, ...]], ...]:
        """``(nominal capacity, stage families)`` of every tier this fabric wires.

        The one place a stage family gets its capacity: stages are built at
        it, overlays scale it, and the slowest tier bounds an inter-node flow.
        """
        return (
            (self.nic_bandwidth, NIC_STAGE_FAMILIES),
            (self.switch_bandwidth, self.link_families),
        )

    # --------------------------------------------------------- introspection

    def effective_inter_bandwidth(self) -> Optional[float]:
        # per-tier worst live overlay factor (see FaultOverlay.tier_factor):
        # the collective selector and the compression break-even gate read
        # this, so a degraded tier shifts their decisions with no code of
        # their own; every factor is exactly 1.0 on a healthy fabric
        return min(
            bandwidth * self._overlay.tier_factor(families)
            for bandwidth, families in self._tiers()
        )

    def fault_degradation(self) -> float:
        nominal = min(bandwidth for bandwidth, _ in self._tiers())
        return nominal / self.effective_inter_bandwidth()

    def route_of(self, src: int, dst: int, rail: Optional[int] = None) -> Tuple[StageKey, ...]:
        """Stage ids a ``src -> dst`` message crosses (pure snapshot).

        With ``routing="adaptive"`` the answer reflects the current backlog;
        on an idle fabric it is the deterministic first candidate.
        """
        if self.same_node(src, dst):
            return ()
        rail = self._hash_rail(src, dst) if rail is None else int(rail)
        return self._path(self.node_of(src), self.node_of(dst), rail)

    # ---------------------------------------------------------------- faults

    def set_stage_fault(
        self, prefix: StageKey, factor: float = 1.0, failed: bool = False
    ) -> List[SharedLink]:
        """Install a fault overlay on every stage whose id starts with ``prefix``.

        ``factor`` scales the matched stages' nominal capacity (overlapping
        overlays multiply); ``failed=True`` additionally excludes the stages
        from routing (see the package docstring's "Fault model" section).  One
        overlay is live per prefix — setting the same prefix again replaces
        it.  Returns the already-instantiated stages whose capacity changed;
        ``contention="fair"`` callers must hand exactly these to
        :meth:`~repro.mpisim.fairshare.FairShareRegistry.apply_capacity_change`
        so in-flight fluid flows re-divide at the new rates.
        """
        key = tuple(prefix)
        if not key:
            raise ValueError("stage-fault prefix must name at least the stage family")
        if not factor > 0.0:
            raise ValueError(f"fault factor must be > 0, got {factor}")
        self._overlay[key] = (float(factor), bool(failed))
        return self._refresh_fault_capacities()

    def clear_stage_fault(self, prefix: StageKey) -> List[SharedLink]:
        """Remove the overlay installed under ``prefix`` (no-op if absent).

        Matched stages return to ``nominal x remaining overlays``; returns the
        stages whose capacity changed, exactly like :meth:`set_stage_fault`.
        """
        self._overlay.pop(tuple(prefix), None)
        return self._refresh_fault_capacities()

    def active_faults(self) -> Dict[StageKey, Tuple[float, bool]]:
        """Live fault overlays: ``{prefix: (factor, failed)}`` (a copy)."""
        return dict(self._overlay)

    def _refresh_fault_capacities(self) -> List[SharedLink]:
        """Re-capacitate instantiated stages from nominal x live overlays.

        Also refreshes the cached path links' bottleneck bandwidth (windowed
        poll credits read it), so every timing input reflects the overlay set,
        and forgets the surviving routes and live rails of the old set.
        Returns the stages whose capacity actually changed.
        """
        self._surviving_routes.clear()
        self._live_rails.clear()
        changed: List[SharedLink] = []
        for key, stage in self._stages.items():
            capacity = self._nominal_capacity(key) * self._overlay.factor(key)
            if capacity != stage.capacity:
                stage.capacity = capacity
                changed.append(stage)
        if changed:
            for link in self._path_links.values():
                link.bandwidth = min(s.capacity for s in link.stages)
        return changed

    # ------------------------------------------------------------ resolution

    def _nominal_capacity(self, key: StageKey) -> float:
        """Fault-free capacity of one stage: that of its family's tier."""
        return next(capacity for capacity, families in self._tiers() if key[0] in families)

    def _stage_link(self, key: StageKey) -> SharedLink:
        stage = self._stages.get(key)
        if stage is None:
            # the factor is exactly 1.0 on a healthy fabric
            stage = self._stages[key] = SharedLink(
                capacity=self._nominal_capacity(key) * self._overlay.factor(key)
            )
        return stage

    def _routes(self, src_node: int, dst_node: int) -> Tuple[Tuple[StageKey, ...], ...]:
        cached = self._route_cache.get((src_node, dst_node))
        if cached is None:
            for node in (src_node, dst_node):
                if not (0 <= node < self.n_fabric_nodes):
                    raise ValueError(
                        f"node {node} outside the fabric's {self.n_fabric_nodes} host slots "
                        f"({self.describe()}); grow the fabric or fix the placement"
                    )
            cached = self._route_cache[(src_node, dst_node)] = self._switch_routes(
                src_node, dst_node
            )
        return cached

    def _live_routes(self, src_node: int, dst_node: int) -> Tuple[Tuple[StageKey, ...], ...]:
        """The candidate routes that cross no failed stage (memoised)."""
        routes = self._surviving_routes.get((src_node, dst_node))
        if routes is None:
            is_failed = self._overlay.is_failed
            routes = tuple(
                route
                for route in self._routes(src_node, dst_node)
                if not any(is_failed(key) for key in route)
            )
            if not routes:
                raise RuntimeError(
                    f"no surviving route {src_node} -> {dst_node}: every "
                    f"candidate crosses a failed stage ({self.describe()})"
                )
            self._surviving_routes[(src_node, dst_node)] = routes
        return routes

    def _choose_route(self, src_node: int, dst_node: int, rail: int) -> Tuple[StageKey, ...]:
        # failed stages are excluded from routing outright; degradation is
        # handled below as a soft penalty
        if self._overlay:
            routes = self._live_routes(src_node, dst_node)
        else:
            routes = self._routes(src_node, dst_node)
        if len(routes) == 1:
            return routes[0]
        if self.routing == ROUTE_ADAPTIVE:
            # least-loaded candidate, judged by its hottest stage.  Rebalance
            # around degraded stages first — a route crossing a stage at 1/f
            # of nominal rate ranks behind any healthy route (the term is the
            # constant 1.0 on a healthy fabric) — then reservation backlog,
            # then placement history (flows routed at post time have not
            # reserved wire yet and are only visible as `assigned`); min() is
            # stable, so ties pick the first (minimal) candidate.  Probe
            # without instantiating: a stage never routed over is idle, and
            # creating it here would leave phantom entries in stages()
            def load(route: Tuple[StageKey, ...]) -> Tuple[float, float, int]:
                stages = [self._stages.get(key) for key in route]
                return (
                    max((1.0 / self._overlay.factor(key) for key in route), default=1.0)
                    if self._overlay
                    else 1.0,
                    max((s.busy_until for s in stages if s is not None), default=float("-inf")),
                    max((s.assigned for s in stages if s is not None), default=0),
                )

            return min(routes, key=load)
        return routes[_mix(src_node, dst_node, rail) % len(routes)]

    def _hash_rail(self, src: int, dst: int) -> int:
        if self.nics_per_node == 1:
            return 0
        return _mix(src, dst) % self.nics_per_node

    def _stripe_rail(self, src_node: int) -> int:
        count = self._stripe_counters.get(src_node, 0)
        self._stripe_counters[src_node] = count + 1
        return count % self.nics_per_node

    def _path(self, src_node: int, dst_node: int, rail: int) -> Tuple[StageKey, ...]:
        """Stage ids of the currently chosen path: NIC rails around the switch route."""
        route = self._choose_route(src_node, dst_node, rail)
        return (("nic-up", src_node, rail), *route, ("nic-down", dst_node, rail))

    def _fabric_link(self, src_node: int, dst_node: int, rail: int) -> LinkModel:
        path = self._path(src_node, dst_node, rail)
        cached = self._path_links.get(path)
        if cached is None:
            stages = tuple(self._stage_link(key) for key in path)
            cached = self._path_links[path] = LinkModel(
                latency=self.nic_latency + self.hop_latency * (len(path) - 2),
                bandwidth=min(stage.capacity for stage in stages),
                stages=stages,
            )
        return cached

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        return self._fabric_link(self.node_of(src), self.node_of(dst), self._hash_rail(src, dst))

    def _live_rail(self, src_node: int, dst_node: int, rail: int) -> int:
        """The chosen rail, advanced past failed NIC rails (deterministic, memoised)."""
        live = self._live_rails.get((src_node, dst_node, rail))
        if live is not None:
            return live
        nics = self.nics_per_node
        is_failed = self._overlay.is_failed
        for offset in range(nics):
            candidate = (rail + offset) % nics
            if not (
                is_failed(("nic-up", src_node, candidate))
                or is_failed(("nic-down", dst_node, candidate))
            ):
                self._live_rails[(src_node, dst_node, rail)] = candidate
                return candidate
        raise RuntimeError(
            f"all {nics} NIC rail(s) between nodes {src_node} and {dst_node} "
            f"have failed ({self.describe()})"
        )

    def resolve_link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        if self.rail_policy == RAIL_STRIPE and self.nics_per_node > 1:
            rail = self._stripe_rail(src_node)
        else:
            rail = self._hash_rail(src, dst)
        if self._overlay:
            rail = self._live_rail(src_node, dst_node, rail)
        link = self._fabric_link(src_node, dst_node, rail)
        # placement history feeds adaptive routing (see _choose_route)
        for stage in link.stages:
            stage.assigned += 1
        return link

    def reset(self) -> None:
        if self._overlay:
            # a fresh simulation starts healthy; restore nominal capacities
            self._overlay.clear()
            self._refresh_fault_capacities()
        super().reset()
        self._stripe_counters.clear()

    def _contention_suffix(self) -> str:
        return ", fair-share contention" if self._contention == CONTENTION_FAIR else ""


class FatTreeTopology(SwitchFabricTopology):
    """Three-level k-ary fat tree (``k`` pods of ``(k/2)^2`` hosts each).

    Hosts are numbered pod-major: host ``h`` sits in pod ``h // (k/2)^2`` under
    edge switch ``(h % (k/2)^2) // (k/2)``.  Between different edge switches
    there are ``k/2`` equal-cost routes in-pod (one per aggregation switch)
    and ``(k/2)^2`` across pods (aggregation x core); see the package
    docstring's diagram.  All inter-switch stages have capacity
    ``nic_bandwidth / oversubscription``, so ``oversubscription=2`` models the
    classic 2:1-tapered tree.
    """

    link_families = FAT_TREE_LINK_FAMILIES

    def __init__(self, k: int = 4, **kwargs) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be an even integer >= 2, got {k}")
        self.k = int(k)
        self._half = self.k // 2
        self._hosts_per_pod = self._half * self._half
        super().__init__(**kwargs)

    @property
    def n_fabric_nodes(self) -> int:
        return self.k * self._hosts_per_pod

    def _locate(self, node: int) -> Tuple[int, int]:
        pod, rem = divmod(node, self._hosts_per_pod)
        return pod, rem // self._half

    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageKey, ...], ...]:
        spod, sedge = self._locate(src_node)
        dpod, dedge = self._locate(dst_node)
        if (spod, sedge) == (dpod, dedge):
            return ((),)  # same edge switch: only the NIC stages contend
        if spod == dpod:
            return tuple(
                (("ft-up", spod, sedge, agg), ("ft-down", dpod, agg, dedge))
                for agg in range(self._half)
            )
        return tuple(
            (
                ("ft-up", spod, sedge, agg),
                ("ft-agg-core", spod, agg, core),
                ("ft-core-agg", core, dpod, agg),
                ("ft-down", dpod, agg, dedge),
            )
            for agg in range(self._half)
            for core in range(agg * self._half, (agg + 1) * self._half)
        )

    def describe(self) -> str:
        return (
            f"fat-tree (k={self.k}, {self.n_fabric_nodes} hosts, "
            f"{self.ranks_per_node} ranks/node, {self.nics_per_node} NIC rail(s), "
            f"{self.oversubscription_ratio:g}:1 oversubscribed, {self.routing} routing"
            f"{self._contention_suffix()})"
        )


class DragonflyTopology(SwitchFabricTopology):
    """Dragonfly: all-to-all router groups joined by one global link per pair.

    ``n_groups`` groups of ``routers_per_group`` routers host
    ``nodes_per_router`` nodes each.  Routers within a group are fully
    connected by local links; each ordered group pair shares one directed
    global link, attached at gateway router ``dst_group % routers_per_group``
    of the source group.  Minimal routes are local -> global -> local; with
    ``routing="adaptive"``, Valiant detours via ``VALIANT_CANDIDATES``
    intermediate groups are offered and the least-backlogged candidate wins —
    the classic remedy when one global link saturates.

    Local links run at the NIC rate and global links at ``switch_bandwidth``
    (``nic_bandwidth / oversubscription``: global links are the tapered tier).
    """

    link_families = DRAGONFLY_LINK_FAMILIES

    def __init__(
        self,
        n_groups: int = 4,
        routers_per_group: int = 4,
        nodes_per_router: int = 1,
        **kwargs,
    ) -> None:
        if n_groups < 1 or routers_per_group < 1 or nodes_per_router < 1:
            raise ValueError(
                "n_groups, routers_per_group and nodes_per_router must all be >= 1"
            )
        self.n_groups = int(n_groups)
        self.routers_per_group = int(routers_per_group)
        self.nodes_per_router = int(nodes_per_router)
        super().__init__(**kwargs)

    @property
    def n_fabric_nodes(self) -> int:
        return self.n_groups * self.routers_per_group * self.nodes_per_router

    def _tiers(self) -> Tuple[Tuple[float, Tuple[str, ...]], ...]:
        return (
            (self.nic_bandwidth, NIC_STAGE_FAMILIES),
            (self.nic_bandwidth, ("df-local",)),
            (self.switch_bandwidth, ("df-global",)),
        )

    def _locate(self, node: int) -> Tuple[int, int]:
        router = node // self.nodes_per_router
        group, local = divmod(router, self.routers_per_group)
        return group, local

    def _gateway(self, group: int, other_group: int) -> int:
        return other_group % self.routers_per_group

    def _hop_chain(
        self, src_group: int, src_router: int, dst_group: int, dst_router: int
    ) -> Tuple[StageKey, ...]:
        """Minimal router-level chain between two routers (may be empty)."""
        if src_group == dst_group:
            if src_router == dst_router:
                return ()
            return (("df-local", src_group, src_router, dst_router),)
        chain: List[StageKey] = []
        gw_out = self._gateway(src_group, dst_group)
        gw_in = self._gateway(dst_group, src_group)
        if src_router != gw_out:
            chain.append(("df-local", src_group, src_router, gw_out))
        chain.append(("df-global", src_group, dst_group))
        if gw_in != dst_router:
            chain.append(("df-local", dst_group, gw_in, dst_router))
        return tuple(chain)

    def _switch_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[StageKey, ...], ...]:
        sgroup, srouter = self._locate(src_node)
        dgroup, drouter = self._locate(dst_node)
        minimal = self._hop_chain(sgroup, srouter, dgroup, drouter)
        routes = [minimal]
        if self.routing == ROUTE_ADAPTIVE and sgroup != dgroup:
            # Valiant detours: bounce through an intermediate group's gateway
            added = 0
            for step in range(1, self.n_groups):
                mid = (sgroup + dgroup + step) % self.n_groups
                if mid in (sgroup, dgroup):
                    continue
                via = self._gateway(mid, sgroup)
                routes.append(
                    self._hop_chain(sgroup, srouter, mid, via)
                    + self._hop_chain(mid, via, dgroup, drouter)
                )
                added += 1
                if added >= VALIANT_CANDIDATES:
                    break
        return tuple(routes)

    def describe(self) -> str:
        return (
            f"dragonfly ({self.n_groups} groups x {self.routers_per_group} routers x "
            f"{self.nodes_per_router} nodes, {self.ranks_per_node} ranks/node, "
            f"{self.nics_per_node} NIC rail(s), global "
            f"{self.switch_bandwidth / 1e9:.2f} GB/s, {self.routing} routing"
            f"{self._contention_suffix()})"
        )
