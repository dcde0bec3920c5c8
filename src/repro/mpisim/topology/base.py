"""The :class:`Topology` interface and the fabrics without switches.

Flat, hierarchical and shared-uplink topologies, plus :class:`Contended` —
the one place the shared stages of a topology, and the contention discipline
it asks for, are stored and reset (switch fabrics reuse it).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.mpisim.fairshare import CONTENTION_MODES, CONTENTION_RESERVATION
from repro.mpisim.topology.links import LinkModel, SharedLink
from repro.utils.validation import ensure_in

__all__ = [
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "SharedUplinkTopology",
]

#: calibrated defaults for a two-level cluster: intra-node links are
#: shared-memory class (fast, sub-microsecond), inter-node links are the
#: calibrated effective Omni-Path fabric of :class:`NetworkModel`.
DEFAULT_INTRA_LATENCY = 0.5e-6
DEFAULT_INTRA_BANDWIDTH = 12.0e9
DEFAULT_INTER_LATENCY = 20e-6
DEFAULT_INTER_BANDWIDTH = 0.55e9


class Topology(ABC):
    """Maps ranks to nodes and rank pairs to links.

    The engine calls :meth:`link` once per posted send; returning ``None``
    means "use the global :class:`NetworkModel` unchanged", which is how the
    flat topology stays bit-for-bit identical to the seed simulator.
    """

    #: switch-tier stage families this fabric wires — the degradable tier
    #: seeded fault mixes draw from (none without switches)
    link_families: Tuple[str, ...] = ()
    #: fabric oversubscription (host injection : switch capacity); 1.0 = non-blocking
    oversubscription_ratio: float = 1.0
    #: parallel NIC rails per node (1 unless the fabric is rail-optimised)
    nics_per_node: int = 1

    @abstractmethod
    def node_of(self, rank: int) -> int:
        """Node id hosting ``rank``."""

    @abstractmethod
    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        """Link used by a ``src -> dst`` transfer (``None`` = global model)."""

    def resolve_link(self, src: int, dst: int) -> Optional[LinkModel]:
        """Resolve the link for one *posted* send (called by the engine).

        Unlike :meth:`link` — which must be a pure snapshot — this hook may be
        stateful: switch fabrics use it to stripe messages across NIC rails
        and to route adaptively around backlogged stages.  The default
        delegates to :meth:`link`.
        """
        return self.link(src, dst)

    def same_node(self, src: int, dst: int) -> bool:
        """Whether two ranks are co-located."""
        return self.node_of(src) == self.node_of(dst)

    def n_nodes(self, n_ranks: int) -> int:
        """Number of distinct nodes hosting the first ``n_ranks`` ranks."""
        return len({self.node_of(r) for r in range(n_ranks)})

    def max_ranks_per_node(self, n_ranks: int) -> int:
        """Largest co-located rank group size."""
        counts: Dict[int, int] = {}
        for r in range(n_ranks):
            node = self.node_of(r)
            counts[node] = counts.get(node, 0) + 1
        return max(counts.values()) if counts else 1

    @property
    def shares_uplinks(self) -> bool:
        """Whether concurrent inter-node transfers contend for bandwidth."""
        return False

    @property
    def contention(self) -> str:
        """Contention discipline of this fabric's shared stages.

        ``"reservation"`` (the bit-for-bit default) or ``"fair"``; see the
        package docstring's "Contention models" section.  Uncontended
        topologies report ``"reservation"`` — they have no shared stages, so
        both disciplines are identical.
        """
        return CONTENTION_RESERVATION

    def stages(self) -> Mapping[Tuple, SharedLink]:
        """Every shared stage instantiated so far, by stage id (read-only).

        A stage id is a tuple naming one directed physical link —
        ``("uplink", node)``, ``("nic-up", node, rail)``, ``("ft-up", pod,
        edge, agg)`` — whose first element is the stage family.  Uncontended
        topologies have none.
        """
        return {}

    def effective_inter_bandwidth(self) -> Optional[float]:
        """Bandwidth one uncontended inter-node flow actually sees, or ``None``.

        ``None`` means "the global network model's bandwidth" (flat fabrics).
        The collective selector and the topology-aware C-Allreduce use this to
        scale their tuning thresholds and to decide whether compressing the
        inter-node hops pays on this fabric.
        """
        return None

    def fault_degradation(self) -> float:
        """How much fault overlays currently slow the inter-node tier.

        ``nominal / degraded`` effective inter-node bandwidth: 1.0 on a
        healthy fabric, 2.0 when the bottleneck tier runs at half rate.  The
        collective selector uses this to steer critical paths off degraded
        fabric (see the package docstring's "Fault model" section).  Fabrics
        without fault support always report 1.0.
        """
        return 1.0

    def reset(self) -> None:
        """Clear any per-simulation contention state (called by the engine)."""

    def describe(self) -> str:
        """One-line human-readable summary."""
        return type(self).__name__


class FlatTopology(Topology):
    """One rank per node, uniform links — the seed's (and the paper's) fabric.

    ``link()`` returns ``None`` for every pair, so the engine uses the global
    :class:`NetworkModel` through the exact code path the seed used.
    """

    def node_of(self, rank: int) -> int:
        return rank

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        return None

    def describe(self) -> str:
        return "flat (uniform links, one rank per node)"


class PlacedTopology(Topology):
    """Shared placement logic: block or explicit rank -> node mapping."""

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
    ) -> None:
        if placement is None and ranks_per_node < 1:
            raise ValueError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.ranks_per_node = int(ranks_per_node)
        self.placement = list(placement) if placement is not None else None
        if self.placement is not None and any(n < 0 for n in self.placement):
            raise ValueError("placement node ids must be non-negative")

    def node_of(self, rank: int) -> int:
        if self.placement is not None:
            if not (0 <= rank < len(self.placement)):
                raise IndexError(
                    f"rank {rank} outside explicit placement of {len(self.placement)} ranks"
                )
            return self.placement[rank]
        return rank // self.ranks_per_node


class HierarchicalTopology(PlacedTopology):
    """Two-level fabric with dedicated per-pair links.

    Parameters
    ----------
    ranks_per_node:
        Block placement: rank ``r`` lives on node ``r // ranks_per_node``
        (ignored when ``placement`` is given).
    placement:
        Explicit rank -> node id mapping (overrides ``ranks_per_node``).
    inter_latency / inter_bandwidth:
        The inter-node fabric link (defaults match the calibrated
        :class:`~repro.mpisim.network.NetworkModel`).

    The intra-node link is the shared-memory class
    (``DEFAULT_INTRA_LATENCY`` / ``DEFAULT_INTRA_BANDWIDTH``).
    """

    def __init__(
        self,
        ranks_per_node: int = 1,
        placement: Optional[Sequence[int]] = None,
        inter_latency: float = DEFAULT_INTER_LATENCY,
        inter_bandwidth: float = DEFAULT_INTER_BANDWIDTH,
    ) -> None:
        super().__init__(ranks_per_node=ranks_per_node, placement=placement)
        self._intra = LinkModel(latency=DEFAULT_INTRA_LATENCY, bandwidth=DEFAULT_INTRA_BANDWIDTH)
        self._inter = LinkModel(latency=inter_latency, bandwidth=inter_bandwidth)

    def effective_inter_bandwidth(self) -> Optional[float]:
        return self._inter.bandwidth

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        return self._intra if self.same_node(src, dst) else self._inter

    def describe(self) -> str:
        return (
            f"hierarchical ({self.ranks_per_node} ranks/node, "
            f"intra {self._intra.bandwidth / 1e9:.1f} GB/s, "
            f"inter {self._inter.bandwidth / 1e9:.2f} GB/s)"
        )


class Contended:
    """Mixin: named shared stages timed under one contention discipline.

    Everything the ``contention`` knob means to a topology lives here — the
    discipline it asks the engine for, the stages it instantiates and the
    per-simulation reset.  The discipline is fixed at construction: no
    re-timed clone exists.  The stages are the same objects under both
    disciplines; the fair-share registry belongs to the run (the
    :class:`~repro.mpisim.engine.Engine` creates it).  Mix in *before* the
    :class:`Topology` base so these members override its uncontended
    defaults; call :meth:`_init_contention` from ``__init__``.
    """

    def _init_contention(self, contention: str) -> None:
        """Configure the contention discipline, with no stage built yet."""
        ensure_in(contention, CONTENTION_MODES, "contention")
        self._contention = contention
        # lazily built, reused across simulations (reset() clears state in place)
        self._stages: Dict[Tuple, SharedLink] = {}

    @property
    def shares_uplinks(self) -> bool:
        return True

    @property
    def contention(self) -> str:
        return self._contention

    def stages(self) -> Mapping[Tuple, SharedLink]:
        return self._stages

    def reset(self) -> None:
        # in place rather than dropping the dict: repeated launches on one
        # topology object reuse the cached SharedLink / LinkModel instances
        for stage in self._stages.values():
            stage.clear()


class SharedUplinkTopology(Contended, HierarchicalTopology):
    """Two-level fabric where each node has one uplink shared by its egress.

    Every inter-node transfer is charged against the *source* node's
    ``("uplink", node)`` stage; under the default
    ``contention="reservation"`` concurrent egress serialises through the
    :class:`SharedLink` queue, under ``contention="fair"`` it splits the
    uplink max-min fairly (see the package docstring).  Intra-node links stay
    dedicated.
    """

    def __init__(self, *args, contention: str = CONTENTION_RESERVATION, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_contention(contention)
        self._uplink_links: Dict[int, LinkModel] = {}

    def _uplink(self, node: int) -> LinkModel:
        cached = self._uplink_links.get(node)
        if cached is None:
            stage = self._stages[("uplink", node)] = SharedLink(capacity=self._inter.bandwidth)
            cached = self._uplink_links[node] = LinkModel(
                latency=self._inter.latency, bandwidth=self._inter.bandwidth, stages=(stage,)
            )
        return cached

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        if self.same_node(src, dst):
            return self._intra
        return self._uplink(self.node_of(src))

    def describe(self) -> str:
        return (
            f"shared-uplink ({self.ranks_per_node} ranks/node, "
            f"uplink {self._inter.bandwidth / 1e9:.2f} GB/s split across egress, "
            f"{self._contention} contention)"
        )
