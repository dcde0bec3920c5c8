"""Factory functions bundling the calibrated network and cost models.

The experiment harness and the examples always obtain their models through
these helpers so that every figure/table is produced with one consistent
calibration (and so that ablations can swap a single piece).
"""

from __future__ import annotations

from repro.mpisim.network import PROGRESS_ASYNC, NetworkModel
from repro.mpisim.topology import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    SharedUplinkTopology,
    Topology,
)
from repro.perfmodel.costmodel import CostModel

__all__ = [
    "default_network",
    "default_cost_model",
    "async_progress_network",
    "line_rate_network",
    "TOPOLOGY_PRESETS",
    "flat_topology",
    "two_level_topology",
    "shared_uplink_topology",
    "fat_tree_topology",
    "dragonfly_topology",
    "rail_optimized_fat_tree",
    "make_topology",
]


def default_network() -> NetworkModel:
    """The calibrated Omni-Path-like fabric (effective collective bandwidth)."""
    return NetworkModel()


def default_cost_model() -> CostModel:
    """The calibrated Broadwell cost model (Table I throughput regime)."""
    return CostModel()


def async_progress_network() -> NetworkModel:
    """Ablation: an interconnect with fully asynchronous progress.

    With hardware progress the transfers overlap compression even without the
    PIPE-SZx polling, which isolates how much of C-Coll's gain comes from the
    overlap optimization versus the compress-once data-movement framework.
    """
    base = default_network()
    return NetworkModel(
        latency=base.latency,
        bandwidth=base.bandwidth,
        eager_threshold=base.eager_threshold,
        inflight_window=base.inflight_window,
        progress=PROGRESS_ASYNC,
    )


def line_rate_network() -> NetworkModel:
    """Ablation: the nominal 100 Gbps line rate (12.5 GB/s) with 1 us latency.

    On such a fabric compression cannot pay for itself (the compressors are an
    order of magnitude slower than the wire), which reproduces the regime where
    compression-enabled collectives lose to the originals.
    """
    base = default_network()
    return NetworkModel(
        latency=1e-6,
        bandwidth=12.5e9,
        eager_threshold=base.eager_threshold,
        inflight_window=base.inflight_window,
        progress=base.progress,
    )


# ------------------------------------------------------------------ topologies
#
# A preset is its topology class plus the handful of defaults that make it the
# named regime.  The classes already default their fabric links to the
# calibrated ``default_network()`` rate (``DEFAULT_INTER_LATENCY`` /
# ``DEFAULT_INTER_BANDWIDTH``), so a factory that re-declared and forwarded
# constructor parameters would only be a second copy of a signature to keep in
# step.  Every keyword goes straight to the class, which documents and
# validates it and rejects unknown ones with ``TypeError``.


def flat_topology() -> FlatTopology:
    """The paper's placement: one rank per node, uniform calibrated links
    (bit for bit "no topology" — the default everywhere)."""
    return FlatTopology()


def two_level_topology(**overrides) -> HierarchicalTopology:
    """Two-level cluster, 4 ranks/node: fast intra-node links, dedicated
    (uncontended) inter-node links — placement without contention."""
    return HierarchicalTopology(**{"ranks_per_node": 4, **overrides})


def shared_uplink_topology(**overrides) -> SharedUplinkTopology:
    """Two-level cluster, 4 ranks/node, whose single per-node uplink is split by
    concurrent egress — the oversubscribed regime where hierarchical /
    topology-aware collectives beat the flat ring."""
    return SharedUplinkTopology(**{"ranks_per_node": 4, **overrides})


def fat_tree_topology(**overrides) -> FatTreeTopology:
    """Three-level k-ary fat tree (k=4, non-blocking) with the calibrated NIC
    as host injection; ``oversubscription=2.0`` gives the classic 2:1 taper."""
    return FatTreeTopology(**overrides)


def dragonfly_topology(**overrides) -> DragonflyTopology:
    """Dragonfly (4 groups x 4 routers) with all-to-all groups and the
    calibrated NIC as injection; pair a tapered global tier with
    ``routing="adaptive"`` for Valiant detours."""
    return DragonflyTopology(**overrides)


def rail_optimized_fat_tree(**overrides) -> FatTreeTopology:
    """Rail-optimised GPU-pod wiring: 4 co-located ranks stripe over 2 NIC
    rails into a 2:1 tree, adaptively routed — striping recovers the bandwidth
    the tapered switch tier takes away."""
    named = {
        "ranks_per_node": 4,
        "nics_per_node": 2,
        "oversubscription": 2.0,
        "rail_policy": "stripe",
        "routing": "adaptive",
    }
    return FatTreeTopology(**{**named, **overrides})


#: preset name -> factory; keywords override the topology class's parameters
TOPOLOGY_PRESETS = {
    "flat": flat_topology,
    "two_level": two_level_topology,
    "shared_uplink": shared_uplink_topology,
    "fat_tree": fat_tree_topology,
    "dragonfly": dragonfly_topology,
    "rail_fat_tree": rail_optimized_fat_tree,
}


def make_topology(name: str, **kwargs) -> Topology:
    """Instantiate a named topology preset (see :data:`TOPOLOGY_PRESETS`)."""
    key = name.lower()
    if key not in TOPOLOGY_PRESETS:
        raise ValueError(
            f"unknown topology preset {name!r}; available: {', '.join(TOPOLOGY_PRESETS)}"
        )
    if key == "flat" and kwargs:
        raise ValueError(
            "the flat preset pins one rank per node and takes no parameters; "
            f"got {sorted(kwargs)}"
        )
    return TOPOLOGY_PRESETS[key](**kwargs)
