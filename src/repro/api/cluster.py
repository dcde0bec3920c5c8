"""The :class:`Cluster` — one object binding the whole machine description.

Layer one of the session API's three-layer story::

    Cluster  ->  Communicator  ->  CollectiveOutcome / CCollOutcome
    (machine)    (session)         (per-rank values + simulated timing)

A ``Cluster`` bundles the interconnect
:class:`~repro.mpisim.network.NetworkModel`, the placement/fabric
:class:`~repro.mpisim.topology.Topology` and the C-Coll
:class:`~repro.ccoll.config.CCollConfig` (which holds the
:class:`~repro.perfmodel.costmodel.CostModel` and the virtual
``size_multiplier``) into a single immutable value that is bound *once* and
threaded everywhere by :class:`repro.api.Communicator`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.ccoll.config import CCollConfig
from repro.collectives.context import CollectiveContext
from repro.mpisim.network import NetworkModel
from repro.mpisim.topology import Topology
from repro.perfmodel.presets import TOPOLOGY_PRESETS, default_network, make_topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.communicator import Communicator

__all__ = ["Cluster"]


def _fat_tree_arity_for(nodes: int) -> int:
    """Smallest even fat-tree arity ``k`` whose ``k^3/4`` host slots fit ``nodes``."""
    k = 2
    while k * k * k // 4 < nodes:
        k += 2
    return k


def _translate_nodes(preset: str, nodes: int, kwargs: dict) -> dict:
    """Turn a ``nodes=N`` convenience argument into preset-native parameters."""
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if preset in ("fat_tree", "rail_fat_tree"):
        kwargs.setdefault("k", _fat_tree_arity_for(nodes))
    elif preset == "dragonfly":
        routers = kwargs.get("routers_per_group", 4)
        per_router = kwargs.get("nodes_per_router", 1)
        kwargs.setdefault("n_groups", max(2, math.ceil(nodes / (routers * per_router))))
    else:
        # flat/two_level/shared_uplink size themselves from n_ranks at call
        # time, so a fixed node count has nothing to configure
        raise ValueError(
            f"preset {preset!r} derives its node count from the communicator size; "
            "'nodes' only applies to fixed-size fabrics (fat_tree, rail_fat_tree, dragonfly)"
        )
    return kwargs


class Cluster:
    """Immutable description of the machine a :class:`Communicator` runs on.

    Parameters
    ----------
    network:
        Interconnect model; ``None`` keeps the engine's calibrated
        Omni-Path-like default.
    topology:
        Placement/fabric model; ``None`` is the flat one-rank-per-node fabric.
    config:
        C-Coll settings (codec, error bound, cost model, virtual-size
        scaling).  Defaults to :class:`CCollConfig`'s calibrated defaults.
    preset:
        The topology preset name :meth:`from_preset` recorded, if any.
    """

    __slots__ = ("network", "topology", "config", "preset")

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        topology: Optional[Topology] = None,
        config: Optional[CCollConfig] = None,
        preset: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "config", config if config is not None else CCollConfig())
        object.__setattr__(self, "preset", preset)

    def __setattr__(self, name, value):  # noqa: ANN001 - immutability guard
        raise AttributeError(f"Cluster is immutable; use with_updates() to change {name!r}")

    # ------------------------------------------------------------ construction

    @classmethod
    def from_preset(
        cls,
        preset: str,
        *,
        network: Optional[NetworkModel] = None,
        config: Optional[CCollConfig] = None,
        nodes: Optional[int] = None,
        **topology_kwargs,
    ) -> "Cluster":
        """Build a cluster from a named topology preset.

        ``preset`` is a key of
        :data:`repro.perfmodel.presets.TOPOLOGY_PRESETS` (``"flat"``,
        ``"two_level"``, ``"shared_uplink"``, ``"fat_tree"``, ``"dragonfly"``,
        ``"rail_fat_tree"``); remaining keyword arguments go to the preset
        factory — the contended presets accept ``contention="reservation"``
        (default) or ``"fair"`` to pick the stage sharing discipline.  For
        the fixed-size fabrics, ``nodes=N`` picks the smallest fabric with at
        least ``N`` host slots (e.g. ``Cluster.from_preset("fat_tree",
        nodes=8)`` chooses the 16-host ``k=4`` tree).  The calibrated network
        model is bound explicitly so the cluster is self-describing.
        """
        key = preset.lower()
        if key not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {preset!r}; available: {', '.join(TOPOLOGY_PRESETS)}"
            )
        kwargs = dict(topology_kwargs)
        if nodes is not None:
            kwargs = _translate_nodes(key, nodes, kwargs)
        return cls(
            network=network if network is not None else default_network(),
            topology=make_topology(key, **kwargs),
            config=config,
            preset=key,
        )

    def with_updates(self, **kwargs) -> "Cluster":
        """Return a copy with some of (network, topology, config, preset) replaced."""
        merged = {
            "network": self.network,
            "topology": self.topology,
            "config": self.config,
            "preset": self.preset,
        }
        if "topology" in kwargs and "preset" not in kwargs:
            # a replaced topology invalidates the recorded preset name
            merged["preset"] = None
        merged.update(kwargs)
        return Cluster(**merged)

    # ----------------------------------------------------------------- session

    def context(self) -> CollectiveContext:
        """The execution context the uncompressed baselines run with."""
        return self.config.context()

    def communicator(self, n_ranks: int) -> "Communicator":
        """Open a session of ``n_ranks`` ranks on this cluster."""
        from repro.api.communicator import Communicator  # noqa: PLC0415 - cycle

        return Communicator(self, n_ranks)

    def __repr__(self) -> str:
        fabric = self.preset or (
            type(self.topology).__name__ if self.topology is not None else "flat"
        )
        return (
            f"Cluster(fabric={fabric}, codec={self.config.codec!r}, "
            f"size_multiplier={self.config.size_multiplier:g})"
        )
