"""A topology preset is its class plus the defaults that name the regime."""

from __future__ import annotations

import inspect

import pytest

from repro.mpisim.topology import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    SharedUplinkTopology,
)
from repro.perfmodel import TOPOLOGY_PRESETS, default_network, make_topology

#: preset -> (topology class, the defaults that make it the named regime)
NAMED = {
    "flat": (FlatTopology, {}),
    "two_level": (HierarchicalTopology, {"ranks_per_node": 4}),
    "shared_uplink": (SharedUplinkTopology, {"ranks_per_node": 4}),
    "fat_tree": (FatTreeTopology, {}),
    "dragonfly": (DragonflyTopology, {}),
    "rail_fat_tree": (
        FatTreeTopology,
        {
            "ranks_per_node": 4,
            "nics_per_node": 2,
            "oversubscription": 2.0,
            "rail_policy": "stripe",
            "routing": "adaptive",
        },
    ),
}


def _traits(topology):
    return (
        type(topology),
        topology.describe(),
        getattr(topology, "ranks_per_node", 1),
        topology.nics_per_node,
        topology.oversubscription_ratio,
        getattr(topology, "routing", None),
        getattr(topology, "rail_policy", None),
        topology.effective_inter_bandwidth(),
        getattr(topology, "contention", None),
    )


def test_every_preset_is_covered():
    assert set(NAMED) == set(TOPOLOGY_PRESETS)


@pytest.mark.parametrize("name", NAMED)
def test_preset_is_its_class_with_the_named_defaults(name):
    cls, named = NAMED[name]
    assert _traits(TOPOLOGY_PRESETS[name]()) == _traits(cls(**named))
    assert _traits(make_topology(name)) == _traits(cls(**named))


@pytest.mark.parametrize("name", [n for n in NAMED if n != "flat"])
def test_overrides_reach_the_class_and_unknown_keywords_are_type_errors(name):
    cls, named = NAMED[name]
    built = make_topology(name, ranks_per_node=3, placement=None)
    assert _traits(built) == _traits(cls(**{**named, "ranks_per_node": 3}))
    with pytest.raises(TypeError):
        make_topology(name, ranks_per_nod=2)


@pytest.mark.parametrize("name", ["shared_uplink", "fat_tree", "dragonfly", "rail_fat_tree"])
def test_contended_presets_take_the_sharing_discipline(name):
    assert make_topology(name, contention="fair").contention == "fair"


def test_fabric_links_default_to_the_calibrated_network():
    net = default_network()
    two_level = make_topology("two_level")
    assert two_level.link(0, 4).latency == net.latency
    assert two_level.link(0, 4).bandwidth == net.bandwidth
    tree = make_topology("fat_tree")
    assert (tree.nic_latency, tree.nic_bandwidth) == (net.latency, net.bandwidth)


@pytest.mark.parametrize("name", NAMED)
def test_no_factory_redeclares_a_constructor_parameter(name):
    kinds = {p.kind for p in inspect.signature(TOPOLOGY_PRESETS[name]).parameters.values()}
    assert kinds <= {inspect.Parameter.VAR_KEYWORD}
