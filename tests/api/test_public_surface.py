"""Public-surface snapshot: ``repro.api.__all__`` is a contract.

Anything added here is something downstream code may depend on forever;
anything removed is a breaking change.  Update the snapshot deliberately,
in the same commit as the surface change.
"""

import repro
import repro.api as api
import repro.mpisim.topology as topology

EXPECTED_API_ALL = ["Cluster", "Communicator"]

#: the pre-package ``topology.py`` list minus ``trace_reservations`` /
#: ``capacity_conservation_violations``, which live in ``repro.mpisim.audit``
EXPECTED_TOPOLOGY_ALL = [
    "CONTENTION_FAIR",
    "CONTENTION_RESERVATION",
    "DragonflyTopology",
    "FairShareLink",
    "FatTreeTopology",
    "FlatTopology",
    "HierarchicalTopology",
    "LinkModel",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_ADAPTIVE",
    "ROUTE_MINIMAL",
    "SharedLink",
    "SharedUplinkTopology",
    "SwitchFabricTopology",
    "Topology",
    "reserve_path",
]

#: the facade's collective surface — the methods the issue names, frozen
EXPECTED_COLLECTIVES = [
    "allgather",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "reduce_scatter",
    "scatter",
]


def test_api_all_snapshot():
    assert sorted(api.__all__) == EXPECTED_API_ALL


def test_topology_all_snapshot():
    assert sorted(topology.__all__) == EXPECTED_TOPOLOGY_ALL
    for name in topology.__all__:
        assert getattr(topology, name) is not None


def test_api_all_entries_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_communicator_collective_surface():
    methods = [
        name
        for name in dir(api.Communicator)
        if not name.startswith("_") and callable(getattr(api.Communicator, name))
    ]
    assert sorted(set(methods) & set(EXPECTED_COLLECTIVES)) == EXPECTED_COLLECTIVES


def test_top_level_reexports_session_api():
    assert repro.Cluster is api.Cluster
    assert repro.Communicator is api.Communicator
