"""Public-surface snapshot: ``repro.api.__all__`` is a contract.

Anything added here is something downstream code may depend on forever;
anything removed is a breaking change.  Update the snapshot deliberately,
in the same commit as the surface change.
"""

import repro
import repro.api as api

EXPECTED_API_ALL = ["Cluster", "Communicator"]

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
