"""Discrete-event MPI runtime simulator.

This package replaces the MPICH/Omni-Path cluster used by the paper with a
deterministic simulator: rank programs are Python generators yielding MPI-like
commands; payloads move for real (numpy arrays / byte strings), and time is
modelled by an alpha-beta network with rendezvous progress-on-poll semantics
(see :mod:`repro.mpisim.network` for why that matters to C-Coll).
"""

from repro.mpisim.commands import (
    Barrier,
    Command,
    Compute,
    Irecv,
    Isend,
    Test,
    Wait,
    Waitall,
)
from repro.mpisim.audit import (
    audit_fabric,
    capacity_conservation_violations,
    trace_fair_allocations,
    trace_reservations,
)
from repro.mpisim.engine import Engine, RankResult, payload_nbytes
from repro.mpisim.fairshare import (
    CONTENTION_FAIR,
    CONTENTION_MODES,
    CONTENTION_RESERVATION,
    FairFlow,
    FairShareRegistry,
)
from repro.mpisim.errors import (
    DeadlockError,
    InvalidCommandError,
    RankProgramError,
    RunawayProgramError,
    SimulationError,
)
from repro.mpisim.launcher import SimulationResult, run_simulation
from repro.mpisim.network import PROGRESS_ASYNC, PROGRESS_ON_POLL, NetworkModel, TransferState
from repro.mpisim.requests import RecvRequest, Request, SendRequest
from repro.mpisim.topology import (
    RAIL_HASH,
    RAIL_STRIPE,
    ROUTE_ADAPTIVE,
    ROUTE_MINIMAL,
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    LinkModel,
    SharedLink,
    SharedUplinkTopology,
    SwitchFabricTopology,
    Topology,
    reserve_path,
)
from repro.mpisim.timeline import (
    CAT_ALLGATHER,
    CAT_COMDECOM,
    CAT_MEMCPY,
    CAT_OTHERS,
    CAT_REDUCTION,
    CAT_WAIT,
    STANDARD_CATEGORIES,
    TimeBreakdown,
)

__all__ = [
    "Command",
    "Compute",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Test",
    "Barrier",
    "Engine",
    "RankResult",
    "payload_nbytes",
    "SimulationResult",
    "run_simulation",
    "NetworkModel",
    "TransferState",
    "PROGRESS_ON_POLL",
    "PROGRESS_ASYNC",
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "SharedUplinkTopology",
    "SwitchFabricTopology",
    "FatTreeTopology",
    "DragonflyTopology",
    "LinkModel",
    "SharedLink",
    "FairFlow",
    "FairShareRegistry",
    "CONTENTION_RESERVATION",
    "CONTENTION_FAIR",
    "CONTENTION_MODES",
    "reserve_path",
    "trace_reservations",
    "capacity_conservation_violations",
    "trace_fair_allocations",
    "audit_fabric",
    "RAIL_HASH",
    "RAIL_STRIPE",
    "ROUTE_MINIMAL",
    "ROUTE_ADAPTIVE",
    "Request",
    "SendRequest",
    "RecvRequest",
    "TimeBreakdown",
    "STANDARD_CATEGORIES",
    "CAT_COMDECOM",
    "CAT_ALLGATHER",
    "CAT_MEMCPY",
    "CAT_WAIT",
    "CAT_REDUCTION",
    "CAT_OTHERS",
    "SimulationError",
    "DeadlockError",
    "InvalidCommandError",
    "RankProgramError",
    "RunawayProgramError",
]
