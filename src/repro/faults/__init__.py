"""Seeded fault injection for the simulated fabric (see README.md here).

Typed fault events (:class:`LinkDegrade`, :class:`RailFailure`,
:class:`SlowRank`, :class:`NodeLoss`, and the correlated
:class:`DomainOutage` over a :class:`FailureDomain`) collected into a
time-sorted :class:`FaultSchedule`, replayed into a live engine by
:class:`FaultInjector` through ``Engine.schedule_event`` so faults
interleave deterministically with the event heap.  An empty schedule
changes nothing, bit-for-bit.
"""

from repro.faults.injector import NODE_LOSS_FACTOR, FaultInjector
from repro.faults.schedule import (
    DRAGONFLY_LINK_FAMILIES,
    FAT_TREE_LINK_FAMILIES,
    FAULT_MIXES,
    DomainOutage,
    FailureDomain,
    FaultEvent,
    FaultSchedule,
    LinkDegrade,
    NodeLoss,
    RailFailure,
    SlowRank,
)

__all__ = [
    "DRAGONFLY_LINK_FAMILIES",
    "FAT_TREE_LINK_FAMILIES",
    "FAULT_MIXES",
    "NODE_LOSS_FACTOR",
    "DomainOutage",
    "FailureDomain",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LinkDegrade",
    "NodeLoss",
    "RailFailure",
    "SlowRank",
]
