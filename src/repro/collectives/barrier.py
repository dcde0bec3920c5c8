"""Barrier synchronisation (MPI_Barrier).

The engine's :class:`~repro.mpisim.commands.Barrier` command already
synchronises all ranks at the maximum arrival time; this module merely wraps
it in the standard rank-program / plan-builder pair so the facade
(:meth:`repro.api.Communicator.barrier`) launches it like every other
collective.
"""

from __future__ import annotations

from repro.collectives.context import CollectivePlan
from repro.mpisim.commands import Barrier
from repro.mpisim.timeline import CAT_WAIT

__all__ = ["barrier_program"]


def barrier_program(rank: int, size: int, category: str = CAT_WAIT):
    """Rank program: synchronise with every other rank, return ``None``."""
    yield Barrier(category=category)
    return None


def _plan_barrier() -> CollectivePlan:
    """Plan a barrier across all ranks."""
    return CollectivePlan(barrier_program)
