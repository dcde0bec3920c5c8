"""Exceptions raised by the MPI runtime simulator."""

from __future__ import annotations

__all__ = [
    "SimulationError", "DeadlockError", "InvalidCommandError", "RankProgramError",
    "RunawayProgramError",
]


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class DeadlockError(SimulationError):
    """Raised when every unfinished rank is blocked and nothing can make progress.

    This mirrors the hang a real MPI job would exhibit (e.g. a receive whose
    matching send is never posted); the exception message lists what every
    blocked rank is waiting for to make debugging rank programs practical.
    """


class InvalidCommandError(SimulationError):
    """Raised when a rank program yields something the engine does not understand."""


class RankProgramError(SimulationError):
    """Raised when a rank program itself raises; wraps the original exception."""


class RunawayProgramError(SimulationError):
    """Raised when a run exceeds ``max_commands`` (every ``Test`` poll counts).

    The message lists the slots that executed the most commands with the tag of
    the job on each and its ready/blocked status: on a shared fabric that names
    the tenant that spun.
    """
