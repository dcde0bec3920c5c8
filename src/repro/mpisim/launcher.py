"""Convenience entry point for running a simulated MPI job.

``run_simulation`` wraps :class:`repro.mpisim.engine.Engine` and packages the
per-rank outcomes into a :class:`SimulationResult`, which is what the
collectives, the C-Coll frameworks and the experiment harness consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.mpisim.engine import Engine, RankResult
from repro.mpisim.network import NetworkModel
from repro.mpisim.timeline import TimeBreakdown
from repro.mpisim.topology import Topology

__all__ = ["DEFAULT_MAX_COMMANDS", "SimulationResult", "run_simulation"]

#: safety limit on the commands one simulation may execute
DEFAULT_MAX_COMMANDS = 50_000_000


@dataclass
class SimulationResult:
    """Outcome of one simulated collective / rank-program run.

    Attributes
    ----------
    n_ranks:
        Number of simulated ranks.
    ranks:
        Per-rank :class:`~repro.mpisim.engine.RankResult` entries.
    """

    n_ranks: int
    ranks: List[RankResult]

    @property
    def total_time(self) -> float:
        """Virtual makespan: the latest rank finish time."""
        return max(r.finish_time for r in self.ranks)

    @property
    def rank_values(self) -> List[Any]:
        """Return values of every rank program (in rank order)."""
        return [r.value for r in self.ranks]

    @property
    def rank_times(self) -> List[float]:
        """Finish time of every rank (in rank order)."""
        return [r.finish_time for r in self.ranks]

    @property
    def total_bytes_sent(self) -> int:
        """Bytes injected into the network across all ranks."""
        return sum(r.bytes_sent for r in self.ranks)

    @property
    def total_messages(self) -> int:
        """Number of point-to-point messages across all ranks."""
        return sum(r.messages_sent for r in self.ranks)

    def breakdown(self, rank: int) -> TimeBreakdown:
        """Per-category breakdown of one rank."""
        return self.ranks[rank].breakdown

    def breakdown_mean(self) -> TimeBreakdown:
        """Average per-category breakdown across ranks (the paper's bar charts)."""
        return TimeBreakdown.mean([r.breakdown for r in self.ranks])

    def category_seconds(self, category: str) -> float:
        """Mean seconds spent in ``category`` across ranks."""
        return self.breakdown_mean().get(category)


def run_simulation(
    n_ranks: int,
    program_factory: Callable[[int, int], Generator],
    network: Optional[NetworkModel] = None,
    max_commands: int = DEFAULT_MAX_COMMANDS,
    topology: Optional[Topology] = None,
) -> SimulationResult:
    """Run ``program_factory(rank, size)`` on ``n_ranks`` simulated ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks in the simulated communicator.
    program_factory:
        Called once per rank with ``(rank, size)``; must return a rank-program
        generator (see :mod:`repro.mpisim.commands`).
    network:
        Interconnect model; defaults to the calibrated Omni-Path-like model.
    max_commands:
        Safety limit on the total number of commands executed.
    topology:
        Optional :class:`~repro.mpisim.topology.Topology` resolving per-pair
        links; ``None`` (or a flat topology) reproduces the seed's uniform
        fabric exactly.
    """
    engine = Engine(
        n_ranks=n_ranks,
        program_factory=program_factory,
        network=network,
        max_commands=max_commands,
        topology=topology,
    )
    return SimulationResult(n_ranks=n_ranks, ranks=engine.run())
