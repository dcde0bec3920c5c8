"""Shared execution context for collective algorithms.

Every collective rank program (both the stock baselines in this package and
the C-Coll variants in :mod:`repro.ccoll`) needs two things besides the data:

* a :class:`~repro.perfmodel.CostModel` to convert local work (memcpy,
  reduction, compression) into virtual seconds, and
* the *size multiplier* trick: the harness can declare that every real byte in
  the simulation stands for ``size_multiplier`` virtual bytes, so that the
  paper's 28-678 MB message sweeps can be simulated with proportionally
  smaller (but still real) arrays without changing any algorithm code.  All
  virtual byte counts — network message sizes and compute durations alike —
  are scaled consistently through this context.

It also supplies the uncompressed *hops*.  The four shared schedules take
what a rank does to each message as two rank programs: ``send(payload) ->
(wire data, modelled nbytes)`` before a round posts its receive, and
``receive(data) -> what the rank keeps`` after its wait.  The baselines send
as is and copy on arrival; :mod:`repro.ccoll` passes its own hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

import numpy as np

from repro.mpisim.commands import Compute
from repro.mpisim.engine import payload_nbytes
from repro.mpisim.launcher import SimulationResult
from repro.perfmodel.costmodel import CostModel
from repro.utils.validation import ensure_positive

__all__ = ["CollectiveContext", "CollectiveOutcome", "CollectivePlan", "as_rank_arrays"]

#: a send or receive hop: the rank program a schedule runs on one message
Hop = Callable[[Any], Generator]


@dataclass(frozen=True)
class CollectiveContext:
    """Cost model plus virtual-size scaling shared by all collective programs."""

    cost: CostModel = field(default_factory=CostModel)
    size_multiplier: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.size_multiplier, "size_multiplier")

    # ------------------------------------------------------------- virtual sizes

    def vbytes(self, data: Any) -> int:
        """Virtual size (bytes) of a payload as seen by the network and cost model."""
        return int(round(payload_nbytes(data) * self.size_multiplier))

    def vbytes_raw(self, nbytes: float) -> int:
        """Scale an explicit real byte count to virtual bytes."""
        return int(round(float(nbytes) * self.size_multiplier))

    # ------------------------------------------------------------ local compute

    def memcpy_seconds(self, data: Any) -> float:
        """Virtual time to copy ``data`` locally."""
        return self.cost.memcpy_seconds(self.vbytes(data))

    def reduce_seconds(self, data: Any) -> float:
        """Virtual time to reduce ``data`` element-wise with another operand."""
        return self.cost.reduce_seconds(self.vbytes(data))

    def alloc_seconds(self, data: Any) -> float:
        """Virtual time to allocate a buffer the size of ``data``."""
        return self.cost.alloc_seconds(self.vbytes(data))

    # ------------------------------------------------------- uncompressed hops

    def sent_as_is(self, payload: Any):
        """Send hop: ``payload`` itself, at its virtual size."""
        yield from ()
        return payload, self.vbytes(payload)

    def copied(self, category: str) -> Hop:
        """Receive hop: keep what arrived, charging one memcpy of it to ``category``."""

        def receive(data: Any):
            yield Compute(self.memcpy_seconds(data), category=category)
            return data

        return receive


@dataclass
class CollectiveOutcome:
    """Return value of every collective: per-rank results plus the simulation."""

    values: List[Any]
    sim: SimulationResult

    @property
    def total_time(self) -> float:
        """Virtual makespan of the collective."""
        return self.sim.total_time

    def value(self, rank: int) -> Any:
        """Result of one rank."""
        return self.values[rank]


def _plain_outcome(sim: SimulationResult) -> CollectiveOutcome:
    return CollectiveOutcome(values=sim.rank_values, sim=sim)


@dataclass(frozen=True)
class CollectivePlan:
    """A collective that is built but not yet run.

    Every ``_plan_*`` builder validates its inputs, constructs codecs and
    adapters, and returns one of these; :class:`repro.api.Communicator`
    launches it on its cluster (or hands it out unlaunched from
    :meth:`~repro.api.Communicator.capture`).
    """

    #: ``factory(rank, size)`` returns that rank's program generator
    factory: Callable[[int, int], Generator]
    #: turns the finished simulation into the collective's outcome
    finish: Callable[[SimulationResult], CollectiveOutcome] = _plain_outcome
    #: the allreduce schedule the plan runs (``None`` for other collectives)
    algorithm: Optional[str] = None


def _flat_float_array(data, what: str) -> np.ndarray:
    """``data`` as one flat contiguous array; anything but floats is a ``TypeError``."""
    arr = np.ascontiguousarray(data).reshape(-1)
    if not np.issubdtype(arr.dtype, np.floating):
        raise TypeError(f"{what} must be a float array, got {arr.dtype}")
    return arr


def as_rank_arrays(inputs, n_ranks: int) -> List[np.ndarray]:
    """Normalise collective input into one flat float array per rank.

    ``inputs`` may be a list with one array per rank, or a single array that
    every rank contributes identically (convenient in tests and examples).
    The single-array form is expanded into *independent copies*: rank programs
    may mutate their buffer in place, and sharing one ndarray across all ranks
    would let one rank's mutation corrupt every other rank's input.
    """
    if isinstance(inputs, np.ndarray):
        inputs = [inputs.copy() for _ in range(n_ranks)]
    inputs = list(inputs)
    if len(inputs) != n_ranks:
        raise ValueError(f"expected {n_ranks} per-rank arrays, got {len(inputs)}")
    arrays = [_flat_float_array(arr, f"rank {rank} input") for rank, arr in enumerate(inputs)]
    first = arrays[0]
    for rank, arr in enumerate(arrays):
        if arr.size != first.size or arr.dtype != first.dtype:
            raise ValueError("all per-rank arrays must share the same length and dtype")
    return arrays
