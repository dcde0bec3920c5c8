"""Arrival processes and replayable job traces.

:class:`JobMix` draws a seeded Poisson job stream: exponential inter-arrival
gaps at ``arrival_rate`` jobs per second of *virtual* time, one or two
iterations a job, and sizes, message sizes, ops and compression modes sampled
from the mix's (weighted-by-repetition) choice tuples.  The same ``(mix,
seed)`` pair always draws the same :class:`~repro.workload.job.JobSpec` list.

Traces are JSONL: one ``JobSpec.to_dict()`` object per line, in arrival
order.  ``save_trace``/``load_trace`` round-trip exactly, so a generated
workload can be archived, edited by hand, and replayed bit-for-bit with
``python -m repro.workload replay``.  A line that is not a valid job raises
:class:`TraceFormatError` naming the file and the line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.workload.job import COLLECTIVE_OPS, CollectiveCall, JobSpec

__all__ = ["JobMix", "TraceFormatError", "load_trace", "save_trace"]

#: fewest and most iterations a generated job runs (inclusive)
_ITERATIONS_RANGE = (1, 2)


@dataclass(frozen=True)
class JobMix:
    """A seeded distribution over jobs (the knobs of the arrival process)."""

    n_jobs: int = 8
    #: Poisson arrival rate in jobs per second of virtual time.  Collective
    #: makespans on the calibrated network sit in the low milliseconds, so
    #: rates of a few hundred produce genuine overlap.
    arrival_rate: float = 300.0
    sizes: Tuple[int, ...] = (2, 4, 8)
    msg_elems: Tuple[int, ...] = (1024, 4096, 16384)
    ops: Tuple[str, ...] = COLLECTIVE_OPS
    compressions: Tuple[str, ...] = ("off", "on", "auto")
    dtypes: Tuple[str, ...] = ("float64",)
    calls_range: Tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.arrival_rate <= 0.0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")

    def generate(self, seed: int) -> List[JobSpec]:
        """Draw the job list for one seed (deterministic, arrival-ordered)."""
        rng = random.Random(seed)
        specs: List[JobSpec] = []
        clock = 0.0
        for index in range(self.n_jobs):
            clock += rng.expovariate(self.arrival_rate)
            n_ranks = rng.choice(self.sizes)
            calls = []
            for _ in range(rng.randint(*self.calls_range)):
                op = rng.choice(self.ops)
                elems = rng.choice(self.msg_elems)
                calls.append(
                    CollectiveCall(
                        op=op,
                        msg_elems=max(elems, n_ranks) if op == "reduce_scatter" else elems,
                        dtype=rng.choice(self.dtypes),
                        compression=rng.choice(self.compressions),
                    )
                )
            specs.append(
                JobSpec(
                    job_id=f"job{index:03d}",
                    n_ranks=n_ranks,
                    arrival=clock,
                    iterations=rng.randint(*_ITERATIONS_RANGE),
                    seed=seed * 1_000_003 + index,
                    calls=tuple(calls),
                )
            )
        return specs


def save_trace(specs: Sequence[JobSpec], path: Union[str, Path]) -> None:
    """Write jobs as JSONL (one ``JobSpec`` object per line, arrival order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for spec in specs:
            fh.write(json.dumps(spec.to_dict(), sort_keys=True) + "\n")


class TraceFormatError(ValueError):
    """A trace line that is not a valid job; the message starts ``<path>:<line>:``."""


def load_trace(path: Union[str, Path]) -> List[JobSpec]:
    """Read a JSONL job trace written by :func:`save_trace` (or by hand)."""
    specs: List[JobSpec] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                # bad JSON is a ValueError; a non-object, an unknown or missing
                # key or a value of the wrong type surfaces as a TypeError
                specs.append(JobSpec.from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise TraceFormatError(f"{path}:{number}: {exc}") from exc
    return specs
