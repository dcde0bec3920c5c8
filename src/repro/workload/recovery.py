"""Recovery semantics: what happens to a job when its hardware dies.

A job's recovery is two plain values, set per
:class:`~repro.workload.engine.WorkloadEngine` (``failure_policy`` /
``checkpoint``) and optionally overridden per
:class:`~repro.workload.job.JobSpec` (``failure_policy`` /
``checkpoint_every``):

* a mode from :data:`FAILURE_POLICY_MODES` — ``fail`` (the job is killed and
  reported as a :class:`JobFailed` outcome; its nodes, minus the dead one,
  return to the pool), ``restart`` (retry on the *same* node set: placement
  only succeeds once every original node is free and un-quarantined, so it
  pairs with transient losses and otherwise burns its retry budget) or
  ``restart_elsewhere`` (re-place through the allocator on currently free,
  non-quarantined nodes — the usual elastic-training behaviour).  Retry ``i``
  (0-based) fires ``retry_delay(i)`` virtual seconds after the failure it
  reacts to; a failed placement at retry time consumes budget too, and once
  :data:`MAX_RETRIES` are used up the job fails for good;
* a checkpoint interval ``every`` (0 disables): a checkpoint is written after
  every ``every``-th completed step but the last (:func:`takes_checkpoint`),
  at a seeded write cost (:func:`checkpoint_cost`).  A restarted job resumes
  from its last *durable* checkpoint instead of step 0.

Every other recovery number is a module constant.  :class:`AttemptRecord`
books one killed execution attempt on the job's
:class:`~repro.workload.metrics.JobRecord`.

The checkpoint cost model is deliberately out-of-band: writes never inject
events into the engine, so with an empty fault schedule every mode and
interval replays the uninjected run bit-for-bit.  The cost still has semantic
bite: a checkpoint taken after step ``s`` becomes *durable* only once its
write commits — the step's exit time plus :func:`checkpoint_cost` — so a kill
landing mid-write falls back to the previous durable step, and goodput
charges every write in its denominator.  That is exactly the Young/Daly
trade-off: checkpoint too often and overhead dominates, too rarely and
re-executed (wasted) work dominates; ``python -m repro.harness recovery``
sweeps the curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "BACKOFF",
    "BACKOFF_FACTOR",
    "FAILURE_POLICY_MODES",
    "JITTER",
    "MAX_RETRIES",
    "WRITE_BANDWIDTH",
    "WRITE_LATENCY",
    "AttemptRecord",
    "JobFailed",
    "checkpoint_cost",
    "retry_delay",
    "takes_checkpoint",
]

#: recovery modes a job may declare
FAILURE_POLICY_MODES = ("fail", "restart", "restart_elsewhere")

#: retries a restarting job gets (kills and failed placements both count)
MAX_RETRIES = 4
#: virtual seconds before the first retry, and its growth per retry
BACKOFF = 2e-4
BACKOFF_FACTOR = 2.0

#: a checkpoint streams the job's state to storage at this rate (B/s) after
#: a fixed latency (s), scaled by a seeded factor in ``1 ± JITTER``
WRITE_BANDWIDTH = 2e9
WRITE_LATENCY = 5e-5
JITTER = 0.1


def retry_delay(retry_index: int) -> float:
    """Backoff before 0-based retry ``retry_index`` fires."""
    return BACKOFF * BACKOFF_FACTOR ** max(0, int(retry_index))


def takes_checkpoint(step: int, every: int, n_steps: int) -> bool:
    """Whether a checkpoint is written once step ``step`` completes
    (``every >= 1``).  Never after the final step: nothing is left to protect."""
    return (step + 1) % every == 0 and step + 1 < n_steps


def checkpoint_cost(spec, step: int) -> float:
    """Seeded write time of the checkpoint taken after ``step``.

    The modelled state is the job's working set: ``n_ranks`` times its largest
    per-rank payload.  Deterministic in ``(spec.seed, step)`` alone, so no two
    writes cost exactly alike, yet a re-executed step (an attempt that replays
    it after a restart) re-pays exactly the same cost.
    """
    per_rank = max(call.msg_elems * np.dtype(call.dtype).itemsize for call in spec.calls)
    base = WRITE_LATENCY + spec.n_ranks * per_rank / WRITE_BANDWIDTH
    rng = random.Random(f"repro.checkpoint:{spec.seed}:{step}")
    return base * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


@dataclass(frozen=True)
class JobFailed:
    """Typed terminal outcome of a job that could not be recovered."""

    job_id: str
    time: float
    reason: str
    attempts: int


@dataclass(frozen=True)
class AttemptRecord:
    """One killed execution attempt of a job (successful runs leave none)."""

    index: int
    nodes: Tuple[int, ...]
    slots: Tuple[int, ...]
    started: float
    resume_step: int
    ended: float
    #: steps this attempt fully completed (all ranks) beyond its resume point
    completed_steps: int
    #: durable step the next attempt resumes from (checkpoint-gated)
    next_resume_step: int
    reason: str = field(default="node_loss")
