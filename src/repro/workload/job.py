"""Jobs: seeded programs of collectives that tenants run on the shared fabric.

A :class:`JobSpec` is pure data — arrival time, rank count, iteration count
and a list of :class:`CollectiveCall` steps (operation, message size, dtype,
compression/algorithm options) plus a seed that derives every input buffer.
Being pure data is what makes traces replayable: serialise with
``to_dict``/``from_dict`` (see :mod:`repro.workload.arrivals` for the JSONL
framing) and a re-run compiles bit-identical programs.

:func:`compile_job` turns a spec plus a slot placement into per-step rank
program factories via the session API's capture hook
(:meth:`repro.api.Communicator.capture`): each collective is issued against a
communicator whose topology is a :class:`~repro.workload.placement.PlacementView`
of the shared fabric, so algorithm selection and hierarchical grouping see
the job's true node placement, and comes back as an unlaunched
:class:`~repro.collectives.context.CollectivePlan` — no virtual time elapses;
the plans' factories are replayed later on the shared multi-job engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Cluster, Communicator
from repro.api.communicator import compression_mode, issue_collective
from repro.ccoll.adapter import CodecTape
from repro.collectives.selection import ALGORITHM_PLANNERS
from repro.utils.validation import ensure_in, ensure_integer
from repro.workload.placement import PlacementView
from repro.workload.recovery import FAILURE_POLICY_MODES

__all__ = [
    "COLLECTIVE_OPS",
    "CollectiveCall",
    "CompiledJob",
    "JobSpec",
    "call_inputs",
    "compile_job",
]

#: operations a workload job may issue (each maps to one Communicator method)
COLLECTIVE_OPS = ("allreduce", "allgather", "bcast", "reduce_scatter")


@dataclass(frozen=True)
class CollectiveCall:
    """One collective step of a job's program.

    The closed vocabularies, and whether the op runs the compression mode
    (the Communicator's table), are checked here, so a call that cannot compile
    is refused when it is written down (or read from a trace), not when its job
    arrives mid-run.
    """

    op: str = "allreduce"
    msg_elems: int = 1024
    dtype: str = "float64"
    compression: str = "off"
    algorithm: str = "auto"

    def __post_init__(self) -> None:
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(
                f"unknown collective op {self.op!r}; available: "
                f"{', '.join(COLLECTIVE_OPS)}"
            )
        if self.msg_elems < 1:
            raise ValueError(f"msg_elems must be >= 1, got {self.msg_elems}")
        ensure_integer(self.msg_elems, "msg_elems")
        try:
            floating = np.issubdtype(np.dtype(self.dtype), np.floating)
        except TypeError:  # not a dtype at all
            floating = False
        if not floating:
            raise ValueError(f"dtype must be a numpy floating dtype, got {self.dtype!r}")
        compression_mode(self.op, self.compression)
        ensure_in(self.algorithm, ("auto", *ALGORITHM_PLANNERS), "algorithm")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "msg_elems": self.msg_elems,
            "dtype": self.dtype,
            "compression": self.compression,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CollectiveCall":
        return cls(**data)


@dataclass(frozen=True)
class JobSpec:
    """A tenant's workload: when it arrives, how big it is, what it runs.

    ``failure_policy`` and ``checkpoint_every`` are optional per-job
    overrides of the :class:`~repro.workload.engine.WorkloadEngine`-level
    recovery defaults (``None`` inherits them); they serialise only when
    set, so traces written before they existed round-trip unchanged.
    """

    job_id: str
    n_ranks: int
    arrival: float = 0.0
    iterations: int = 1
    seed: int = 0
    calls: Tuple[CollectiveCall, ...] = field(default_factory=lambda: (CollectiveCall(),))
    failure_policy: Optional[str] = None
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_ranks < 2:
            raise ValueError(f"a job needs n_ranks >= 2, got {self.n_ranks}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        for name in ("n_ranks", "iterations", "seed"):
            ensure_integer(getattr(self, name), name)
        if not (math.isfinite(self.arrival) and self.arrival >= 0.0):
            raise ValueError(f"arrival must be a finite time >= 0, got {self.arrival}")
        if not self.calls:
            raise ValueError("a job needs at least one collective call")
        if self.failure_policy is not None and self.failure_policy not in FAILURE_POLICY_MODES:
            raise ValueError(
                f"unknown failure policy {self.failure_policy!r}; "
                f"available: {', '.join(FAILURE_POLICY_MODES)}"
            )
        if self.checkpoint_every is not None:
            ensure_integer(self.checkpoint_every, "checkpoint_every", minimum=0)
        object.__setattr__(self, "calls", tuple(self.calls))

    @property
    def n_steps(self) -> int:
        """Total collective steps executed: ``iterations x len(calls)``."""
        return self.iterations * len(self.calls)

    def at_arrival(self, arrival: float) -> "JobSpec":
        """The same job arriving at a different time (isolated-baseline runs)."""
        return replace(self, arrival=float(arrival))

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "job_id": self.job_id,
            "n_ranks": self.n_ranks,
            "arrival": self.arrival,
            "iterations": self.iterations,
            "seed": self.seed,
            "calls": [call.to_dict() for call in self.calls],
        }
        # recovery overrides serialise only when set: pre-recovery traces
        # stay byte-identical and old readers keep loading new unset traces
        if self.failure_policy is not None:
            out["failure_policy"] = self.failure_policy
        if self.checkpoint_every is not None:
            out["checkpoint_every"] = self.checkpoint_every
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        fields = dict(data)
        if "calls" in fields:  # absent (a hand-written trace): the default call
            fields["calls"] = tuple(CollectiveCall.from_dict(call) for call in fields["calls"])
        return cls(**fields)


def call_inputs(spec: JobSpec, call: CollectiveCall, step: int) -> List[np.ndarray]:
    """Seeded per-rank input vectors for one collective step of a job.

    A pure function of ``(spec.seed, call, step)``: whoever compiles a job,
    whenever, draws bit-identical buffers.  The engine's own compiles of one job
    (restart attempts, the isolated baseline) draw each step once and share the
    arrays through the job's :class:`JobMemo`.
    """
    rng = np.random.default_rng(((spec.seed & 0xFFFFFFFF) << 16) ^ (step * 0x9E37 + 0x5EED))
    elems = call.msg_elems
    if call.op == "reduce_scatter" and elems < spec.n_ranks:
        # reduce_scatter hands each rank an elems // n_ranks chunk
        elems = spec.n_ranks
    return [
        rng.standard_normal(elems).astype(call.dtype, copy=False) for _ in range(spec.n_ranks)
    ]


@dataclass
class JobMemo:
    """What the compiles of one job share, so its host work happens once.

    The workload engine creates one for a job that can execute more than once (a
    restart attempt, its isolated baseline), hands it to every
    :func:`compile_job` of that job and drops it when no execution can follow.
    The first execution of a step records its adapters' queues on the step's
    tape, and every later one replays them (see ``repro.ccoll.adapter``).
    """

    #: step -> the step's tape: per compression adapter, in the order the step's
    #: plan makes them, its codec and every entry it was queued or compressed
    tapes: Dict[int, list] = field(default_factory=dict)
    #: step -> the step's drawn per-rank inputs: read-only, because every compile
    #: hands the same arrays to its programs
    inputs: Dict[int, List[np.ndarray]] = field(default_factory=dict)

    def step_tape(self, step: int) -> CodecTape:
        """Step ``step``'s tape, for one compile to replay and extend."""
        return CodecTape(self.tapes.setdefault(step, []))

    def step_inputs(self, spec: JobSpec, call: CollectiveCall, step: int) -> List[np.ndarray]:
        """``call_inputs(spec, call, step)``, drawn on first use and frozen."""
        inputs = self.inputs.get(step)
        if inputs is None:
            inputs = self.inputs[step] = call_inputs(spec, call, step)
            for buffer in inputs:
                buffer.setflags(write=False)
        return inputs


@dataclass
class CompiledJob:
    """A job bound to concrete slots, ready to run on the shared engine."""

    spec: JobSpec
    slots: Tuple[int, ...]
    #: one zero-time captured program factory per collective step
    step_factories: List[Any]
    #: the CollectiveCall behind each step (parallel to step_factories)
    step_calls: List[CollectiveCall]


def compile_job(
    spec: JobSpec,
    cluster: Cluster,
    slots: Tuple[int, ...],
    memo: Optional[JobMemo] = None,
) -> CompiledJob:
    """Capture every collective step of ``spec`` against its placement.

    ``slots`` are the global engine slots the job will occupy (one per job
    rank, in rank order).  The communicator the steps are captured from sees the
    fabric through a :class:`PlacementView`, so build-time decisions match
    what an isolated cluster of exactly those nodes would decide.

    Every compile of the job that is given the same ``memo`` (its restart
    attempts, its isolated baseline) reuses what the others computed: each
    step's compression adapters replay and extend the step's tape, and the
    steps are issued on the same drawn inputs — read-only then, so a program
    that wrote into one would raise instead of corrupting the other compiles.
    Without a memo every compile draws its own, writable, inputs.
    """
    if len(slots) != spec.n_ranks:
        raise ValueError(
            f"job {spec.job_id!r} has {spec.n_ranks} ranks but {len(slots)} slots"
        )
    topology = cluster.topology
    view = PlacementView(topology, slots) if topology is not None else None
    job_cluster = cluster.with_updates(topology=view) if view is not None else cluster
    comm = Communicator(job_cluster, spec.n_ranks)
    factories: List[Any] = []
    step_calls: List[CollectiveCall] = []
    draw = call_inputs if memo is None else memo.step_inputs
    for _ in range(spec.iterations):
        for call in spec.calls:
            step = len(factories)
            inputs = draw(spec, call, step)
            step_comm = comm if memo is None else comm.with_options(codec_tape=memo.step_tape(step))
            plan = step_comm.capture(
                lambda c, call=call, inputs=inputs: issue_collective(
                    c, call.op, inputs, algorithm=call.algorithm, compression=call.compression
                )
            )
            factories.append(plan.factory)
            step_calls.append(call)
    return CompiledJob(
        spec=spec, slots=tuple(slots), step_factories=factories, step_calls=step_calls
    )
