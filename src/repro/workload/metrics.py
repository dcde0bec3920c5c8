"""Tenant-level metrics: slowdown, tail latency, fabric utilization.

The collector pattern: :class:`JobRecord` accumulates per-job facts while
the shared engine runs (start/finish clocks, per-step latency bounds,
per-step values); every fabric stage meters the wire-seconds reserved on it
(``SharedLink.wire_seconds``, read through ``Topology.stages()``);
:class:`WorkloadReport` assembles both into the numbers the ROADMAP asks
for — per-job slowdown vs. an isolated baseline, p50/p99 collective latency,
job makespans, per-stage utilization and the fair-share registry's cross-job
byte attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.latency import mean_slowdown, summarize
from repro.workload.job import JobSpec
from repro.workload.recovery import AttemptRecord, JobFailed

__all__ = ["JobRecord", "WorkloadReport"]


@dataclass
class JobRecord:
    """Everything observed about one job across the shared run."""

    spec: JobSpec
    nodes: Tuple[int, ...] = ()
    slots: Tuple[int, ...] = ()
    started: Optional[float] = None
    finished: Optional[float] = None
    bytes_sent: int = 0
    messages_sent: int = 0
    #: per-step [earliest step entry, latest step exit] over the job's ranks
    step_bounds: List[List[float]] = field(default_factory=list)
    #: per-step per-rank return values (populated when record_values is set)
    step_values: List[Dict[int, Any]] = field(default_factory=list)
    #: per-step count of ranks that completed the step (this attempt)
    step_done_ranks: List[int] = field(default_factory=list)
    #: makespan of the same spec run alone on the same slots (None = not run)
    isolated: Optional[float] = None
    fair_bytes: float = 0.0
    # ----- recovery accounting (inert without faults: defaults throughout)
    #: "completed" or "failed"
    outcome: str = "completed"
    #: terminal failure details (None unless outcome == "failed")
    failure: Optional[JobFailed] = None
    #: killed execution attempts, in order (a clean run leaves none)
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: successful re-placements (restart / restart_elsewhere)
    restarts: int = 0
    #: step the current (or final) attempt resumed from
    resume_step: int = 0
    #: first step NOT durably checkpointed (next restart resumes here)
    last_durable_step: int = 0
    checkpoints_written: int = 0
    #: virtual seconds spent writing checkpoints (out-of-band cost model)
    checkpoint_overhead: float = 0.0
    #: virtual seconds of retained progress (completed jobs only)
    useful_time: float = 0.0
    #: virtual seconds of lost work (killed attempts, failed jobs)
    wasted_time: float = 0.0
    #: kill -> successful re-bind gaps, one per restart
    recovery_times: List[float] = field(default_factory=list)

    def prepare(self, n_steps: int) -> None:
        self.step_bounds = [[float("inf"), float("-inf")] for _ in range(n_steps)]
        self.step_values = [{} for _ in range(n_steps)]
        self.step_done_ranks = [0] * n_steps

    def reset_steps_from(self, step: int) -> None:
        """Forget per-step observations from ``step`` on (restart replay).

        A restarted attempt re-executes those steps; merging its bounds with
        the killed attempt's would fabricate giant latencies spanning the
        outage.
        """
        for s in range(step, len(self.step_bounds)):
            self.step_bounds[s] = [float("inf"), float("-inf")]
            self.step_values[s] = {}
            self.step_done_ranks[s] = 0

    def note_step(
        self, step: int, local_rank: int, begin: float, end: float, value: Any
    ) -> None:
        bounds = self.step_bounds[step]
        if begin < bounds[0]:
            bounds[0] = begin
        if end > bounds[1]:
            bounds[1] = end
        self.step_done_ranks[step] += 1
        if value is not None:
            self.step_values[step][local_rank] = value

    def completed_through(self) -> int:
        """First step not yet completed by *every* rank, from the resume point.

        Ranks run their steps in order, so full completion is contiguous:
        the scan stops at the first step any rank has not exited.
        """
        step = self.resume_step
        n_ranks = self.spec.n_ranks
        while step < len(self.step_done_ranks) and self.step_done_ranks[step] == n_ranks:
            step += 1
        return step

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def makespan(self) -> Optional[float]:
        """Arrival-to-finish span; ``None`` for a failed job."""
        if self.finished is None:
            if self.outcome == "failed":
                return None
            raise RuntimeError(f"job {self.spec.job_id!r} did not complete")
        if self.started is None:  # pragma: no cover - defensive
            raise RuntimeError(f"job {self.spec.job_id!r} never started")
        return self.finished - self.started

    @property
    def goodput(self) -> Optional[float]:
        """Retained work per wall second, checkpoint writes charged.

        ``useful / (span + checkpoint overhead)``; 0.0 for a failed job
        (everything it did is lost), ``None`` before the run finishes.
        """
        if self.outcome == "failed":
            return 0.0
        span = self.makespan
        if span is None:  # pragma: no cover - completed implies finished
            return None
        denom = span + self.checkpoint_overhead
        if denom <= 0.0:
            return None
        return self.useful_time / denom

    @property
    def queue_wait(self) -> float:
        """Virtual seconds between arrival and placement."""
        if self.started is None:
            raise RuntimeError(f"job {self.spec.job_id!r} never started")
        return self.started - self.spec.arrival

    @property
    def slowdown(self) -> Optional[float]:
        """Contended / isolated makespan (None until the baseline ran)."""
        if self.isolated is None or self.isolated <= 0.0:
            return None
        span = self.makespan
        if span is None:
            return None
        return span / self.isolated

    def step_latencies(self) -> List[float]:
        """Wall time of each collective step (entry of first rank -> exit of last)."""
        return [end - begin for begin, end in self.step_bounds if end >= begin]


@dataclass
class WorkloadReport:
    """The multi-tenant run, summarised."""

    records: List[JobRecord]
    makespan: float
    policy: str
    contention: str
    seed: int
    #: {stage description: utilization in [0, ~1]} over the run's makespan
    stage_utilization: Dict[str, float] = field(default_factory=dict)
    #: latency summary over every collective step of every job
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.records)

    @property
    def mean_slowdown(self) -> float:
        return mean_slowdown(
            [r.slowdown for r in self.records if r.slowdown is not None]
        )

    # ----------------------------------------------------- recovery rollups

    @property
    def failed_jobs(self) -> int:
        return sum(1 for r in self.records if r.outcome == "failed")

    @property
    def total_restarts(self) -> int:
        return sum(r.restarts for r in self.records)

    @property
    def goodput(self) -> float:
        """Fleet goodput: retained work over busy span + checkpoint writes.

        Failed jobs contribute their span (time the fabric spent on them)
        but zero useful work — losing a tenant *should* crater this number.
        """
        useful = 0.0
        denom = 0.0
        for r in self.records:
            denom += r.checkpoint_overhead
            if r.outcome == "failed":
                if r.failure is not None and r.started is not None:
                    denom += r.failure.time - r.started
                continue
            span = r.makespan
            if span is None:
                continue
            useful += r.useful_time
            denom += span
        return useful / denom if denom > 0.0 else 0.0

    @property
    def wasted_fraction(self) -> float:
        """Lost work (killed attempts + failed jobs) over all work done."""
        wasted = sum(r.wasted_time for r in self.records)
        useful = sum(r.useful_time for r in self.records)
        overhead = sum(r.checkpoint_overhead for r in self.records)
        total = wasted + useful + overhead
        return wasted / total if total > 0.0 else 0.0

    def recovery_summary(self) -> Dict[str, float]:
        """p50/p99/mean over every kill -> re-bind gap across jobs."""
        return summarize(gap for record in self.records for gap in record.recovery_times)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "policy": self.policy,
            "contention": self.contention,
            "seed": self.seed,
            "mean_slowdown": self.mean_slowdown,
            "latency": dict(self.latency),
            "stage_utilization": dict(self.stage_utilization),
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "failed_jobs": self.failed_jobs,
            "total_restarts": self.total_restarts,
            "goodput": self.goodput,
            "wasted_fraction": self.wasted_fraction,
            "recovery": self.recovery_summary(),
            "jobs": [
                {
                    "job_id": r.spec.job_id,
                    "n_ranks": r.spec.n_ranks,
                    "nodes": list(r.nodes),
                    "arrival": r.spec.arrival,
                    "started": r.started,
                    "finished": r.finished,
                    "makespan": r.makespan,
                    "queue_wait": r.queue_wait,
                    "isolated": r.isolated,
                    "slowdown": r.slowdown,
                    "bytes_sent": r.bytes_sent,
                    "fair_bytes": r.fair_bytes,
                    "outcome": r.outcome,
                    "restarts": r.restarts,
                    "checkpoints_written": r.checkpoints_written,
                    "goodput": r.goodput,
                }
                for r in self.records
            ],
        }

    def to_text(self) -> str:
        """Human-readable report (the CLI's and harness's output)."""
        lines = [
            f"workload: {self.n_jobs} jobs, policy={self.policy}, "
            f"contention={self.contention}, seed={self.seed}",
            f"  makespan      {self.makespan * 1e3:10.3f} ms",
            f"  total traffic {self.total_bytes / 1e6:10.2f} MB in "
            f"{self.total_messages} messages",
        ]
        if self.latency.get("count"):
            lines.append(
                "  step latency  "
                f"p50 {self.latency['p50'] * 1e3:.3f} ms / "
                f"p99 {self.latency['p99'] * 1e3:.3f} ms / "
                f"mean {self.latency['mean'] * 1e3:.3f} ms "
                f"({int(self.latency['count'])} steps)"
            )
        slowdowns = [r for r in self.records if r.slowdown is not None]
        if slowdowns:
            lines.append(f"  mean slowdown {self.mean_slowdown:10.3f}x vs isolated")
        if self.failed_jobs or self.total_restarts:
            recovery = self.recovery_summary()
            ttr = (
                f", recovery p50 {recovery['p50'] * 1e3:.3f} ms / "
                f"p99 {recovery['p99'] * 1e3:.3f} ms"
                if recovery.get("count")
                else ""
            )
            lines.append(
                f"  recovery      {self.failed_jobs} failed, "
                f"{self.total_restarts} restarts, goodput {self.goodput:.3f}, "
                f"wasted {self.wasted_fraction:.1%}{ttr}"
            )
        if self.stage_utilization:
            top = sorted(
                self.stage_utilization.items(), key=lambda kv: -kv[1]
            )[:5]
            lines.append(
                f"  fabric stages {len(self.stage_utilization)} touched; busiest: "
                + ", ".join(f"{name}={util:.1%}" for name, util in top)
            )
        header = (
            f"  {'job':<8} {'ranks':>5} {'arrival':>10} {'wait':>9} "
            f"{'makespan':>10} {'slowdown':>9} {'nodes'}"
        )
        lines.append(header)
        for r in self.records:
            slowdown = f"{r.slowdown:.3f}x" if r.slowdown is not None else "-"
            span = f"{r.makespan * 1e3:>8.3f}ms" if r.makespan is not None else (
                f"{'FAILED':>10}"
            )
            lines.append(
                f"  {r.spec.job_id:<8} {r.spec.n_ranks:>5} "
                f"{r.spec.arrival * 1e3:>8.3f}ms {r.queue_wait * 1e3:>7.3f}ms "
                f"{span} {slowdown:>9} {list(r.nodes)}"
            )
        return "\n".join(lines)

    @staticmethod
    def collect_latency(records: List[JobRecord]) -> Dict[str, float]:
        """p50/p99/mean over every collective step of every job."""
        return summarize(step for record in records for step in record.step_latencies())
