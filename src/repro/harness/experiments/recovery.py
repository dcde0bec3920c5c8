"""Recovery experiment: goodput vs. checkpoint interval under node loss.

The Young/Daly trade-off, measured end to end on the simulated fabric: a
fixed job mix runs under a fixed fault schedule (one permanent node loss
mid-run plus a transient power-zone outage), jobs restart elsewhere from
their last durable checkpoint, and the checkpoint interval sweeps from
"every step" to "never".  Checkpointing every step pays maximal write
overhead; never checkpointing re-executes everything a kill destroyed; the
goodput curve peaks somewhere in between — the experiment *asserts* that
non-monotonicity instead of eyeballing it.

Two more properties are asserted:

* with the fault schedule removed, every failure-policy x checkpoint
  combination finishes bit-identically to the plain PR 9 engine (recovery
  bookkeeping is out-of-band until a fault actually fires);
* under node loss with ``restart_elsewhere`` the fleet retains goodput > 0
  (the CI smoke lane's gate).

``check_invariants=True`` additionally replays every faulted run under
:func:`repro.mpisim.audit.audit_fabric` (capacity conservation and the
max-min bottleneck property).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.api import Cluster
from repro.faults import DomainOutage, FailureDomain, FaultSchedule, NodeLoss
from repro.harness.common import ScaleSettings, resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.mpisim.audit import audit_fabric
from repro.workload import CollectiveCall, JobSpec, WorkloadEngine

__all__ = ["run_recovery"]

#: the workload engine's seed in every run
SEED = 7


def _job_mix(settings: ScaleSettings) -> Tuple[List[JobSpec], int]:
    """A deterministic mix of long jobs (many steps, so intervals matter)."""
    if settings.name == "paper":
        nodes = 16
        iterations = 16
    else:
        nodes = 8
        iterations = 12
    calls = (CollectiveCall(op="allreduce", msg_elems=8192),)
    specs = [
        JobSpec(job_id="train-a", n_ranks=8, arrival=0.0, iterations=iterations,
                seed=11, calls=calls),
        JobSpec(job_id="train-b", n_ranks=4, arrival=0.0003, iterations=iterations,
                seed=12, calls=calls),
    ]
    return specs, nodes


def _fault_schedule(makespan_hint: float) -> FaultSchedule:
    """One permanent node loss mid-run + a transient power-zone outage."""
    zone = FailureDomain(name="pz0", kind="power", nodes=(2, 3))
    return FaultSchedule(events=(
        NodeLoss(time=0.45 * makespan_hint, node=1),
        DomainOutage(
            time=0.70 * makespan_hint, domain=zone,
            duration=0.10 * makespan_hint,
        ),
    ))


def run_recovery(
    scale="small", contention: str = "fair", check_invariants: bool = False
) -> ExperimentResult:
    """Goodput / wasted work across checkpoint intervals and failure policies."""
    specs, nodes = _job_mix(resolve_scale(scale))
    cluster = Cluster.from_preset(
        "fat_tree", nodes=nodes, ranks_per_node=2, contention=contention
    )

    def simulate(faults, failure_policy="restart_elsewhere", checkpoint=0):
        engine = WorkloadEngine(
            cluster, policy="packed", seed=SEED, faults=faults,
            failure_policy=failure_policy, checkpoint=checkpoint,
        )
        if not check_invariants or faults is None:
            return engine.run(specs, baseline=False)
        with audit_fabric() as violations:
            report = engine.run(specs, baseline=False)
        assert not violations, f"invariant violations under faults: {violations}"
        return report

    # size the fault times off the healthy run so the kill lands mid-flight
    healthy = simulate(None)
    faults = _fault_schedule(healthy.makespan)

    result = ExperimentResult(
        experiment="recovery",
        title=(
            f"Checkpoint/restart under node loss on one fat tree "
            f"({nodes} nodes, 2 ranks/node, {len(specs)} jobs, "
            f"contention={contention}, seed={SEED})"
        ),
        paper_reference=(
            "beyond the paper: its fabric never loses a node; this measures "
            "what recovery policy and checkpoint cadence are worth when it does"
        ),
        columns=[
            "policy",
            "ckpt_every",
            "failed",
            "restarts",
            "goodput",
            "wasted",
            "ttr_p50_ms",
            "makespan_ms",
        ],
    )

    def add(report, policy, interval):
        recovery = report.recovery_summary()
        result.add_row(
            policy=policy,
            ckpt_every=interval if interval else "never",
            failed=report.failed_jobs,
            restarts=report.total_restarts,
            goodput=report.goodput,
            wasted=report.wasted_fraction,
            ttr_p50_ms=(
                recovery["p50"] * 1e3 if recovery.get("count") else None
            ),
            makespan_ms=report.makespan * 1e3,
        )
        return report

    # the Young/Daly sweep: restart elsewhere, checkpoint cadence varies
    intervals = (1, 2, 4, 0)
    goodputs = {}
    for interval in intervals:
        report = add(
            simulate(faults, "restart_elsewhere", interval),
            "restart_elsewhere", interval,
        )
        assert report.goodput > 0.0, (
            f"restart_elsewhere retained no goodput at interval {interval}"
        )
        goodputs[interval] = report.goodput
    # the comparison rows: give up, or wait for the same nodes to heal
    add(simulate(faults, "fail", 0), "fail", 0)
    add(simulate(faults, "restart", 2), "restart", 2)

    best = max(goodputs, key=lambda k: goodputs[k])
    assert goodputs[best] > goodputs[1] and goodputs[best] > goodputs[0], (
        "goodput vs. checkpoint interval should be non-monotone "
        "(Young/Daly), got " + ", ".join(
            f"{k or 'never'}: {v:.4f}" for k, v in goodputs.items()
        )
    )
    result.add_note(
        f"asserted non-monotone: interval {best} beats both every-step "
        f"({goodputs[1]:.3f}) and never ({goodputs[0]:.3f}) at "
        f"{goodputs[best]:.3f} goodput"
    )

    # the bit-identity contract: without faults, every policy combination
    # is indistinguishable from the plain engine
    for policy in ("fail", "restart", "restart_elsewhere"):
        for interval in (0, 2):
            clean = simulate(None, policy, interval)
            assert clean.makespan == healthy.makespan and all(
                a.finished == b.finished
                for a, b in zip(clean.records, healthy.records)
            ), f"({policy}, {interval}) perturbed the fault-free run"
    result.add_note(
        "asserted: with no faults, every failure-policy x checkpoint combo "
        f"is bit-identical to the plain run ({healthy.makespan * 1e3:.3f} ms)"
    )
    if check_invariants:
        result.add_note(
            "asserted: capacity conservation + fair bottleneck property "
            "held in every faulted run"
        )
    return result
