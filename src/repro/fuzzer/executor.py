"""Scenario execution with the full invariant catalog checked on every run.

The executor turns a :class:`~repro.fuzzer.generator.Scenario` into a live
``Cluster``/``Communicator`` session, runs its program — ``program_len``
back-to-back collectives with per-step payloads — and checks every invariant
that applies to that scenario:

``values``
    Every rank's result matches the numpy reference within the scenario's
    tolerance — exact (1e-10 relative) for uncompressed runs, the documented
    error-accumulation envelope for compressed runs.  Skipped for the
    fixed-rate ``zfp_fxr`` codec, whose error is data-dependent by design.
``capacity``
    No shared stage is ever allocated beyond its capacity: the run executes
    under :func:`repro.mpisim.audit.audit_fabric`, which traces every
    reservation.  Holds for both contention disciplines (fair runs
    re-express fluid segments as reservations).
``fair_share``
    On ``contention="fair"`` runs, the same audit checks every max-min
    allocation the registry commits, live: stages never exceed capacity,
    backlogged stages are saturated, and every active flow is bottlenecked
    on some saturated stage of its path.
``determinism``
    Executing the same scenario twice from freshly built sessions yields the
    same makespan, the same bytes-sent counter and bit-identical values.
``codec_roundtrip``
    The configured codec round-trips the rank-0 payload, within its effective
    bound for error-bounded codecs (checked outside the collective, so a
    values failure can be attributed to the schedule vs the codec), and
    ``compressed_nbytes`` — what the simulations run — gives that payload's
    length and its decode, byte for byte, for every codec, ``zfp_fxr`` too.

Results are plain dicts (JSONL-ready) keyed by a deterministic ``run_id``
derived from the scenario's canonical JSON — replaying a run id re-executes
the identical scenario.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Cluster
from repro.api.communicator import Communicator, issue_collective
from repro.collectives.reduce_scatter import partition_chunks
from repro.compression import rounding_margin
from repro.fuzzer.generator import _FABRIC_HOSTS, Scenario, placement_list, sanitize
from repro.mpisim.audit import audit_fabric

__all__ = [
    "build_cluster",
    "build_communicator",
    "make_inputs",
    "execute",
    "run_id_for",
]


def run_id_for(scenario: Scenario) -> str:
    """Deterministic run id: hash of the scenario's canonical JSON."""
    blob = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return "fz-" + hashlib.sha256(blob.encode()).hexdigest()[:12]


# ------------------------------------------------------------------- building


def build_cluster(scenario: Scenario) -> Cluster:
    """Instantiate the scenario's fabric as a ``Cluster``."""
    sc = scenario
    kwargs: Dict[str, object] = {}
    if sc.preset != "flat":
        kwargs["ranks_per_node"] = sc.ranks_per_node
    if sc.preset in ("two_level", "shared_uplink", "fat_tree", "dragonfly"):
        kwargs["placement"] = placement_list(
            sc.placement,
            sc.n_ranks,
            sc.ranks_per_node,
            max_nodes=_FABRIC_HOSTS if sc.preset in ("fat_tree", "dragonfly") else None,
        )
    if sc.preset in ("shared_uplink", "fat_tree", "dragonfly", "rail_fat_tree"):
        kwargs["contention"] = sc.contention
    if sc.preset in ("fat_tree", "dragonfly"):
        kwargs["nics_per_node"] = sc.nics_per_node
        kwargs["routing"] = sc.routing
    if sc.preset == "rail_fat_tree":
        kwargs["nics_per_node"] = sc.nics_per_node
    cluster = Cluster.from_preset(sc.preset, **kwargs)
    return cluster.with_updates(
        config=cluster.config.with_updates(codec=sc.codec, error_bound=sc.error_bound)
    )


def build_communicator(scenario: Scenario) -> Communicator:
    """A fresh session for the scenario (a new one per run; no shared state)."""
    return build_cluster(scenario).communicator(scenario.n_ranks)


def make_inputs(scenario: Scenario, step: int = 0) -> List[np.ndarray]:
    """Per-rank payload vectors (deterministic from the scenario seed).

    ``step`` mixes a fresh stream in for each collective of a multi-step
    program (``program_len > 1``); step 0 reproduces the pre-knob payloads.
    """
    rng = np.random.default_rng((scenario.seed ^ 0x5EED) + step * 0x9E3779B9)
    dtype = np.dtype(scenario.dtype)
    n, length = scenario.n_ranks, scenario.msg_elems
    out: List[np.ndarray] = []
    for rank in range(n):
        profile = scenario.data_profile
        if profile == "gaussian":
            arr = rng.standard_normal(length)
        elif profile == "ramp":
            arr = np.linspace(-1.0, 1.0, num=length) * (rank + 1)
        elif profile == "constant":
            arr = np.full(length, 0.5 + 0.25 * rank)
        elif profile == "zeros":
            arr = np.zeros(length)
        elif profile == "mixed_scale":
            arr = rng.standard_normal(length) * np.logspace(-3, 3, num=max(length, 1))[:length]
        else:
            raise ValueError(f"unknown data profile {profile!r}")
        out.append(np.asarray(arr, dtype=dtype))
    return out


# ----------------------------------------------------------------- execution


def _expected_values(scenario: Scenario, inputs: List[np.ndarray]) -> List[np.ndarray]:
    wide = [arr.astype(np.float64) for arr in inputs]
    op = scenario.op
    if op == "allreduce":
        return [np.sum(wide, axis=0)] * scenario.n_ranks
    if op == "allgather":
        # each rank's value is the (n_ranks, block) stack of all contributions
        return [np.stack(wide)] * scenario.n_ranks
    if op == "bcast":
        return [wide[0]] * scenario.n_ranks
    if op == "reduce_scatter":
        return partition_chunks(np.sum(wide, axis=0), scenario.n_ranks)
    raise ValueError(f"unknown op {scenario.op!r}")


def _value_tolerance(scenario: Scenario) -> Optional[Tuple[float, float]]:
    """(rtol, atol) for the values invariant; ``None`` = skip the check."""
    # float32 runs accumulate in float32 while the reference sums in float64,
    # so they always need a relative term scaled to the data magnitude
    f32_rtol = 1e-5 if scenario.dtype == "float32" else 0.0
    if scenario.compression == "off":
        rtol = max(1e-10, f32_rtol)
        return (rtol, rtol * 1e-2)
    if scenario.codec == "zfp_fxr":
        return None  # fixed-rate: error is data-dependent, not eb-bounded
    n = scenario.n_ranks
    eb = scenario.error_bound
    if scenario.op == "allreduce":
        # error-accumulation envelope covering every variant: ring chains
        # re-compress partial sums up to n times; the topology-aware schedule
        # is bounded by (n_nodes + 2) * eb * n_nodes with n_nodes <= n
        atol = (n + 2) * max(1, n) * eb
    else:  # allgather / bcast / reduce_scatter: bounded compression chains
        atol = (n + 1) * eb
    return (f32_rtol, atol * 1.01)


def _digest(values: List[np.ndarray]) -> str:
    h = hashlib.sha256()
    for value in values:
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _single_run(scenario: Scenario):
    """One traced execution of the scenario's whole program.

    Returns ``(comm, outcomes, step_values, violations)``: one outcome and
    one per-rank value list per collective step.  Each step is traced and
    audited separately — the engine resets contention state per run, so a
    cross-step reservation trace would see overlapping timelines and
    misreport capacity violations.
    """
    comm = build_communicator(scenario)
    outcomes = []
    step_values: List[List[np.ndarray]] = []
    problems: List[Dict[str, str]] = []
    for step in range(scenario.program_len):
        inputs = make_inputs(scenario, step)
        outcome, found = _audited(
            f"step {step}",
            lambda: issue_collective(
                comm, scenario.op, inputs,
                algorithm=scenario.algorithm, compression=scenario.compression,
            ),
        )
        outcomes.append(outcome)
        step_values.append(
            [np.asarray(outcome.value(rank)) for rank in range(scenario.n_ranks)]
        )
        problems.extend(found)
    return comm, outcomes, step_values, problems


def _audited(label: str, run: Callable[[], object]) -> Tuple[object, List[Dict[str, str]]]:
    """``run()`` under the fabric audit: its result plus capacity + fair-share problems."""
    with audit_fabric() as violations:
        result = run()
    problems = [
        {"invariant": "capacity", "detail": f"{label}: {detail}"}
        if kind == "capacity"
        else {"invariant": "fair_share", "detail": f"{label}: {kind}: {detail}"}
        for kind, detail in violations
    ]
    return result, problems


def _execute_harness(scenario: Scenario, record: Dict[str, object]) -> Dict[str, object]:
    """Run a whole harness experiment under the fuzzer's invariant monitors.

    The experiment runs twice; both runs are audited for capacity
    conservation and the fair bottleneck property, and their result rows
    must agree bit-for-bit (canonical JSON) — harness experiments are
    seeded, so nondeterminism is a bug.
    """
    from repro.harness.runner import run_experiment

    def one_run():
        return _audited(
            scenario.harness_experiment,
            lambda: run_experiment(scenario.harness_experiment, scale="small"),
        )

    try:
        first, problems = one_run()
        second, rerun_problems = one_run()
    except Exception as exc:  # noqa: BLE001 - a crash *is* a fuzzing result
        record.update(
            status="error",
            violations=[
                {"invariant": "no_crash", "detail": f"{type(exc).__name__}: {exc}"}
            ],
        )
        return record

    violations = problems + rerun_problems
    canonical = json.dumps(first.rows, sort_keys=True, default=repr)
    if canonical != json.dumps(second.rows, sort_keys=True, default=repr):
        violations.append(
            {
                "invariant": "determinism",
                "detail": f"experiment {scenario.harness_experiment!r} rows "
                "differ between two runs",
            }
        )
    record.update(
        status="violation" if violations else "ok",
        violations=violations,
        harness_experiment=scenario.harness_experiment,
        harness_rows=len(first.rows),
    )
    return record


def _execute_faulted_workload(
    scenario: Scenario, record: Dict[str, object]
) -> Dict[str, object]:
    """Run a small multi-tenant workload under the scenario's fault mix.

    The same (jobs, schedule) pair runs twice; both runs are audited for
    capacity conservation (against reserve-time capacities, so mid-run
    degradations are covered) and the fair bottleneck property, and their
    makespans and per-job finish times must be bit-identical.
    """
    from repro.faults import FaultSchedule
    from repro.workload import JobMix, WorkloadEngine

    sc = scenario
    rpn = sc.ranks_per_node
    kwargs: Dict[str, object] = {
        "ranks_per_node": rpn,
        "contention": sc.contention,
        "nics_per_node": sc.nics_per_node,
    }
    if sc.preset in ("fat_tree", "dragonfly"):
        kwargs["routing"] = sc.routing
    policy = {"block": "packed", "cyclic": "spread", "irregular": "random"}[
        sc.placement
    ]

    try:
        cluster = Cluster.from_preset(sc.preset, **kwargs)
        n_fabric = int(cluster.topology.n_fabric_nodes)
        schedule = FaultSchedule.generate(
            sc.fault_mix,
            sc.seed,
            # target the busy half of the fabric so faults hit live tenants
            n_nodes=max(1, n_fabric // 2),
            n_ranks=max(1, n_fabric // 2) * rpn,
            nics_per_node=sc.nics_per_node,
            horizon=6e-3,
            link_families=cluster.topology.link_families,
        )
        # jobs span >= 2 nodes so fabric faults intersect tenant traffic
        mix = JobMix(n_jobs=4, arrival_rate=900.0, sizes=(2 * rpn, 4 * rpn))
        specs = mix.generate(sc.seed)

        def one_run():
            engine = WorkloadEngine(
                cluster, policy=policy, seed=sc.seed, faults=schedule,
                failure_policy=sc.failure_policy,
                checkpoint=sc.checkpoint_every,
            )
            report, problems = _audited(
                sc.fault_mix, lambda: engine.run(specs, baseline=False)
            )
            # outcome + restart counts join the determinism fingerprint:
            # recovery decisions must replay exactly, not just finish times
            finishes = tuple(
                (rec.finished, rec.outcome, rec.restarts, rec.last_durable_step)
                for rec in report.records
            )
            return report, finishes, problems

        report1, finishes, problems = one_run()
        report2, finishes2, rerun_problems = one_run()
        makespan, makespan2 = report1.makespan, report2.makespan
    except Exception as exc:  # noqa: BLE001 - a crash *is* a fuzzing result
        record.update(
            status="error",
            violations=[
                {"invariant": "no_crash", "detail": f"{type(exc).__name__}: {exc}"}
            ],
        )
        return record

    violations = problems + rerun_problems
    if makespan != makespan2 or finishes != finishes2:
        violations.append(
            {
                "invariant": "determinism",
                "detail": (
                    f"faulted workload replay diverged: makespan {makespan!r} "
                    f"vs {makespan2!r}"
                ),
            }
        )
    record.update(
        status="violation" if violations else "ok",
        violations=violations,
        makespan=float(makespan),
        fault_mix=sc.fault_mix,
        fault_events=len(schedule),
        failed_jobs=report1.failed_jobs,
        restarts=report1.total_restarts,
    )
    return record


def execute(scenario: Scenario) -> Dict[str, object]:
    """Run ``scenario`` with every applicable invariant checked.

    Returns a JSONL-ready record: ``status`` is ``"ok"``, ``"violation"``
    (one or more invariants failed) or ``"error"`` (the run raised).

    Extension scenarios take dedicated paths: ``harness_experiment`` runs a
    whole harness experiment (twice, audited + compared) and ``fault_mix``
    runs a faulted multi-tenant workload (twice, audited + compared).
    """
    scenario = sanitize(scenario)
    record: Dict[str, object] = {
        "run_id": run_id_for(scenario),
        "scenario": scenario.to_dict(),
    }
    if scenario.harness_experiment != "none":
        return _execute_harness(scenario, record)
    if scenario.fault_mix != "none":
        return _execute_faulted_workload(scenario, record)
    try:
        comm, outcomes, step_values, problems = _single_run(scenario)
    except Exception as exc:  # noqa: BLE001 - a crash *is* a fuzzing result
        record.update(
            status="error",
            violations=[{"invariant": "no_crash", "detail": f"{type(exc).__name__}: {exc}"}],
        )
        return record

    violations = list(problems)
    makespan = sum(outcome.total_time for outcome in outcomes)
    flat_values = [value for values in step_values for value in values]

    tolerances = _value_tolerance(scenario)
    if tolerances is not None:
        rtol, atol = tolerances
        for step, values in enumerate(step_values):
            expected = _expected_values(scenario, make_inputs(scenario, step))
            bad = False
            for rank, (got, want) in enumerate(zip(values, expected)):
                want = np.asarray(want)
                if got.shape != want.shape:
                    violations.append(
                        {
                            "invariant": "values",
                            "detail": (
                                f"step {step} rank {rank}: shape {got.shape} != "
                                f"expected {want.shape}"
                            ),
                        }
                    )
                    continue
                if got.size == 0:
                    continue
                err = np.max(np.abs(got.astype(np.float64) - want.astype(np.float64)))
                bound = atol + rtol * max(1.0, float(np.max(np.abs(want))))
                if not err <= bound:
                    violations.append(
                        {
                            "invariant": "values",
                            "detail": (
                                f"step {step} rank {rank}: max error {err:.6g} "
                                f"exceeds bound {bound:.6g}"
                            ),
                        }
                    )
                    bad = True
                    break  # one rank's detail is enough; keep records compact
            if bad:
                break

    # determinism: a fresh session over the same scenario must be bit-identical
    try:
        _, outcomes2, step_values2, _ = _single_run(scenario)
    except Exception as exc:  # noqa: BLE001
        violations.append(
            {
                "invariant": "determinism",
                "detail": f"re-run raised {type(exc).__name__}: {exc}",
            }
        )
    else:
        makespan2 = sum(outcome.total_time for outcome in outcomes2)
        if makespan2 != makespan:
            violations.append(
                {
                    "invariant": "determinism",
                    "detail": f"makespan {makespan!r} != re-run {makespan2!r}",
                }
            )
        elif _digest([v for vs in step_values2 for v in vs]) != _digest(flat_values):
            violations.append(
                {"invariant": "determinism", "detail": "re-run values differ bitwise"}
            )

    roundtrip_problem = _codec_roundtrip_problem(scenario)
    if roundtrip_problem is not None:
        violations.append(roundtrip_problem)

    record.update(
        status="violation" if violations else "ok",
        violations=violations,
        makespan=float(makespan),
        bytes_sent=sum(int(outcome.sim.total_bytes_sent) for outcome in outcomes),
        value_digest=_digest(flat_values),
        algorithm=comm.last_algorithm,
        compression_route=comm.last_compression,
    )
    return record


def _codec_roundtrip_problem(scenario: Scenario) -> Optional[Dict[str, str]]:
    """Round-trip the rank-0 payload through the configured codec.

    The simulations charge a message what ``compressed_nbytes`` counts and
    compute with what it fills, so the audit holds that path to the real one:
    ``len(payload)`` and the decode of the payload, byte for byte.
    """
    if scenario.compression == "off":
        return None
    codec = build_cluster(scenario).config.make_codec()
    data = make_inputs(scenario)[0]
    simulated = np.empty_like(data)

    def problem(detail: str) -> Dict[str, str]:
        return {"invariant": "codec_roundtrip", "detail": detail}

    try:
        payload = codec.compress_bytes(data)
        restored = codec.decompress_bytes(payload)
        (nbytes,) = codec.compressed_nbytes([data], [simulated])
    except Exception as exc:  # noqa: BLE001
        return problem(f"round-trip raised {type(exc).__name__}: {exc}")
    if restored.shape != data.shape or restored.dtype != data.dtype:
        return problem(f"round-trip changed shape/dtype to {restored.shape}/{restored.dtype}")
    if nbytes != len(payload):
        return problem(f"compressed_nbytes counts {nbytes} bytes of a {len(payload)}-byte payload")
    if simulated.tobytes() != restored.tobytes():
        return problem("the reconstruction compressed_nbytes fills differs from the decode")
    if data.size and scenario.codec != "zfp_fxr":  # fixed-rate: no bound to hold
        bound = float(codec.error_bound)
        err = float(np.max(np.abs(restored.astype(np.float64) - data.astype(np.float64))))
        if not err <= bound + rounding_margin(data, bound):
            return problem(f"max round-trip error {err:.6g} exceeds bound {bound:.6g}")
    return None
