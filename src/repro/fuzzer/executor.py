"""Scenario execution: one run protocol, with the invariant catalog checked.

A :class:`~repro.fuzzer.generator.Scenario` is one of three kinds, each with
one function that prepares the scenario and returns its run: a zero-argument
callable that executes it once under :func:`repro.mpisim.audit.audit_fabric`
and fingerprints what it computed:

* a collective program (``_collective_run``): each run opens a new
  ``Communicator`` session and issues ``program_len`` collectives with per-step
  payloads; fingerprint: the summed makespan and a digest of every rank's
  values, bit for bit;
* a harness experiment (``_harness_run``) at small scale; fingerprint: its
  rows' canonical JSON;
* a faulted multi-tenant workload (``_faulted_workload_run``): one cluster,
  fault schedule and four jobs, and a new ``WorkloadEngine`` per run, so the
  replay checks that ``topology.reset()`` clears what a faulted run leaves;
  fingerprint: the makespan and each job's ``(finished, outcome, restarts,
  last_durable_step)``, so recovery decisions must replay, not just finish times.

:func:`execute` runs the scenario's kind twice and checks:

``no_crash``
    A raise while preparing or in either run makes the record an ``error``
    with this violation.
``capacity`` / ``fair_share``
    In both runs, no shared stage is allocated beyond its capacity (against
    reserve-time capacities, so mid-run degradations are covered; fair runs
    re-express fluid segments as reservations), and on ``contention="fair"``
    every max-min allocation the registry commits keeps backlogged stages
    saturated and every active flow bottlenecked on a saturated stage.
``determinism``
    The two runs' fingerprints are equal.
``values`` (collectives, first run)
    Every rank's result matches the numpy reference within the scenario's
    tolerance — 1e-10 relative uncompressed, the documented
    error-accumulation envelope compressed; the first rank outside it is
    reported.  Skipped for ``zfp_fxr``, whose error is data-dependent.
``codec_roundtrip`` (collectives, first run)
    The run's codec round-trips the rank-0 payload within its effective bound
    (error-bounded codecs; outside the collective, so a values failure can be
    attributed to the schedule vs the codec), and ``compressed_nbytes`` — what
    the simulations run — gives that payload's length and its decode, byte for
    byte, for every codec, ``zfp_fxr`` too.

Records are plain dicts (JSONL-ready) keyed by a deterministic ``run_id``
derived from the scenario's canonical JSON, so a run id replays its scenario.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Cluster
from repro.api.communicator import Communicator, issue_collective
from repro.ccoll import CCollConfig
from repro.collectives.reduce_scatter import partition_chunks
from repro.compression import rounding_margin
from repro.fuzzer.generator import _FABRIC_HOSTS, Scenario, placement_list, sanitize
from repro.mpisim.audit import audit_fabric

__all__ = ["build_cluster", "build_communicator", "make_inputs", "execute", "run_id_for"]

Problem = Dict[str, str]
#: one execution of a scenario: its fingerprint (named parts), the facts it
#: adds to the record, its audit problems, and the audits that need only the
#: first run (``None``: none)
Result = Tuple[Dict[str, object], Dict[str, object], List[Problem], Optional[Callable]]
Run = Callable[[], Result]


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


def execute(scenario: Scenario) -> Dict[str, object]:
    """Run ``scenario`` twice with every applicable invariant checked.

    Returns a JSONL-ready record: ``status`` is ``"ok"``, ``"violation"``
    (one or more invariants failed) or ``"error"`` (a run raised).
    """
    scenario = sanitize(scenario)
    record: Dict[str, object] = {"run_id": run_id_for(scenario), "scenario": scenario.to_dict()}
    if scenario.harness_experiment != "none":
        kind = _harness_run
    elif scenario.fault_mix != "none":
        kind = _faulted_workload_run
    else:
        kind = _collective_run
    try:
        run = kind(scenario)
        fingerprint, facts, problems, first_run_audits = run()
        rerun, _, rerun_problems, _ = run()
    except Exception as exc:  # noqa: BLE001 - a crash *is* a fuzzing result
        record.update(
            status="error",
            violations=[{"invariant": "no_crash", "detail": f"{type(exc).__name__}: {exc}"}],
        )
        return record

    violations = problems + rerun_problems
    diverged = [part for part, value in fingerprint.items() if rerun[part] != value]
    if diverged:
        detail = "the second run differs in " + ", ".join(diverged)
        violations.append({"invariant": "determinism", "detail": detail})
    if first_run_audits is not None:
        violations.extend(first_run_audits())
    record.update(status="violation" if violations else "ok", violations=violations, **facts)
    return record


def _audited(label: str, run: Callable[[], object]) -> Tuple[object, List[Problem]]:
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


def _collective_run(scenario: Scenario) -> Run:
    """The scenario's collective program, each run on a fresh session.

    Each step is traced and audited separately — the engine resets contention
    state per run, so a cross-step reservation trace would see overlapping
    timelines and misreport capacity violations.
    """

    def run() -> Result:
        comm = build_communicator(scenario)
        outcomes, step_values, problems = [], [], []
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
            step_values.append([np.asarray(outcome.value(r)) for r in range(scenario.n_ranks)])
            problems.extend(found)
        makespan = sum(outcome.total_time for outcome in outcomes)
        digest = _digest([value for values in step_values for value in values])
        facts = dict(
            makespan=float(makespan),
            bytes_sent=sum(int(outcome.sim.total_bytes_sent) for outcome in outcomes),
            value_digest=digest,
            algorithm=comm.last_algorithm,
            compression_route=comm.last_compression,
        )

        def audits() -> List[Problem]:
            found = (
                _values_problem(scenario, step_values),
                _codec_roundtrip_problem(scenario, comm.cluster.config),
            )
            return [problem for problem in found if problem is not None]

        return {"makespan": makespan, "values": digest}, facts, problems, audits

    return run


def _harness_run(scenario: Scenario) -> Run:
    """A small-scale run of the scenario's harness experiment (seeded, so its
    rows must replay bit for bit)."""
    from repro.harness.runner import run_experiment

    name = scenario.harness_experiment

    def run() -> Result:
        result, problems = _audited(name, lambda: run_experiment(name, scale="small"))
        rows = json.dumps(result.rows, sort_keys=True, default=repr)
        facts = dict(harness_experiment=name, harness_rows=len(result.rows))
        return {"rows": rows}, facts, problems, None

    return run


def _faulted_workload_run(scenario: Scenario) -> Run:
    """A small multi-tenant workload under the scenario's fault mix: one cluster,
    fault schedule and job set drawn from the seed, and a new engine on them per
    run, so a replay goes through ``topology.reset()`` after a faulted run."""
    from repro.faults import FaultSchedule
    from repro.workload import JobMix, WorkloadEngine

    sc = scenario
    rpn = sc.ranks_per_node
    kwargs: Dict[str, object] = dict(
        ranks_per_node=rpn, contention=sc.contention, nics_per_node=sc.nics_per_node
    )
    if sc.preset in ("fat_tree", "dragonfly"):
        kwargs["routing"] = sc.routing
    cluster = Cluster.from_preset(sc.preset, **kwargs)
    half = max(1, int(cluster.topology.n_fabric_nodes) // 2)
    schedule = FaultSchedule.generate(  # faults target the busy half, where tenants live
        sc.fault_mix, sc.seed, n_nodes=half, n_ranks=half * rpn, nics_per_node=sc.nics_per_node,
        horizon=6e-3, link_families=cluster.topology.link_families,
    )
    # jobs span >= 2 nodes so fabric faults intersect tenant traffic
    specs = JobMix(n_jobs=4, arrival_rate=900.0, sizes=(2 * rpn, 4 * rpn)).generate(sc.seed)
    policy = {"block": "packed", "cyclic": "spread", "irregular": "random"}[sc.placement]

    def run() -> Result:
        engine = WorkloadEngine(
            cluster, policy=policy, seed=sc.seed, faults=schedule,
            failure_policy=sc.failure_policy, checkpoint=sc.checkpoint_every,
        )
        report, problems = _audited(sc.fault_mix, lambda: engine.run(specs, baseline=False))
        jobs = tuple((rec.finished, rec.outcome, rec.restarts, rec.last_durable_step)
                     for rec in report.records)
        facts = dict(
            makespan=float(report.makespan),
            fault_mix=sc.fault_mix,
            fault_events=len(schedule),
            failed_jobs=report.failed_jobs,
            restarts=report.total_restarts,
        )
        return {"makespan": report.makespan, "jobs": jobs}, facts, problems, None

    return run


# ------------------------------------------------------------------- audits


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


def _values_problem(
    scenario: Scenario, step_values: List[List[np.ndarray]]
) -> Optional[Problem]:
    """The first rank, step by step, whose result leaves the scenario's tolerance
    (one rank's detail is enough; records stay compact), or ``None``."""
    tolerances = _value_tolerance(scenario)
    if tolerances is None:
        return None
    rtol, atol = tolerances
    for step, values in enumerate(step_values):
        expected = _expected_values(scenario, make_inputs(scenario, step))
        for rank, (got, want) in enumerate(zip(values, expected)):
            want = np.asarray(want)
            if got.shape != want.shape:
                detail = f"shape {got.shape} != expected {want.shape}"
            elif not got.size:
                continue
            else:
                err = np.max(np.abs(got.astype(np.float64) - want.astype(np.float64)))
                bound = atol + rtol * max(1.0, float(np.max(np.abs(want))))
                if err <= bound:
                    continue
                detail = f"max error {err:.6g} exceeds bound {bound:.6g}"
            return {"invariant": "values", "detail": f"step {step} rank {rank}: {detail}"}
    return None


def _digest(values: List[np.ndarray]) -> str:
    h = hashlib.sha256()
    for value in values:
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _codec_roundtrip_problem(scenario: Scenario, config: CCollConfig) -> Optional[Problem]:
    """Round-trip the rank-0 payload through the run's codec.

    The simulations charge a message what ``compressed_nbytes`` counts and
    compute with what it fills, so the audit holds that path to the real one:
    ``len(payload)`` and the decode of the payload, byte for byte.
    """
    if scenario.compression == "off":
        return None
    codec = config.make_codec()
    data = make_inputs(scenario)[0]
    simulated = np.empty_like(data)

    def problem(detail: str) -> Problem:
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
