"""``python -m repro.faults`` — seeded fault-injection smoke checks.

``smoke`` runs the checks the CI faults lane gates on:

1. **empty-schedule drift** — a :class:`~repro.faults.FaultSchedule` with no
   events must leave the workload makespan bit-for-bit identical to a run
   without any injector, in both contention modes;
2. **per-mix determinism + invariants** — every named fault mix runs the
   same seeded job mix twice; the two runs must agree bit-for-bit, and each
   run is audited for stage capacity conservation (against reserve-time
   capacities, so mid-run degradations are handled) and the max-min fair
   bottleneck property.

Exits non-zero on any violation or drift.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.api import Cluster
from repro.faults.schedule import FAULT_MIXES, FaultSchedule
from repro.mpisim.audit import audit_fabric
from repro.workload import JobMix, WorkloadEngine


def _build(contention: str, seed: int) -> tuple:
    cluster = Cluster.from_preset(
        "fat_tree", nodes=8, ranks_per_node=2, nics_per_node=2,
        contention=contention,
    )
    # >= 8 ranks -> >= 4 nodes -> spans edge switches, so switch-tier faults
    # genuinely intersect tenant traffic (2 nodes would stay leaf-local)
    mix = JobMix(n_jobs=4, arrival_rate=900.0, sizes=(8, 16))
    return cluster, mix.generate(seed)


def _run(cluster, specs, seed: int, faults, audit: bool):
    """One simulation; returns (makespan, finishes, violations)."""
    engine = WorkloadEngine(cluster, policy="packed", seed=seed, faults=faults)
    with audit_fabric() if audit else nullcontext([]) as violations:
        report = engine.run(specs, baseline=False)
    finishes = tuple(record.finished for record in report.records)
    return report.makespan, finishes, violations


def cmd_smoke(args: argparse.Namespace) -> int:
    failures: List[str] = []
    seed = args.seed

    for contention in ("fair", "reservation"):
        cluster, specs = _build(contention, seed)
        base_mk, base_fin, _ = _run(cluster, specs, seed, None, audit=False)
        empty_mk, empty_fin, _ = _run(
            cluster, specs, seed, FaultSchedule(), audit=False
        )
        if base_mk != empty_mk or base_fin != empty_fin:
            failures.append(
                f"empty-schedule drift under contention={contention}: "
                f"{base_mk!r} != {empty_mk!r}"
            )
        else:
            print(f"ok empty-schedule pin   contention={contention} "
                  f"makespan={base_mk * 1e3:.3f}ms")

    cluster, specs = _build("fair", seed)
    n_fabric = int(cluster.topology.n_fabric_nodes)
    for mix_name in args.mixes:
        schedule = FaultSchedule.generate(
            mix_name, seed, n_nodes=8, n_ranks=16, nics_per_node=2,
            horizon=6e-3,
        )
        first = _run(cluster, specs, seed, schedule, audit=True)
        second = _run(cluster, specs, seed, schedule, audit=True)
        mk, fin, violations = first
        if (mk, fin) != second[:2]:
            failures.append(
                f"mix {mix_name!r} not deterministic: {mk!r} != {second[0]!r}"
            )
        for run_no, (_, _, viol) in enumerate((first, second)):
            for kind, detail in viol:
                failures.append(f"mix {mix_name!r} run {run_no}: [{kind}] {detail}")
        status = "ok" if (mk, fin) == second[:2] and not violations else "FAIL"
        print(f"{status} mix={mix_name:14s} events={len(schedule)} "
              f"makespan={mk * 1e3:.3f}ms (fabric {n_fabric} nodes)")

    if failures:
        print(f"FAULT SMOKE FAILURES ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("fault smoke ok: empty-schedule pins + per-mix determinism + invariants")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault-injection smoke checks (CI lane)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser("smoke", help="run the CI fault smoke checks")
    smoke.add_argument("--seed", type=int, default=7, help="seed (default: 7)")
    smoke.add_argument(
        "--mixes", nargs="*",
        default=[m for m in FAULT_MIXES if m != "none"],
        choices=FAULT_MIXES,
        help="fault mixes to exercise (default: every non-empty mix)",
    )
    smoke.set_defaults(func=cmd_smoke)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
