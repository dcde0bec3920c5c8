"""Command-line entry points for the scenario fuzzer.

::

    python -m repro.fuzzer run --time-budget 60 --seed 7 [--db PATH] [--max-runs N]
    python -m repro.fuzzer replay RUN_ID [--db PATH]
    python -m repro.fuzzer show RUN_ID [--db PATH]

``run`` sweeps scenarios under a wall-clock budget and exits non-zero if any
invariant was violated.  ``replay`` re-executes the scenario stored under a
run id and verifies the recorded makespan and value digest bit-for-bit; it
refuses (exit 2) a record whose scenario no longer rebuilds under its run id.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fuzzer.autopilot import sweep
from repro.fuzzer.database import ResultsDatabase
from repro.fuzzer.executor import execute, run_id_for
from repro.fuzzer.generator import Scenario, sanitize

DEFAULT_DB = "fuzz_results.jsonl"


def _cmd_run(args: argparse.Namespace) -> int:
    db = ResultsDatabase(args.db)
    report = sweep(
        time_budget=args.time_budget,
        seed=args.seed,
        database=db,
        max_runs=args.max_runs,
        log=lambda msg: print(f"[fuzzer] {msg}", file=sys.stderr),
    )
    print(
        f"fuzzer: {report.runs} runs in {report.elapsed:.1f}s "
        f"({report.ok} ok, {len(report.failures)} failing) -> {args.db}"
    )
    for failing, minimal in report.reproducers.items():
        print(f"  {failing} shrinks to {minimal} (replay with: python -m repro.fuzzer replay {minimal})")
    return 1 if report.failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    db = ResultsDatabase(args.db)
    record = db.get(args.run_id)
    if record is None:
        print(f"run id {args.run_id!r} not found in {args.db}", file=sys.stderr)
        return 2
    scenario = sanitize(Scenario.from_dict(record["scenario"]))
    rebuilt = run_id_for(scenario)
    if rebuilt != args.run_id:
        # the record names a scenario this version cannot rebuild (a field it
        # no longer has, or one sanitize now folds): replaying would run
        # another scenario and compare it against this record
        print(
            f"run id {args.run_id!r}: its recorded scenario rebuilds as {rebuilt!r} "
            "in this version; refusing to replay",
            file=sys.stderr,
        )
        return 2
    fresh = execute(scenario)
    mismatches = []
    for key in ("makespan", "bytes_sent", "value_digest", "status"):
        if key in record and fresh.get(key) != record.get(key):
            mismatches.append(f"{key}: recorded {record.get(key)!r}, replay {fresh.get(key)!r}")
    if fresh.get("violations"):
        print(f"replay of {args.run_id}: invariant violations reproduced:")
        for violation in fresh["violations"]:
            print(f"  [{violation['invariant']}] {violation['detail']}")
    if mismatches:
        print(f"replay of {args.run_id} DIVERGED from the recorded run:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print(f"replay of {args.run_id}: bit-for-bit identical to the recorded run")
    return 1 if fresh.get("status") != "ok" else 0


def _cmd_show(args: argparse.Namespace) -> int:
    record = ResultsDatabase(args.db).get(args.run_id)
    if record is None:
        print(f"run id {args.run_id!r} not found in {args.db}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fuzzer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="time-boxed invariant sweep")
    run_p.add_argument("--time-budget", type=float, default=60.0, metavar="SECONDS")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--max-runs", type=int, default=None)
    run_p.add_argument("--db", default=DEFAULT_DB)
    run_p.set_defaults(func=_cmd_run)

    replay_p = sub.add_parser("replay", help="re-execute a recorded run id")
    replay_p.add_argument("run_id")
    replay_p.add_argument("--db", default=DEFAULT_DB)
    replay_p.set_defaults(func=_cmd_replay)

    show_p = sub.add_parser("show", help="print a recorded run")
    show_p.add_argument("run_id")
    show_p.add_argument("--db", default=DEFAULT_DB)
    show_p.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
