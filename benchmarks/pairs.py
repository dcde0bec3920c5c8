#!/usr/bin/env python3
"""Alternating A/B pairs of one ledger workload: a parent checkout against this tree.

    python benchmarks/pairs.py PARENT_DIR WORKLOAD [--pairs 5] [--seconds 10] [--seed 1001]

Pair ``i`` runs the command ``BENCHMARK.json`` declares, with ``--workload
WORKLOAD --seed SEED+i --seconds S --trace 0``, once in ``PARENT_DIR`` and
once in this tree (each in its own directory), the parent first in pairs
1, 3, 5, ... and this tree first in the others, so a slow spell of the host
lands on both sides.  It prints each pair's end-to-end metrics as parent -> change,
then per metric each side's median and quartiles, the change-over-parent
ratio of the medians, the parent's interquartile range and the number of
pairs the change won (by the metric's ``better`` direction), and the failed
operations of every run.  Standard library only; the exit status is non-zero
iff an operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def run(checkout: Path, command: List[str], workload: str, seed: int, seconds: float) -> dict:
    """One ledger run in ``checkout``: the JSON object on the last line of its stdout."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("workload", help="a workload name from BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=5, help="pairs to run (default 5)")
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1001, help="seed of the first pair (default 1001)")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    metrics = contract["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    values: Dict[str, Dict[str, List[float]]] = {s: {m["name"]: [] for m in metrics} for s in sides}
    failed = 0

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s per run, parent {sides['parent']}")
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: run(sides[side], contract["command"], args.workload, seed, seconds)
                   for side in order}  # fmt: skip
        cells = []
        for m in metrics:
            a, b = (results[side]["metrics"][m["name"]]["value"] for side in sides)
            values["parent"][m["name"]].append(a)
            values["change"][m["name"]].append(b)
            cells.append(f"{m['name']} {a:.6g} -> {b:.6g}")
        failed += sum(results[side]["failed"] for side in sides)
        print(f"  pair {i + 1} seed {seed} ({order[0]} first): " + ", ".join(cells), flush=True)

    for m in metrics:
        name = m["name"]
        a, b = values["parent"][name], values["change"][name]
        higher = m["better"] == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        (pa1, pa, pa3), (pb1, pb, pb3) = quartiles(a), quartiles(b)
        print(f"{name:<12} median [quartiles] {pa:.6g} [{pa1:.6g}, {pa3:.6g}] -> "
              f"{pb:.6g} [{pb1:.6g}, {pb3:.6g}]  ratio {pb / pa:.3f}  "
              f"parent IQR {pa3 - pa1:.6g}  change better in {wins}/{len(a)}")  # fmt: skip
    print(f"failed operations: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
