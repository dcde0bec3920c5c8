#!/usr/bin/env python3
"""The layered perf ledger: one command, end-to-end numbers that decompose.

Three ways to run it (see README.md in this directory):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one JSON object on the last line of stdout: the
    end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
    pass (``--trace 1``).  This is the form ``BENCHMARK.json`` names.

``run.py [--seed 7] [--reps 30] [--workload NAME] [--no-trace] [--out PATH]``
    The whole ledger: every workload set up once, then timed round-robin
    (rep 1 of every workload, then rep 2 ...) so a noise burst is spread over
    all of them, then one traced child process per workload.  Prints every
    metric by name with its unit and writes ``LEDGER.json`` and
    ``BENCHMARK.json``; with ``--out`` it writes only PATH.

``run.py --compare A.json B.json``
    Two ledgers side by side: one row per (end-to-end metric, workload) with
    the ratio, the bound and a verdict; exact metrics compare with ``==``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import spec

#: set-up time counts from here: the standard library is in, numpy and the program are not
_START = time.perf_counter()

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: seconds a traced child of the full ledger measures (untraced and traced reps alternate)
TRACE_SECONDS = 6
#: what :func:`calibration` takes on this host in a quiet spell: the fixed scale that turns a
#: rep-over-calibration ratio back into seconds (of a host at that speed)
CALIB_REFERENCE_S = 0.018
#: fresh-process set-ups behind ``setup_s`` besides the measuring process's own
SETUP_CHILDREN = 2

clock = time.perf_counter


def import_program():
    """Pin the maths libraries to one thread, then import numpy and the program."""
    for var in THREAD_PINS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} is missing: the ledger measures this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import trace as spans  # this directory's trace.py: the script's directory leads sys.path
    import workloads

    return workloads, spans


# ----------------------------------------------------------------- measuring


def fastest_fifth(times: List[float]) -> float:
    """Mean of the fastest fifth: what the program takes in the host's quietest moments."""
    return statistics.fmean(sorted(times)[: max(1, len(times) // 5)])


def reference_seconds(times: List[float], calib: List[float]) -> float:
    """A rep's duration on a host at reference speed.

    Each rep is divided by the calibration runs right before and after it, so
    a speed shift of the host cancels whether it lasts one rep or the whole
    run; the median drops the reps a burst hit on one side of the ratio only.
    """
    return statistics.median(t / c for t, c in zip(times, calib)) * CALIB_REFERENCE_S


def _accumulate(step: int):
    total = 0
    while True:
        total += (yield total) + step


def calibration() -> float:
    """Seconds a fixed reference kernel takes right now: the host's speed, not the program's.

    Half small-array numpy calls, half heap / dict / generator work: the two
    things every workload's time goes into, and so slowed by a busy
    neighbour (sibling hyperthread, shared cache) about as much as the reps
    are.  It touches nothing of the program under test.
    """
    import numpy as np

    start = clock()
    fields = [np.sin(np.arange(n, dtype=np.float32)) for n in (64, 256, 1024)]
    scale = np.float32(1000.0)
    for _ in range(500):
        for field in fields:
            np.abs(field).max()
            codes = np.rint(field * scale).astype(np.int32).astype(np.uint8)
            np.packbits(codes & 1)
            np.concatenate((codes, codes)).tobytes()
    heap: list = []
    seen: Dict[int, int] = {}
    generators = [_accumulate(step) for step in range(64)]
    for generator in generators:
        next(generator)
    for i in range(9000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, i + 1)))
        seen[i & 2047] = seen.get(i & 2047, 0) + generators[i & 63].send(i)
    while heap:
        heapq.heappop(heap)
    return clock() - start


def until(seconds: float, min_reps: int) -> Callable[[int, float], bool]:
    return lambda rounds, elapsed: rounds < min_reps or elapsed < seconds


def exactly(reps: int) -> Callable[[int, float], bool]:
    return lambda rounds, elapsed: rounds < reps


class Timed:
    """Rep times, calibrations, last results and crashes of a round-robin pass over ``reps``."""

    def __init__(self, reps: Dict[str, Callable], keep_going: Callable[[int, float], bool]) -> None:
        self.times: Dict[str, List[float]] = {name: [] for name in reps}
        #: per timed rep, the mean of the calibration runs right before and right after it
        self.calib: Dict[str, List[float]] = {name: [] for name in reps}
        self.last: Dict[str, object] = {}
        self.crashed: Dict[str, int] = {name: 0 for name in reps}
        begin = clock()
        rounds = 0
        while keep_going(rounds, clock() - begin):
            for name, rep in reps.items():
                gc.collect()  # every rep starts from the same heap; outside the timed span
                before = calibration()
                start = clock()
                try:
                    result = rep()
                except Exception:  # a crashed rep fails its operations, the pass goes on
                    traceback.print_exc(file=sys.stderr)
                    self.crashed[name] += 1
                    continue
                self.times[name].append(clock() - start)
                self.calib[name].append((before + calibration()) / 2)
                self.last[name] = result
            rounds += 1

    def reference_seconds(self, name: str) -> float:
        return reference_seconds(self.times[name], self.calib[name])


def verdict(workload, warm, done: int, crashed: int, last):
    """(attempted, failed) over the warm-up and ``done`` + ``crashed`` further reps.

    The warm-up and ``last``, the final rep's result, are checked in full; they
    must also agree with each other bit for bit (facts and output digest), or
    the final rep's operations all count as failed.
    """
    attempted = warm.attempted * (1 + done + crashed)
    failed = warm.failed + warm.attempted * crashed
    if done:
        final = workload.check(last)
        if final.facts != warm.facts or final.digest != warm.digest:
            print(f"final rep differs from the warm-up: {final} != {warm}", file=sys.stderr)
            failed += final.attempted
        else:
            failed += final.failed
    return attempted, failed


def peak_rss_mb() -> float:
    """Peak resident memory of this process alone.

    ``VmHWM`` belongs to this process's address space; ``ru_maxrss`` starts at
    the resident size of whatever process spawned this one.
    """
    try:
        status = Path("/proc/self/status").read_text()
        return float(status.split("VmHWM:")[1].split()[0]) / 1024.0
    except (OSError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_stats(work: float, times: List[float], calib: List[float]) -> Dict[str, float]:
    """The unnormalised view of the timed reps: diagnostics, never gated."""
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    ordered = sorted(times)
    return {
        "driver.raw_work_per_s": work / fastest_fifth(times),
        "driver.calib_s": min(calib),
        "driver.n_reps": float(len(times)),
        "driver.rep_s_p50": quartiles[1],
        "driver.rep_s_p66": ordered[min(len(ordered) - 1, (2 * len(ordered)) // 3)],
        "driver.rep_s_iqr": quartiles[2] - quartiles[0],
    }


def child(*arguments: str) -> str:
    """Run this script again in a fresh process; its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )  # fmt: skip
    lines = done.stdout.strip().splitlines()
    if not lines:  # a child with failed operations still prints its result
        raise RuntimeError(f"child {arguments} exited with {done.returncode} and no result")
    return lines[-1]


def run_one(args) -> int:
    """``--workload NAME --trace 0|1``: one workload, one JSON object on the last line."""
    workloads, spans = import_program()
    import numpy as np

    name = args.workload
    workload = workloads.WORKLOADS[name](np.random.default_rng(args.seed))
    warm = workload.check(workload.rep())
    setup_s = clock() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    keep_going = exactly(args.reps) if args.reps else None

    if args.trace == 0:
        timed = Timed({name: workload.rep}, keep_going or until(args.seconds, 5))
        if not timed.times[name]:
            raise SystemExit(f"{name}: every rep raised")
        rss = peak_rss_mb()
        samples = [setup_s] + [
            float(child("--workload", name, "--seed", str(args.seed), "--setup-only"))
            for _ in range(SETUP_CHILDREN)
        ]
        metrics = {
            "work_per_s": warm.work / timed.reference_seconds(name),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": rss,
        }
        declared = spec.END_TO_END
    else:
        first = Timed({name: workload.rep}, exactly(2))
        rss = peak_rss_mb()  # before tracing is ever installed
        tracer = spans.Tracer()

        def traced_rep():
            with tracer:
                return workload.rep()

        # untraced and traced reps alternate, so a slow spell of the host
        # lands on both sides of the overhead ratio
        timed = Timed(
            {name: workload.rep, "traced": traced_rep}, keep_going or until(args.seconds, 3)
        )
        timed.times[name] = first.times[name] + timed.times[name]
        timed.calib[name] = first.calib[name] + timed.calib[name]
        timed.crashed[name] += first.crashed[name]
        traced_times = timed.times["traced"]
        if not traced_times or not timed.times[name]:
            raise SystemExit(f"{name}: every rep raised")
        metrics = spans.layer_metrics(
            tracer.spans(), tracer.engine_events, wall=sum(traced_times), reps=len(traced_times)
        )
        metrics.update(warm.facts)
        metrics.update(host_stats(warm.work, timed.times[name], timed.calib[name]))
        metrics.update({
            "driver.setup_s": setup_s,
            "driver.peak_rss_mb": rss,
            "driver.traced_reps": float(len(traced_times)),
            "driver.trace_overhead_frac":
                timed.reference_seconds("traced") / timed.reference_seconds(name) - 1.0,
        })  # fmt: skip
        declared = spec.PER_LAYER

    # under --trace 1 the last rep is a traced one: its outputs must be right too
    attempted, failed = verdict(
        workload,
        warm,
        done=sum(len(times) for times in timed.times.values()),
        crashed=sum(timed.crashed.values()),
        last=timed.last.get("traced", timed.last.get(name)),
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric that does not exist on this workload reads 0
        "metrics": {m.name: {"value": metrics.get(m.name, 0.0), "unit": m.unit} for m in declared},
    }))  # fmt: skip
    return 0 if failed == 0 else 1


# -------------------------------------------------------------------- ledger


def machine_facts(args) -> dict:
    import numpy as np

    def read(path: str) -> Optional[str]:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = read(f"{base}/level"), read(f"{base}/type"), read(f"{base}/size")
        if size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or None  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "seed": args.seed,
        "reps": args.reps,
        "command": ["python3", "benchmarks/ledger/run.py", *sys.argv[1:]],
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": caches,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def run_ledger(args) -> int:
    workloads, _ = import_program()
    import numpy as np

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    built, warm = {}, {}
    for name in names:
        built[name] = workloads.WORKLOADS[name](np.random.default_rng(args.seed))
        warm[name] = built[name].check(built[name].rep())
    reps = {name: workload.rep for name, workload in built.items()}
    timed = Timed(reps, exactly(args.reps))

    ledger = {"meta": machine_facts(args), "workloads": {}}
    ledger["meta"]["calib_s"] = min(min(calib) for calib in timed.calib.values())
    ledger["meta"]["calib_reference_s"] = CALIB_REFERENCE_S
    failed_anywhere = 0
    for name in names:
        times, calib = timed.times[name], timed.calib[name]
        seconds = reference_seconds(times, calib)
        attempted, failed = verdict(
            built[name], warm[name], len(times), timed.crashed[name], timed.last.get(name)
        )
        entry = {
            "unit": spec.WORKLOADS[name][0],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {"work_per_s": warm[name].work / seconds},
            # the same statistic on the odd and the even rounds: how far it repeats
            "spread": {
                "work_per_s": abs(reference_seconds(times[0::2], calib[0::2])
                                  - reference_seconds(times[1::2], calib[1::2])) / seconds
                if len(times) > 1 else 0.0
            },
            "per_layer": dict(warm[name].facts),
        }  # fmt: skip
        if not args.no_trace:
            traced = json.loads(child(
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(TRACE_SECONDS), "--trace", "1",
            ))  # fmt: skip
            attempted += traced["attempted"]
            failed += traced["failed"]
            entry.update(attempted=attempted, failed=failed)
            entry["per_layer"] = {key: m["value"] for key, m in traced["metrics"].items()}
            entry["end_to_end"]["setup_s"] = entry["per_layer"]["driver.setup_s"]
            entry["end_to_end"]["peak_rss_mb"] = entry["per_layer"]["driver.peak_rss_mb"]
        entry["per_layer"].update(host_stats(warm[name].work, times, calib))
        ledger["workloads"][name] = entry
        failed_anywhere += failed
        print_workload(name, entry)

    if args.out is None:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.contract(), indent=2) + "\n")
    out = Path(args.out) if args.out else LEDGER_DIR / "LEDGER.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"\nledger written to {out}; failed operations: {failed_anywhere}")
    return 0 if failed_anywhere == 0 else 1


def print_workload(name: str, entry: dict) -> None:
    unit_of_work = entry["unit"]
    print(f"\n== {name}  (work = {unit_of_work}; {entry['failed']} of "
          f"{entry['attempted']} operations failed)")  # fmt: skip
    for metric in spec.END_TO_END:
        if metric.name in entry["end_to_end"]:
            unit = f"{unit_of_work}/s" if metric.name == "work_per_s" else metric.unit
            print(f"  {metric.name:<36} {entry['end_to_end'][metric.name]:>16.6g} {unit}")
    for metric in spec.PER_LAYER:
        if metric.name in entry["per_layer"]:
            print(f"  {metric.name:<36} {entry['per_layer'][metric.name]:>16.6g} {metric.unit}")


# ------------------------------------------------------------------- compare


def compare(path_a: str, path_b: str) -> int:
    """B against A (the base of every ratio); non-zero unless every row is ``ok``."""
    a, b = (json.loads(Path(path).read_text())["workloads"] for path in (path_a, path_b))
    print(f"{'workload':<18} {'metric':<14} {'A':>14} {'B':>14} {'B/A':>8} {'bound':>6}  verdict")
    bad = 0
    for name in spec.WORKLOADS:
        if name not in a or name not in b:
            continue
        for metric in spec.END_TO_END:
            if metric.name not in a[name]["end_to_end"] or metric.name not in b[name]["end_to_end"]:
                continue
            base, new = a[name]["end_to_end"][metric.name], b[name]["end_to_end"][metric.name]
            worse = (base - new) / base if metric.better == "higher" else (new - base) / base
            spread = max(
                side[name].get("spread", {}).get(metric.name, 0.0) for side in (a, b)
            )
            if worse > metric.bound:
                outcome = "regressed"
            elif spread > metric.bound:
                outcome = "unresolved"
            else:
                outcome = "ok"
            bad += outcome != "ok"
            print(f"{name:<18} {metric.name:<14} {base:>14.6g} {new:>14.6g} "
                  f"{new / base:>8.3f} {metric.bound:>6.2f}  {outcome}")  # fmt: skip
        same = 0
        for metric in spec.PER_LAYER:
            if not metric.exact:
                continue
            base, new = (side[name]["per_layer"].get(metric.name) for side in (a, b))
            if base == new:
                same += 1
                continue
            bad += 1
            print(f"{name:<18} {metric.name:<14} {base!r:>14} {new!r:>14} {'':>8} {'==':>6}  changed")
        print(f"{name:<18} {same} exact metrics identical")
    failed = sum(side[name]["failed"] for side in (a, b) for name in side)
    print(f"failed operations: {failed}; rows not ok: {bad}")
    return 0 if bad == 0 and failed == 0 else 1


# ----------------------------------------------------------------------- cli


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), help="run this workload alone")
    parser.add_argument("--seed", type=int, default=7, help="every input derives from it (default 7)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="with --trace: how long to measure")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one JSON object: 0 end-to-end metrics, 1 per-layer metrics")  # fmt: skip
    parser.add_argument("--reps", type=int, help="timed reps per workload (ledger default 30)")
    parser.add_argument("--no-trace", action="store_true", help="ledger: skip the traced children")
    parser.add_argument("--out", help="ledger: write only this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.trace is not None or args.setup_only:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    args.reps = args.reps or 30
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
