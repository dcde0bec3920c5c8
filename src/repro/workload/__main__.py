"""``python -m repro.workload`` — run or replay multi-tenant workloads.

Subcommands
-----------

``run``
    Generate a seeded Poisson job mix, simulate it on a preset fabric, and
    print the tenant report (per-job slowdown, p50/p99 step latency, fabric
    utilization).  ``--save-trace`` archives the generated jobs as JSONL for
    later ``replay``.

``replay``
    Re-run a JSONL trace (written by ``run --save-trace`` or by hand) on the
    same fabric flags.  Replaying the same trace twice is deterministic.

``--check-invariants`` runs under :func:`repro.mpisim.audit.audit_fabric`,
the monitors the fuzzer uses — stage capacity conservation and the max-min
bottleneck property — and exits non-zero on any violation, which is what the CI
multi-tenant smoke lane gates on.

``--fault-mix`` injects a named seeded fault scenario (see
:data:`repro.faults.FAULT_MIXES`) into the run: link degradations and flaps,
straggler ranks, rail failures, node loss.  ``--fault-seed`` decouples the
scenario draw from the job-mix seed.  The invariant audits hold under faults
too — capacity conservation is checked against each stage's reserve-time
capacity.

``--failure-policy`` and ``--checkpoint-every`` set the engine-level
recovery defaults: node loss *kills* the jobs running on the node, and the
policy decides whether each fails for good, restarts in place once its
nodes heal, or re-places elsewhere — resuming from its last durable
checkpoint when a checkpoint interval is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.api import Cluster
from repro.faults import FAULT_MIXES, FaultSchedule
from repro.mpisim.audit import audit_fabric
from repro.workload.arrivals import JobMix, TraceFormatError, load_trace, save_trace
from repro.workload.engine import WorkloadEngine
from repro.workload.job import COLLECTIVE_OPS, JobSpec
from repro.workload.recovery import FAILURE_POLICY_MODES

#: presets with contended stages the workload layer can arbitrate
FABRIC_PRESETS = ("fat_tree", "dragonfly", "rail_fat_tree", "shared_uplink")


def _int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_fabric_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", default="fat_tree", choices=FABRIC_PRESETS,
        help="fabric topology preset (default: fat_tree)",
    )
    parser.add_argument(
        "--nodes", type=int, default=16,
        help="minimum fabric node count (default: 16)",
    )
    parser.add_argument(
        "--ranks-per-node", type=int, default=2,
        help="job ranks per fabric node (default: 2)",
    )
    parser.add_argument(
        "--contention", default="fair", choices=("fair", "reservation"),
        help="shared-stage discipline (default: fair)",
    )
    parser.add_argument(
        "--policy", default="packed", choices=("packed", "spread", "random"),
        help="node placement policy (default: packed)",
    )
    parser.add_argument("--seed", type=int, default=7, help="seed (default: 7)")
    parser.add_argument(
        "--fault-mix", default="none", choices=FAULT_MIXES,
        help="named fault scenario injected into the run (default: none)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault scenario (default: --seed)",
    )
    parser.add_argument(
        "--failure-policy", default="fail", choices=FAILURE_POLICY_MODES,
        help="what node loss does to a running job (default: fail)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint interval in steps; 0 disables (default: 0)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="skip the isolated-run slowdown baselines (faster)",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="audit capacity conservation + fair bottleneck property; "
        "exit 1 on violations",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )


def build_cluster(args: argparse.Namespace) -> Cluster:
    kwargs = {"contention": args.contention, "ranks_per_node": args.ranks_per_node}
    if args.preset != "shared_uplink":
        kwargs["nodes"] = args.nodes
    return Cluster.from_preset(args.preset, **kwargs)


def build_faults(args: argparse.Namespace, cluster: Cluster) -> Optional[FaultSchedule]:
    """The seeded fault scenario for this invocation (None when fault-free)."""
    mix = getattr(args, "fault_mix", "none")
    if mix == "none":
        return None
    if args.preset == "shared_uplink" and mix != "stragglers":
        raise SystemExit(
            f"--fault-mix {mix} needs a switch-fabric preset "
            "(fat_tree / dragonfly / rail_fat_tree); shared_uplink supports "
            "only the stragglers mix"
        )
    topology = cluster.topology
    n_nodes = int(getattr(topology, "n_fabric_nodes", None) or args.nodes)
    seed = args.fault_seed if args.fault_seed is not None else args.seed
    try:
        return FaultSchedule.generate(
            mix,
            seed,
            n_nodes=n_nodes,
            n_ranks=n_nodes * args.ranks_per_node,
            nics_per_node=int(getattr(topology, "nics_per_node", 1)),
            link_families=topology.link_families,
        )
    except ValueError as exc:  # e.g. rail_outage on a single-rail preset
        raise SystemExit(f"--fault-mix {mix}: {exc}")


def build_engine(args: argparse.Namespace) -> WorkloadEngine:
    nodes = args.nodes if args.preset == "shared_uplink" else None
    cluster = build_cluster(args)
    return WorkloadEngine(
        cluster,
        nodes=nodes,
        policy=args.policy,
        seed=args.seed,
        faults=build_faults(args, cluster),
        failure_policy=args.failure_policy,
        checkpoint=args.checkpoint_every,
    )


def _execute(args: argparse.Namespace, specs: List[JobSpec]) -> int:
    engine = build_engine(args)
    with audit_fabric() if args.check_invariants else nullcontext([]) as violations:
        report = engine.run(specs, baseline=not args.no_baseline)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    if violations:
        print(f"INVARIANT VIOLATIONS ({len(violations)}):", file=sys.stderr)
        for kind, detail in violations[:20]:
            print(f"  [{kind}] {detail}", file=sys.stderr)
        return 1
    if args.check_invariants:
        print("invariants ok: capacity conservation + fair bottleneck property")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = JobMix(
            n_jobs=args.jobs,
            arrival_rate=args.rate,
            sizes=args.sizes,
            msg_elems=args.msg_elems,
            ops=args.ops,
            compressions=args.compressions,
        ).generate(args.seed)
    except ValueError as exc:
        print(f"invalid job mix: {exc}", file=sys.stderr)
        return 2
    if args.save_trace:
        save_trace(specs, args.save_trace)
        print(f"trace saved: {args.save_trace} ({len(specs)} jobs)")
    return _execute(args, specs)


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        specs = load_trace(args.trace)
    except TraceFormatError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print(f"empty trace: {args.trace}", file=sys.stderr)
        return 2
    return _execute(args, specs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="multi-tenant workloads on one simulated fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="generate and simulate a seeded job mix")
    _add_fabric_args(run_p)
    run_p.add_argument("--jobs", type=int, default=8, help="job count (default: 8)")
    run_p.add_argument(
        "--rate", type=float, default=300.0,
        help="Poisson arrival rate, jobs per virtual second (default: 300)",
    )
    run_p.add_argument(
        "--sizes", type=_int_list, default=(2, 4, 8),
        help="comma-separated job rank counts (default: 2,4,8)",
    )
    run_p.add_argument(
        "--msg-elems", type=_int_list, default=(1024, 4096, 16384),
        help="comma-separated message element counts (default: 1024,4096,16384)",
    )
    run_p.add_argument(
        "--ops", type=_str_list, default=COLLECTIVE_OPS,
        help=f"comma-separated collective ops (default: {','.join(COLLECTIVE_OPS)})",
    )
    run_p.add_argument(
        "--compressions", type=_str_list, default=("off", "on", "auto"),
        help="comma-separated compression modes (default: off,on,auto)",
    )
    run_p.add_argument(
        "--save-trace", default=None, help="write the generated jobs as JSONL"
    )
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser("replay", help="re-run a JSONL job trace")
    replay_p.add_argument("trace", help="path to a JSONL trace")
    _add_fabric_args(replay_p)
    replay_p.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    if args.checkpoint_every < 0:
        print(
            f"invalid --checkpoint-every: {args.checkpoint_every} (must be >= 0; 0 disables)",
            file=sys.stderr,
        )
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
