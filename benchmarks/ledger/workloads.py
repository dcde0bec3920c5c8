"""The seven ledger workloads.

Each workload builds its inputs from a seeded ``numpy`` generator, exposes one
fixed unit of work as :meth:`Workload.rep` (the only thing the driver times)
and checks a rep's outputs in :meth:`Workload.check` (never timed).  The
program under test is driven through its public entry points only and sees
nothing but the generated inputs: no seed, no workload name.

The seed varies the *data* (noise, payload values), never the *shape* (sizes,
rank counts, job structure), so host throughput is comparable across seeds
while every simulated statistic still depends on the seed through the
compressed sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List

import numpy as np

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.compression import PipelinedSZx, SZxCompressor, ZFPCompressor
from repro.datasets.rtm import generate_rtm_snapshot
from repro.faults import DomainOutage, FailureDomain, FaultSchedule, NodeLoss
from repro.mpisim import Compute, Irecv, Isend, NetworkModel, Waitall, run_simulation
from repro.mpisim.topology import SharedUplinkTopology
from repro.workload import CollectiveCall, JobMix, JobSpec, WorkloadEngine

ERROR_BOUND = 1e-3


@dataclass
class Checked:
    """What :meth:`Workload.check` learned from one rep's outputs."""

    #: operations the rep attempted / how many of them gave a wrong output
    attempted: int
    failed: int
    #: units of work the rep did (the numerator of ``work_per_s``)
    work: float
    #: exact, seed-deterministic statistics (simulated time, accuracy)
    facts: Dict[str, float]
    #: SHA-256 over the rep's outputs; must not change between reps
    digest: str


class Workload:
    """One fixed amount of work plus the check of its outputs."""

    def rep(self) -> Any:
        raise NotImplementedError

    def check(self, result: Any) -> Checked:
        raise NotImplementedError


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for item in arrays:
        digest.update(item if isinstance(item, bytes) else np.ascontiguousarray(item).tobytes())
    return digest.hexdigest()


def _allowed(bound: float, reference: np.ndarray) -> float:
    """``bound`` plus one float32 ulp at the data's magnitude (storing the
    reconstruction as float32 rounds it), the slack the repo's own audits grant."""
    return bound + float(np.finfo(np.float32).eps) * float(np.max(np.abs(reference)))


def _sin_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mostly-non-constant field: a sine with 5 % seeded noise on top."""
    t = np.linspace(0.0, 64.0 * np.pi, n)
    return (np.sin(t) + 0.05 * rng.standard_normal(n)).astype(np.float32)


# ------------------------------------------------------------------- codec


class CodecRoundTrips(Workload):
    """``sweeps`` x (every codec x every field): compress, then decompress."""

    def __init__(self, fields: List[np.ndarray], codecs: list, sweeps: int) -> None:
        self.fields = fields
        self.codecs = codecs
        self.sweeps = sweeps
        self.work = sweeps * len(codecs) * sum(f.nbytes for f in fields) / 1e6

    def rep(self):
        out = []
        for _ in range(self.sweeps):
            for codec in self.codecs:
                for field in self.fields:
                    payload = codec.compress_bytes(field)
                    out.append((field, payload, codec.decompress_bytes(payload)))
        return out

    def check(self, result) -> Checked:
        failed = 0
        worst = 0.0
        raw = packed = 0
        for field, payload, restored in result:
            ok = restored.shape == field.shape and restored.dtype == field.dtype
            if ok:
                err = float(np.max(np.abs(restored.astype(np.float64) - field)))
                err /= _allowed(ERROR_BOUND, field)
                worst = max(worst, err)
                ok = err <= 1.0
            failed += not ok
            raw += field.nbytes
            packed += len(payload)
        return Checked(
            attempted=len(result),
            failed=failed,
            work=self.work,
            facts={
                "accuracy.err_over_bound_max": worst,
                "accuracy.compression_ratio": raw / packed,
            },
            digest=_sha256(*(part for _, payload, restored in result for part in (payload, restored))),
        )


def codec_large(rng: np.random.Generator) -> Workload:
    codecs = [
        SZxCompressor(error_bound=ERROR_BOUND),
        PipelinedSZx(error_bound=ERROR_BOUND),
        ZFPCompressor(mode="abs", error_bound=ERROR_BOUND),
    ]
    return CodecRoundTrips([_sin_noise(rng, 1_000_000)], codecs, sweeps=1)


def codec_small(rng: np.random.Generator) -> Workload:
    codecs = [SZxCompressor(error_bound=ERROR_BOUND), PipelinedSZx(error_bound=ERROR_BOUND)]
    fields = [_sin_noise(rng, n) for n in (256, 1024, 4096, 16384)]
    return CodecRoundTrips(fields, codecs, sweeps=60)


# ------------------------------------------------------------------ engine

RING_RANKS = 1024
RING_ROUNDS = 8


class RingExchange(Workload):
    """1,024 ranks pass one payload around a ring for 8 rounds: no codec calls."""

    def __init__(self, rng: np.random.Generator, contention: str) -> None:
        # one payload shared by every rank: a fresh array per rank would turn
        # the measurement into an allocator benchmark
        self.payload = rng.standard_normal(2048)
        self.topology = SharedUplinkTopology(ranks_per_node=8, contention=contention)
        self.network = NetworkModel(
            latency=1e-6,
            bandwidth=1e9,
            eager_threshold=1024,
            inflight_window=1024**2,
            contention=contention,
        )

    def _program(self, rank: int, size: int):
        left = (rank - 1) % size
        right = (rank + 1) % size
        payload = self.payload
        for step in range(RING_ROUNDS):
            recv_req = yield Irecv(source=left, tag=step)
            send_req = yield Isend(dest=right, data=payload, nbytes=payload.nbytes, tag=step)
            yield Waitall([recv_req, send_req])
            yield Compute(1e-6, category="Others")
        return rank

    def rep(self):
        return run_simulation(RING_RANKS, self._program, self.network, topology=self.topology)

    def check(self, result) -> Checked:
        values = result.rank_values
        failed = sum(1 for rank, value in enumerate(values) if value != rank)
        if result.total_messages != RING_RANKS * RING_ROUNDS:
            failed = RING_RANKS
        return Checked(
            attempted=RING_RANKS,
            failed=failed,
            work=float(RING_RANKS * RING_ROUNDS * 4),  # Irecv + Isend + Waitall + Compute
            facts={"sim.makespan_s": result.total_time},
            digest=_sha256(np.asarray(result.rank_times)),
        )


def engine_ring_fair(rng: np.random.Generator) -> Workload:
    return RingExchange(rng, "fair")


def engine_ring_resv(rng: np.random.Generator) -> Workload:
    return RingExchange(rng, "reservation")


# --------------------------------------------------------------- allreduce

ALLREDUCE_RANKS = 16
ALLREDUCE_MODES = ("off", "on", "auto")


class AllreduceCColl(Workload):
    """One ``Communicator.allreduce`` per compression mode on the RTM field."""

    def __init__(self, rng: np.random.Generator) -> None:
        cluster = Cluster.from_preset(
            "fat_tree",
            ranks_per_node=2,
            config=CCollConfig(codec="szx", error_bound=ERROR_BOUND, size_multiplier=64),
        )
        self.comm = cluster.communicator(ALLREDUCE_RANKS)
        # the wavefield's shape is fixed (source layout 0); the seed perturbs
        # every rank's copy by a fifth of the error bound
        base = generate_rtm_snapshot(seed=0).flatten()
        self.inputs = [
            base + (0.2 * ERROR_BOUND * rng.standard_normal(base.size)).astype(np.float32)
            for _ in range(ALLREDUCE_RANKS)
        ]
        self.exact = np.sum(np.stack(self.inputs), axis=0, dtype=np.float64)

    def rep(self):
        return [self.comm.allreduce(self.inputs, compression=mode) for mode in ALLREDUCE_MODES]

    def check(self, result) -> Checked:
        failed = 0
        worst = 0.0
        chain_bound = _allowed((ALLREDUCE_RANKS + 1) * ERROR_BOUND, self.exact)
        for mode, outcome in zip(ALLREDUCE_MODES, result):
            # the owner of a chunk keeps its exact sum while the others get the
            # decompressed copy, so compressed modes bound every rank's error
            # instead of asking for identical ranks
            err = max(
                float(np.max(np.abs(value.astype(np.float64) - self.exact)))
                for value in outcome.values
            )
            if mode == "off":
                same = all(np.array_equal(outcome.values[0], v) for v in outcome.values[1:])
                ok = same and err <= 1e-5 * float(np.max(np.abs(self.exact)))
            else:
                worst = max(worst, err / chain_bound)
                ok = err <= chain_bound
            failed += not ok
        off, on, _ = result
        return Checked(
            attempted=len(result),
            failed=failed,
            work=float(len(result)),
            facts={
                "sim.makespan_s": sum(outcome.total_time for outcome in result),
                "sim.speedup": off.total_time / on.total_time,
                "accuracy.err_over_bound_max": worst,
                "accuracy.compression_ratio": on.compression_ratio,
            },
            digest=_sha256(*(value for outcome in result for value in outcome.values)),
        )


def allreduce_ccoll(rng: np.random.Generator) -> Workload:
    return AllreduceCColl(rng)


# ---------------------------------------------------------------- workload


def _reseeded(specs: List[JobSpec], rng: np.random.Generator) -> List[JobSpec]:
    """The same jobs with seeded payloads (``JobSpec.seed`` drives the buffers)."""
    return [replace(spec, seed=int(rng.integers(1, 2**31))) for spec in specs]


class JobsOnOneFabric(Workload):
    """``WorkloadEngine.run`` of a fixed job list on the 16-node fair fat tree."""

    def __init__(self, specs: List[JobSpec], *, policy: str, baseline: bool, **recovery) -> None:
        self.specs = specs
        self.baseline = baseline
        cluster = Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=2, contention="fair")
        self.engine = WorkloadEngine(cluster, policy=policy, **recovery)
        self.faulted = bool(recovery)

    def rep(self):
        return self.engine.run(self.specs, baseline=self.baseline)

    def check(self, report) -> Checked:
        failed = sum(1 for record in report.records if record.outcome != "completed")
        facts = {
            "sim.makespan_s": report.makespan,
            "sim.step_p99_s": report.latency["p99"],
        }
        if self.baseline:
            facts["sim.mean_slowdown"] = report.mean_slowdown
        if self.faulted:
            facts["sim.goodput"] = report.goodput
            facts["workload.restarts"] = float(report.total_restarts)
            if report.total_restarts < 1 or not 0.0 < report.goodput < 1.0:
                failed = len(report.records)
        return Checked(
            attempted=len(report.records),
            failed=failed,
            work=float(report.total_messages),
            facts=facts,
            digest=_sha256(
                np.asarray([record.finished for record in report.records], dtype=np.float64)
            ),
        )


def workload_mix(rng: np.random.Generator) -> Workload:
    # the mix's structure is pinned (draw 7 of the Poisson process), so every
    # seed runs the same 16 jobs on different data
    specs = JobMix(n_jobs=16, arrival_rate=500.0, sizes=(2, 4, 8)).generate(7)
    return JobsOnOneFabric(_reseeded(specs, rng), policy="spread", baseline=True)


def workload_recovery(rng: np.random.Generator) -> Workload:
    calls = (CollectiveCall(op="allreduce", msg_elems=8192, compression="on"),)
    specs = _reseeded(
        [
            JobSpec(job_id=f"long-{index}", n_ranks=n_ranks, arrival=1e-4 * index,
                    iterations=4, calls=calls)
            for index, n_ranks in enumerate((8, 4, 2, 8, 4, 2))
        ],
        rng,
    )
    # the faults are timed off the healthy run so the kills land mid-flight
    makespan = JobsOnOneFabric(specs, policy="packed", baseline=False).rep().makespan
    zone = FailureDomain(name="pz0", kind="power", nodes=(4, 5))
    faults = FaultSchedule(
        events=(
            NodeLoss(time=0.45 * makespan, node=1),
            DomainOutage(time=0.70 * makespan, domain=zone, duration=0.10 * makespan),
        )
    )
    return JobsOnOneFabric(
        specs,
        policy="packed",
        baseline=False,
        faults=faults,
        failure_policy="restart_elsewhere",
        checkpoint=2,
    )


#: name -> builder; the names are the benchmark's public workload names
WORKLOADS = {
    "codec_large": codec_large,
    "codec_small": codec_small,
    "engine_ring_fair": engine_ring_fair,
    "engine_ring_resv": engine_ring_resv,
    "allreduce_ccoll": allreduce_ccoll,
    "workload_mix": workload_mix,
    "workload_recovery": workload_recovery,
}
