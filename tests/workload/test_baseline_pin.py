"""Workload runs with isolated baselines, pinned bit for bit across fabrics and faults.

``baseline_pin.json`` was generated at the commit *before* codec results were
shared between a job's concurrent run and its isolated baseline
(``python tests/workload/test_baseline_pin.py`` rewrites it; never edit it):
per case the ``float.hex`` of the makespan and of every job's ``finished`` /
``isolated``, restart, byte and message counts and one SHA-256 per step over
the ranks' values.  Reusing a codec result may change none of them.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Cluster
from repro.faults import FaultSchedule
from repro.workload import CollectiveCall, JobMix, JobSpec, WorkloadEngine

PIN_PATH = Path(__file__).parent / "baseline_pin.json"

FABRICS = {
    "fair_fat_tree": ("fat_tree", "fair"),
    "reservation_fat_tree": ("fat_tree", "reservation"),
    "fair_dragonfly": ("dragonfly", "fair"),
}
SEEDS = (3, 19, 36, 41)
FAULT_MIXES = ("none", "degraded_tier", "node_loss", "mixed")
CASES = [
    f"{fabric}-{seed}-{mix}" for fabric in FABRICS for seed in SEEDS for mix in FAULT_MIXES
]


def _jobs(seed):
    """Four mixed jobs (off / on / auto) plus one CPR-P2P job the mix never draws."""
    mix = JobMix(n_jobs=4, arrival_rate=500.0, msg_elems=(512, 2048, 8192), calls_range=(1, 2))
    direct = JobSpec(
        job_id="direct",
        n_ranks=4,
        arrival=1e-3,
        seed=seed + 1000,
        calls=tuple(
            CollectiveCall(op=op, msg_elems=2048, compression="di")
            for op in ("allreduce", "allgather", "bcast")
        ),
    )
    return mix.generate(seed) + [direct]


def _value_digest(values):
    """SHA-256 over one step's per-rank values (arrays, or lists of arrays), rank order."""
    digest = hashlib.sha256()
    for rank in sorted(values):
        value = values[rank]
        for block in value if isinstance(value, list) else [value]:
            block = np.ascontiguousarray(block)
            digest.update(f"{block.dtype.str}{block.shape}".encode())
            digest.update(block.tobytes())
    return digest.hexdigest()


def observe(case):
    fabric, seed, mix = case.rsplit("-", 2)
    preset, contention = FABRICS[fabric]
    cluster = Cluster.from_preset(preset, nodes=16, ranks_per_node=2, contention=contention)
    faults = FaultSchedule.generate(
        mix, int(seed), n_nodes=16, n_ranks=32, horizon=6e-3,
        link_families=cluster.topology.link_families,
    )  # fmt: skip
    engine = WorkloadEngine(
        cluster, policy="spread", seed=int(seed), record_values=True, faults=faults,
        failure_policy="restart_elsewhere", checkpoint=1,
    )  # fmt: skip
    report = engine.run(_jobs(int(seed)), baseline=True)
    return {
        "makespan": report.makespan.hex(),
        "jobs": {
            record.spec.job_id: {
                "finished": record.finished.hex(),
                "isolated": record.isolated.hex(),
                "restarts": record.restarts,
                "bytes_sent": record.bytes_sent,
                "messages_sent": record.messages_sent,
                "steps": [_value_digest(values) for values in record.step_values],
            }
            for record in report.records
        },
    }


@pytest.mark.parametrize("case", CASES)
def test_seeded_runs_with_baselines_are_pinned(case):
    assert observe(case) == json.loads(PIN_PATH.read_text())[case]


def test_the_pin_covers_restarts():
    """The node-loss cases are only worth pinning if jobs really get killed."""
    pin = json.loads(PIN_PATH.read_text())
    assert len(pin) == len(CASES) >= 40
    restarted = [
        case for case, seen in pin.items() if any(job["restarts"] for job in seen["jobs"].values())
    ]
    assert len(restarted) >= 6


if __name__ == "__main__":
    PIN_PATH.write_text(
        json.dumps({case: observe(case) for case in CASES}, indent=1, sort_keys=True) + "\n"
    )
