"""Per-stage utilization of a workload run: seeded values pinned bit-for-bit.

``stage_utilization_pin.json`` holds ``WorkloadReport.to_dict()
["stage_utilization"]`` (values as ``float.hex``) of the two mixes below,
generated before the stage metering moved from a class patch into
``SharedLink.wire_seconds``; no value in it may be edited.
"""

import json
from pathlib import Path

import pytest

from repro.api import Cluster
from repro.faults import FaultSchedule
from repro.workload import JobMix, WorkloadEngine

PIN = json.loads((Path(__file__).parent / "stage_utilization_pin.json").read_text())


def _report(contention, fault_mix=None, preset="fat_tree"):
    # shared_uplink sizes itself per run: the engine is told the node count
    sized = {} if preset == "shared_uplink" else {"nodes": 16}
    cluster = Cluster.from_preset(preset, ranks_per_node=2, contention=contention, **sized)
    faults = None
    if fault_mix is not None:
        # horizon = the mix's makespan, so the flaps land while jobs are running
        faults = FaultSchedule.generate(fault_mix, 5, n_nodes=16, n_ranks=32, horizon=10e-3)
    engine = WorkloadEngine(
        cluster, nodes=None if sized else 16, policy="spread", seed=11, faults=faults
    )
    return engine.run(JobMix(n_jobs=6, arrival_rate=500.0).generate(11), baseline=False)


@pytest.mark.parametrize(
    "name, contention, fault_mix",
    [("fair_fat_tree_flaky_links", "fair", "flaky_links"),
     ("reservation_fat_tree", "reservation", None)],
)  # fmt: skip
def test_seeded_stage_utilization_is_pinned(name, contention, fault_mix):
    measured = _report(contention, fault_mix).to_dict()["stage_utilization"]
    assert {stage: value.hex() for stage, value in measured.items()} == PIN[name]


def test_shared_uplink_stages_are_named_after_their_node():
    """Regression: these came out as the anonymous ``stage-0``, ``stage-1``."""
    report = _report("fair", preset="shared_uplink")
    assert report.stage_utilization
    for name in report.stage_utilization:
        family, node = name.split(":")
        assert family == "uplink" and 0 <= int(node) < 16
    assert "uplink:" in report.to_text()
