"""Tier-1 checks of the perf ledger: contract, exactness, tracing hygiene.

Nothing here asserts a host time.  What must hold on any machine: the
contract file matches the declarations and the driver's limits, the exact
metrics repeat bit for bit (also across processes) and move with the seed,
the tracer covers the traced rep and leaves no monkeypatch behind, and
``--compare`` tells ``ok`` from ``regressed`` from ``changed``.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
RUN = [sys.executable, str(LEDGER / "run.py")]
sys.path.insert(0, str(ROOT / "src"))


def _load(name: str):
    """A ledger module under a name of its own (``trace`` is also a stdlib module)."""
    module_spec = importlib.util.spec_from_file_location(f"ledger_{name}", LEDGER / f"{name}.py")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module
    module_spec.loader.exec_module(module)
    return module


spec = _load("spec")
workloads = _load("workloads")
trace = _load("trace")

#: workloads whose simulated statistics cannot depend on the seed (fixed-size payloads)
SEED_BLIND = {"engine_ring_fair", "engine_ring_resv"}


def _checked(seed: int):
    out = {}
    for name, build in workloads.WORKLOADS.items():
        workload = build(np.random.default_rng(seed))
        out[name] = (workload, workload.check(workload.rep()))
    return out


@pytest.fixture(scope="module")
def other_process(tmp_path_factory):
    """A one-rep ledger at seed 7 in a process of its own, started first so it
    runs beside the in-process tests."""
    out = tmp_path_factory.mktemp("ledger") / "seed7.json"
    process = subprocess.Popen(
        [*RUN, "--seed", "7", "--reps", "1", "--no-trace", "--out", str(out)],
        stdout=subprocess.DEVNULL,
    )
    yield process, out
    process.kill()
    process.wait()


@pytest.fixture(scope="module")
def seed7(other_process):
    return _checked(7)


def test_contract_matches_declarations_and_limits():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == spec.contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert len(contract["command"]) <= 32 and all(len(part) <= 200 for part in contract["command"])
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for entry in contract[key]:
            assert set(entry) == fields
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
            assert entry["better"] in ("higher", "lower")
    assert all(0.0 <= entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in contract["end_to_end"])
    assert list(workloads.WORKLOADS) == list(spec.WORKLOADS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    glossary = (LEDGER / "README.md").read_text()
    for entry in spec.contract()["workloads"] + spec.END_TO_END + spec.PER_LAYER:
        name = entry["name"] if isinstance(entry, dict) else entry.name
        assert f"`{name}`" in glossary, f"{name} is missing from the README"


def test_reference_seconds_cancels_host_speed_and_drops_a_burst():
    run = _load("run")
    times, calib = [0.30, 0.31, 0.30, 0.29, 0.30], [0.018, 0.018, 0.018, 0.018, 0.018]
    quiet = run.reference_seconds(times, calib)
    assert quiet == pytest.approx(0.30)
    # the whole host 1.4x slower: reps and calibrations alike
    assert run.reference_seconds([1.4 * t for t in times], [1.4 * c for c in calib]) == pytest.approx(quiet)
    # a burst that hits one rep but not the calibrations around it
    assert run.reference_seconds([0.30, 0.31, 0.55, 0.29, 0.30], calib) == pytest.approx(quiet)


def test_every_operation_passes_and_facts_are_declared(seed7):
    exact = {metric.name for metric in spec.PER_LAYER if metric.exact}
    for name, (_, checked) in seed7.items():
        assert checked.failed == 0 and checked.attempted >= 1, name
        assert checked.work > 0, name
        assert set(checked.facts) <= exact, name
        assert checked.facts.get("accuracy.err_over_bound_max", 0.0) <= 1.0, name
    recovery = seed7["workload_recovery"][1].facts
    assert recovery["workload.restarts"] >= 1 and 0.0 < recovery["sim.goodput"] < 1.0
    assert seed7["allreduce_ccoll"][1].facts["sim.speedup"] > 1.0


def test_seed_moves_the_data_not_the_shape(seed7):
    for name, (_, other) in _checked(8).items():
        checked = seed7[name][1]
        assert other.failed == 0 and other.attempted == checked.attempted, name
        assert other.facts.keys() == checked.facts.keys(), name
        if name in SEED_BLIND:
            assert other.facts == checked.facts, name
        else:
            assert other.facts != checked.facts and other.digest != checked.digest, name
        if name.startswith(("codec", "engine")):
            assert other.work == checked.work, name  # flow counts follow the simulated timing


def test_tracer_covers_the_rep_and_restores_every_attribute(seed7):
    targets = [(owner, name) for owner, name, _ in trace.Tracer().targets()]
    originals = [vars(owner)[name] for owner, name in targets]
    measured = {}
    for name, (workload, checked) in seed7.items():
        tracer = trace.Tracer()
        with tracer:
            assert any(vars(o)[n] is not orig for (o, n), orig in zip(targets, originals))
            result = workload.rep()
        assert [vars(owner)[attr] for owner, attr in targets] == originals, name
        spans = tracer.spans()
        wall = max(end for _, _, _, end, _ in spans) - min(start for _, _, start, _, _ in spans)
        measured[name] = trace.layer_metrics(spans, tracer.engine_events, wall=wall, reps=1)
        # a traced rep computes exactly what an untraced one does
        traced = workload.check(result)
        assert (traced.facts, traced.digest) == (checked.facts, checked.digest), name
    for name, metrics in measured.items():
        assert metrics["driver.span_coverage"] >= 0.97, name
        assert set(metrics) <= {metric.name for metric in spec.PER_LAYER}, name
    for name in ("engine_ring_fair", "engine_ring_resv"):
        assert measured[name]["collectives.commands"] == 1024 * 8 * 4
        assert measured[name]["compression.compress_calls"] == 0
        assert measured[name]["mpisim.topology.resolve_calls"] == 1024 * 8
    assert measured["engine_ring_fair"]["mpisim.fairshare.flows_opened"] == 1024
    assert measured["engine_ring_resv"]["mpisim.fairshare.calls"] == 0
    assert measured["codec_small"]["compression.compress_calls"] == 480
    assert measured["codec_small"]["compression.fixed_overhead_us"] != 0
    assert measured["codec_large"]["compression.fixed_overhead_us"] == 0
    assert measured["allreduce_ccoll"]["api.calls"] == 3
    assert measured["workload_mix"]["workload.engine_runs"] == 17
    assert measured["workload_mix"]["mpisim.engine.kill_calls"] == 0
    assert measured["workload_recovery"]["mpisim.engine.kill_calls"] >= 1
    assert measured["workload_recovery"]["faults.events_injected"] > 0


def test_exact_metrics_repeat_in_another_process_and_compare_judges(seed7, other_process, tmp_path):
    process, path = other_process
    assert process.wait(timeout=120) == 0
    ledger = json.loads(path.read_text())
    assert ledger["meta"]["seed"] == 7 and ledger["meta"]["thread_pins"]["OMP_NUM_THREADS"] == "1"
    for name, (_, checked) in seed7.items():
        entry = ledger["workloads"][name]
        assert entry["failed"] == 0
        assert {key: entry["per_layer"][key] for key in checked.facts} == checked.facts, name
        assert entry["end_to_end"]["work_per_s"] > 0

    def verdicts(other: dict) -> subprocess.CompletedProcess:
        changed = tmp_path / "other.json"
        changed.write_text(json.dumps(other))
        return subprocess.run(
            [*RUN, "--compare", str(path), str(changed)], stdout=subprocess.PIPE, text=True
        )

    same = verdicts(ledger)
    assert same.returncode == 0 and "regressed" not in same.stdout and "changed" not in same.stdout
    slower = json.loads(path.read_text())
    slower["workloads"]["codec_small"]["end_to_end"]["work_per_s"] *= 0.5
    slower["workloads"]["workload_mix"]["per_layer"]["sim.makespan_s"] *= 1.0 + 1e-12
    judged = verdicts(slower)
    assert judged.returncode == 1
    rows = [line.split() for line in judged.stdout.splitlines()]
    assert ["codec_small", "work_per_s"] == next(r for r in rows if r[-1] == "regressed")[:2]
    assert ["workload_mix", "sim.makespan_s"] == next(r for r in rows if r[-1] == "changed")[:2]
