"""Integration tests for the experiment harness.

Each experiment is run at a deliberately tiny scale (few sizes, few ranks) so
the whole module stays fast; the assertions check the *structure* of every
result plus the headline qualitative findings that each paper table/figure is
supposed to show.

The swept experiments' tiny tables are also pinned, printed cells at full
precision, in ``tiny_tables_pin.json``.  Regenerating it is a deliberate act,
never a side effect of a test run::

    PYTHONPATH=src python tests/harness/test_experiments.py
"""

import copy
import dataclasses
import difflib
import functools
import json
import math
from pathlib import Path

import pytest

from repro.harness import EXPERIMENTS, ExperimentResult, list_experiments, run_experiment
from repro.harness.common import SCALES, ScaleSettings, resolve_scale
from repro.harness.experiments.allreduce_comparison import (
    run_fig11_datasizes,
    run_fig12_scaling,
    run_fig13_fields,
)
from repro.harness.experiments.compressor_tables import characterise, run_table1, run_table2, run_table3
from repro.harness.experiments.scatter_bcast import run_fig16_scatter_bcast
from repro.harness.experiments.stacking import (
    run_fig17_stacking_perf,
    run_fig18_stacking_quality,
    stacking_sweep,
)
from repro.harness.experiments.stepwise_breakdown import (
    run_fig7_breakdown,
    run_fig8_di_vs_nd,
    run_fig9_wait_overlap,
    run_fig10_stepwise,
    stepwise_sweep,
)
from repro.harness.experiments.fabric_contention import FABRIC_NAMES, run_fabric_contention
from repro.harness.experiments.recovery import _job_mix
from repro.harness.experiments.topology_scaling import run_topology_scaling
from repro.harness.runner import main
from repro.mpisim.audit import audit_fabric
from repro.mpisim.engine import Engine

#: a miniature scale so harness tests stay fast
TINY = ScaleSettings(
    name="tiny",
    ranks_small_cluster=4,
    ranks_large_cluster=6,
    target_real_bytes=300_000,
    size_sweep_mb=(28, 128),
    node_sweep=(2, 4),
    table_points=60_000,
)


@functools.cache
def _stepwise_rows():
    return stepwise_sweep(dataclasses.replace(TINY, size_sweep_mb=(64, 160)))


#: the swept experiments at the tiny settings their tests use
_TINY_RUNS = {
    "fig7": lambda: run_fig7_breakdown(rows=_stepwise_rows()),
    "fig8": lambda: run_fig8_di_vs_nd(rows=_stepwise_rows()),
    "fig9": lambda: run_fig9_wait_overlap(rows=_stepwise_rows()),
    "fig10": lambda: run_fig10_stepwise(rows=_stepwise_rows()),
    "fig11": lambda: run_fig11_datasizes(scale=dataclasses.replace(TINY, size_sweep_mb=(96,))),
    "fig12": lambda: run_fig12_scaling(scale=TINY),
    "fig13": lambda: run_fig13_fields(scale=TINY, size_mb=64),
    "fig16": lambda: run_fig16_scatter_bcast(scale=dataclasses.replace(TINY, size_sweep_mb=(96,))),
    "topo": lambda: run_topology_scaling(scale=TINY, sizes_mb=[0.03, 28], ranks_per_node=3),
    "fabric": lambda: run_fabric_contention(scale=TINY, sizes_mb=[28], ranks_per_node=3),
}


@functools.cache
def tiny_result(name):
    """One shared run of ``_TINY_RUNS[name]``; callers must not mutate it."""
    return _TINY_RUNS[name]()


class TestRegistry:
    def test_all_paper_items_registered(self):
        names = list_experiments()
        for expected in (
            "table1",
            "table2",
            "table3",
            "table6",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14_15",
            "fig16",
            "fig17",
            "fig18",
            "theory",
            "topo",
            "fabric",
            "multitenant",
        ):
            assert expected in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_scales(self):
        assert resolve_scale("small") is SCALES["small"]
        assert resolve_scale(TINY) is TINY
        with pytest.raises(ValueError):
            resolve_scale("huge")

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_unknown_scale_rejected_before_any_simulation(self, name, monkeypatch):
        def simulated(self):
            raise AssertionError(f"{name} simulated before checking its scale")

        monkeypatch.setattr(Engine, "run", simulated)
        with pytest.raises(ValueError, match="scale"):
            run_experiment(name, scale="huge")

    def test_a_scale_instance_selects_the_paper_job_mix(self):
        specs, nodes = _job_mix(SCALES["paper"])
        assert nodes == 16
        assert {spec.iterations for spec in specs} == {16}

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out


class TestCompressorTables:
    @pytest.fixture(scope="class")
    def rows(self):
        return characterise(TINY, n_files=2)

    def test_row_structure(self, rows):
        assert len(rows) == 3 * 9  # 3 datasets x (3+3+3 codec settings)
        for row in rows:
            assert row["ratio_avg"] >= row["ratio_min"] - 1e-12
            assert row["ratio_max"] >= row["ratio_avg"] - 1e-12

    def test_table1_result(self, rows):
        result = run_table1(rows=rows)
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == len(rows)
        # SZx is modelled faster than ZFP(ABS) for the same dataset and error
        # bound, as in Table I
        szx = {
            (r["dataset"], r["setting"]): r["model_compress_MBps"]
            for r in result.rows
            if r["codec"] == "szx"
        }
        zfp = {
            (r["dataset"], r["setting"]): r["model_compress_MBps"]
            for r in result.rows
            if r["codec"] == "zfp_abs"
        }
        assert set(szx) == set(zfp)
        for key in szx:
            assert szx[key] > zfp[key]

    def test_table2_ratio_trends(self, rows):
        result = run_table2(rows=rows)
        szx_rtm = {
            r["setting"]: r["ratio_avg"]
            for r in result.rows
            if r["codec"] == "szx" and r["dataset"] == "rtm"
        }
        # looser bounds compress better (Table II trend)
        assert szx_rtm["ABS 1e-02"] > szx_rtm["ABS 1e-03"] > szx_rtm["ABS 1e-04"]
        # fixed-rate ratios are exactly 8 / 4 / 2
        fxr = {
            r["setting"]: r["ratio_avg"]
            for r in result.rows
            if r["codec"] == "zfp_fxr" and r["dataset"] == "rtm"
        }
        assert fxr["FXR 4"] == pytest.approx(8.0, rel=0.05)
        assert fxr["FXR 8"] == pytest.approx(4.0, rel=0.05)
        assert fxr["FXR 16"] == pytest.approx(2.0, rel=0.05)

    def test_table3_psnr_trends(self, rows):
        result = run_table3(rows=rows)
        szx_rtm = {
            r["setting"]: r["psnr_avg"]
            for r in result.rows
            if r["codec"] == "szx" and r["dataset"] == "rtm"
        }
        assert szx_rtm["ABS 1e-04"] > szx_rtm["ABS 1e-03"] > szx_rtm["ABS 1e-02"]

    def test_table6(self):
        result = run_experiment("table6", scale=TINY)
        assert len(result.rows) == 4
        assert all(row["ratio_avg"] > 2 for row in result.rows)


class TestStepwiseFigures:
    def test_sweep_rows(self):
        rows = _stepwise_rows()
        assert len(rows) == 2 * 4
        assert {row["variant"] for row in rows} == {"AD", "DI", "ND", "Overlap"}

    def test_fig7(self):
        result = tiny_result("fig7")
        variants = {row["variant"] for row in result.rows}
        assert variants == {"AD", "DI"}
        di_rows = [r for r in result.rows if r["variant"] == "DI"]
        assert all(r["ComDecom"] > 0 for r in di_rows)

    def test_fig9_reduction(self):
        result = tiny_result("fig9")
        assert all(row["reduction_pct"] > 50 for row in result.rows)

    def test_fig10_speedup(self):
        result = tiny_result("fig10")
        overlap = [r for r in result.rows if r["variant"] == "Overlap"]
        assert all(r["normalized_to_AD"] < 0.8 for r in overlap)
        ad = [r for r in result.rows if r["variant"] == "AD"]
        assert all(r["normalized_to_AD"] == pytest.approx(1.0) for r in ad)


class TestComparisonFigures:
    def test_fig11_structure_and_winner(self):
        result = tiny_result("fig11")
        impls = {row["implementation"] for row in result.rows}
        assert impls == {"Allreduce", "ZFP(FXR)", "ZFP(ABS)", "SZx", "C-Allreduce"}
        ccoll = [r for r in result.rows if r["implementation"] == "C-Allreduce"]
        assert all(r["normalized"] < 0.75 for r in ccoll)
        cpr = [r for r in result.rows if r["implementation"] in ("SZx", "ZFP(ABS)", "ZFP(FXR)")]
        assert all(r["normalized"] > 0.9 for r in cpr)

    def test_fig13_fields(self):
        result = tiny_result("fig13")
        ccoll = [r for r in result.rows if r["implementation"] == "C-Allreduce"]
        assert len(ccoll) == 4
        assert all(r["speedup_vs_allreduce"] > 1.2 for r in ccoll)

    def test_fig14_15(self):
        result = run_experiment("fig14_15", scale=TINY)
        assert all(row["within_chain_bound"] for row in result.rows)
        rel_rows = [r for r in result.rows if "rel" in r["bound_mode"]]
        assert all(45 < r["psnr_db"] < 75 for r in rel_rows)

    def test_fig16(self):
        result = tiny_result("fig16")
        c_rows = [
            r
            for r in result.rows
            if r["implementation"] in ("C-Bcast", "C-Scatter")
        ]
        assert all(r["speedup_vs_baseline"] > 1.2 for r in c_rows)
        cpr_rows = [r for r in result.rows if r["implementation"] == "SZx (CPR-P2P)"]
        assert all(r["speedup_vs_baseline"] < 1.0 for r in cpr_rows)


class TestStackingFigures:
    @pytest.fixture(scope="class")
    def rows(self):
        return stacking_sweep(TINY, virtual_mb=48, image_shape=(48, 48))

    def test_fig17_speedups(self, rows):
        result = run_fig17_stacking_perf(rows=rows)
        ccoll = {r["setting"]: r["speedup_vs_allreduce"] for r in result.rows if r["method"] == "c-allreduce"}
        # looser bounds compress better and therefore speed up more (Figure 17's
        # trend); the loosest bound must clearly beat the original Allreduce.
        assert ccoll["ABS 1e-02"] > 1.15
        assert ccoll["ABS 1e-02"] >= ccoll["ABS 1e-03"] >= ccoll["ABS 1e-04"]
        assert ccoll["ABS 1e-04"] > 0.9
        cpr = [r for r in result.rows if r["method"].startswith("cpr-")]
        assert all(r["speedup_vs_allreduce"] < 1.05 for r in cpr)
        # every CPR-P2P baseline is slower than the C-Allreduce at the same setting
        for row in result.rows:
            if row["method"] == "cpr-szx":
                assert ccoll[row["setting"]] > row["speedup_vs_allreduce"]

    def test_fig18_quality(self, rows):
        result = run_fig18_stacking_quality(rows=rows)
        by_setting = {
            (r["method"], r["setting"]): r for r in result.rows
        }
        tight = by_setting[("c-allreduce", "ABS 1e-04")]["psnr_db"]
        loose = by_setting[("c-allreduce", "ABS 1e-02")]["psnr_db"]
        assert tight > loose + 25
        # the rate-4 fixed-rate baseline is far worse than C-Allreduce at 1e-3
        fxr4 = by_setting[("cpr-zfp-fxr", "FXR 4")]["psnr_db"]
        assert by_setting[("c-allreduce", "ABS 1e-03")]["psnr_db"] > fxr4 + 10


class TestTopologyScaling:
    def test_topo_structure_and_selection(self):
        result = tiny_result("topo")
        topologies = {row["topology"] for row in result.rows}
        assert topologies == {"flat", "two_level", "shared_uplink"}
        # exactly one algorithm is marked selected per (topology, size) cell
        for topo in topologies:
            for size in (0.03, 28):
                selected = [
                    r["algorithm"]
                    for r in result.rows
                    if r["topology"] == topo and r["size_mb"] == size and r["selected"]
                ]
                assert len(selected) == 1
        # the small message is latency-bound everywhere
        small_selected = {
            r["algorithm"] for r in result.rows if r["size_mb"] == 0.03 and r["selected"]
        }
        assert small_selected == {"recursive_doubling"}
        # the compressed topology-aware variant rides along on both two-level rows
        assert any(r["algorithm"] == "c_allreduce_topo" for r in result.rows)


class TestFabricContention:
    def test_fabric_structure_and_gate_flip(self):
        result = tiny_result("fabric")
        fabrics = {row["fabric"] for row in result.rows}
        assert fabrics == set(FABRIC_NAMES)
        # every fabric row carries an effective bandwidth and exactly one pick
        for fabric in fabrics:
            rows = [r for r in result.rows if r["fabric"] == fabric]
            assert all(r["effective_gbps"] is not None for r in rows)
            assert sum(1 for r in rows if r["selected"]) == 1
        # the headline: the compression gate flips with the 2:1 taper at
        # identical per-node NIC bandwidth
        decisions = {
            row["fabric"]: row["inter_compressed"]
            for row in result.rows
            if row["algorithm"] == "c_allreduce_topo"
        }
        assert decisions["shared_uplink"] is False
        assert decisions["fat_tree"] is False
        assert decisions["fat_tree_2to1"] is True
        assert decisions["dragonfly_2to1"] is True


class TestMultitenant:
    def test_reports_slowdown_latency_and_utilization(self):
        result = run_experiment("multitenant", scale="small")
        assert len(result.rows) == 6
        for row in result.rows:
            assert row["slowdown"] is not None and row["slowdown"] >= 1.0 - 1e-9
            assert row["makespan_ms"] > 0.0
            assert row["wait_ms"] >= 0.0
        notes = "\n".join(result.notes)
        assert "mean slowdown" in notes
        assert "p50" in notes and "p99" in notes
        assert "utilization" in notes


#: the seeded network experiments, at the settings their own tests use
_SEEDED_RUNS = {
    "topo": _TINY_RUNS["topo"],
    "fabric": _TINY_RUNS["fabric"],
    "multitenant": lambda: run_experiment("multitenant", scale=TINY),
}


@pytest.mark.parametrize("name", sorted(_SEEDED_RUNS))
def test_a_seeded_experiment_replays_exactly_under_the_audit(name):
    # run twice, each under one fabric audit: the rows' canonical JSON must
    # match bit for bit and no run may break capacity or fair share
    rows, violations = [], []
    for _ in range(2):
        with audit_fabric() as found:
            result = _SEEDED_RUNS[name]()
        rows.append(json.dumps(result.rows, sort_keys=True, default=repr))
        violations.extend(found)
    assert rows[0] == rows[1]
    assert violations == []


PIN_PATH = Path(__file__).parent / "tiny_tables_pin.json"


def _pinned_lines(result):
    """``to_text()``, then every printed cell at full precision, one row a line."""
    exact = [json.dumps([row.get(c) for c in result.columns], default=repr) for row in result.rows]
    return result.to_text().splitlines() + exact


@pytest.mark.parametrize("name", list(_TINY_RUNS))
def test_a_tiny_table_matches_its_pin(name):
    pinned = json.loads(PIN_PATH.read_text())[name]
    observed = _pinned_lines(tiny_result(name))
    diff = difflib.unified_diff(pinned, observed, "pinned", "observed", lineterm="")
    assert observed == pinned, "\n".join(diff)


def test_the_pin_sees_one_ulp():
    moved = copy.deepcopy(tiny_result("fig12"))
    row = moved.rows[-1]
    row["total_time_s"] = math.nextafter(row["total_time_s"], math.inf)
    assert _pinned_lines(moved) != _pinned_lines(tiny_result("fig12"))


class TestTheoryAndDistribution:
    def test_theory_bounds_all_hold(self):
        result = run_experiment("theory", scale=TINY, trials=20_000)
        assert all(row["holds"] for row in result.rows)

    def test_fig5_structure(self):
        result = run_experiment("fig5", scale=TINY)
        assert len(result.rows) == 2 * 3 * 2  # codecs x datasets x generations
        assert all(0.0 <= row["within_3sigma"] <= 1.0 for row in result.rows)


if __name__ == "__main__":
    pin = {name: _pinned_lines(run()) for name, run in _TINY_RUNS.items()}
    PIN_PATH.write_text(json.dumps(pin, indent=1) + "\n")
