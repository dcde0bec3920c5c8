"""Benchmark: every table and figure of the paper, through ``repro.harness``.

Each registered paper experiment runs once at the ``small`` scale and its
headline qualitative result is checked — the table below holds one check per
experiment name.  Run one with ``pytest benchmarks/bench_paper_experiments.py
-k fig11 --benchmark-only -s`` to see its table.
"""

import pytest

from repro.harness import EXPERIMENTS, run_experiment


def _table1(rows):
    assert len(rows) == 27
    szx = {(r["dataset"], r["setting"]): r["model_compress_MBps"] for r in rows if r["codec"] == "szx"}
    zfp = {(r["dataset"], r["setting"]): r["model_compress_MBps"] for r in rows if r["codec"] == "zfp_abs"}
    assert all(szx[k] > zfp[k] for k in szx)


def _table2(rows):
    szx_rtm = {r["setting"]: r["ratio_avg"] for r in rows if r["codec"] == "szx" and r["dataset"] == "rtm"}
    assert szx_rtm["ABS 1e-02"] > szx_rtm["ABS 1e-03"] > szx_rtm["ABS 1e-04"]


def _table3(rows):
    szx_rtm = {r["setting"]: r["psnr_avg"] for r in rows if r["codec"] == "szx" and r["dataset"] == "rtm"}
    assert szx_rtm["ABS 1e-04"] > szx_rtm["ABS 1e-03"] > szx_rtm["ABS 1e-02"]


def _table6(rows):
    assert len(rows) == 4
    assert all(r["ratio_avg"] > 2 for r in rows)


def _fig5(rows):
    assert all(r["within_3sigma"] >= 0.9 for r in rows)


def _fig7(rows):
    # compression dominates the DI variant's breakdown
    labels = ("size_mb", "variant", "total_time_s")
    di = [r for r in rows if r["variant"] == "DI"]
    assert all(r["ComDecom"] == max(v for k, v in r.items() if k not in labels) for r in di)


def _fig8(rows):
    di = {r["size_mb"]: r for r in rows if r["variant"] == "DI"}
    nd = {r["size_mb"]: r for r in rows if r["variant"] == "ND"}
    assert all(nd[s]["ComDecom"] < di[s]["ComDecom"] for s in nd)


def _fig9(rows):
    assert all(r["reduction_pct"] > 60 for r in rows)  # 73-80% in the paper


def _fig10(rows):
    assert all(r["normalized_to_AD"] < 0.7 for r in rows if r["variant"] == "Overlap")


def _fig11(rows):
    assert all(r["normalized"] < 0.75 for r in rows if r["implementation"] == "C-Allreduce")
    cpr = [r for r in rows if r["implementation"] in ("SZx", "ZFP(ABS)", "ZFP(FXR)")]
    assert all(r["normalized"] > 0.95 for r in cpr)


def _fig12(rows):
    ccoll = [r for r in rows if r["implementation"] == "C-Allreduce" and r["n_ranks"] >= 4]
    assert all(r["normalized"] < 0.8 for r in ccoll)


def _fig13(rows):
    ccoll = [r for r in rows if r["implementation"] == "C-Allreduce"]
    assert all(r["speedup_vs_allreduce"] > 1.2 for r in ccoll)


def _fig14_15(rows):
    assert all(r["within_chain_bound"] for r in rows)


def _fig16(rows):
    c_rows = [r for r in rows if r["implementation"] in ("C-Bcast", "C-Scatter")]
    assert all(r["speedup_vs_baseline"] > 1.3 for r in c_rows)


def _fig17(rows):
    ccoll = {r["setting"]: r["speedup_vs_allreduce"] for r in rows if r["method"] == "c-allreduce"}
    assert ccoll["ABS 1e-02"] > 1.15


def _fig18(rows):
    by = {(r["method"], r["setting"]): r["psnr_db"] for r in rows}
    assert by[("c-allreduce", "ABS 1e-04")] > by[("c-allreduce", "ABS 1e-02")]
    assert by[("c-allreduce", "ABS 1e-03")] > by[("cpr-zfp-fxr", "FXR 4")]


def _theory(rows):
    assert all(r["holds"] for r in rows)


#: harness registry name -> headline check on the experiment's rows
HEADLINES = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table6": _table6,
    "fig5": _fig5,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14_15": _fig14_15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "theory": _theory,
}


@pytest.mark.parametrize("name", HEADLINES)
def test_paper_experiment(run_experiment_once, name):
    result = run_experiment_once(run_experiment, name, scale="small")
    HEADLINES[name](result.rows)


def test_every_paper_experiment_has_a_headline():
    paper = {name for name, (_, text) in EXPERIMENTS.items() if "(beyond the paper)" not in text}
    assert paper == set(HEADLINES)
