"""``python -m repro.harness`` argument handling: names are checked before anything runs."""

import pytest

from repro.harness.reporting import ExperimentResult
from repro.harness.runner import EXPERIMENTS, main, run_experiment


@pytest.fixture
def ran(monkeypatch):
    """Replace ``fig11`` by a stub that records each run."""
    calls = []

    def stub(scale="small", **kwargs):
        calls.append(scale)
        return ExperimentResult(experiment="fig11", title="stub", rows=[{"x": 1}])

    monkeypatch.setitem(EXPERIMENTS, "fig11", (stub, "stub"))
    return calls


@pytest.mark.parametrize("argv", [["nope"], ["fig11", "nope"], ["nope", "fig11"]])
def test_unknown_name_exits_2_before_any_experiment_runs(argv, ran, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("unknown experiment 'nope'; available: table1, ")
    assert captured.out == ""
    assert ran == []


def test_known_names_still_run_in_order(ran, capsys):
    assert main(["fig11", "FIG11", "--scale", "paper"]) == 0
    assert ran == ["paper", "paper"]
    assert capsys.readouterr().err == ""


def test_library_call_keeps_raising_key_error():
    with pytest.raises(KeyError, match="unknown experiment 'nope'; available: table1, "):
        run_experiment("nope")
