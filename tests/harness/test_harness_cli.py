"""``python -m repro.harness`` argument handling: names are checked before anything runs."""

import pytest

from repro.harness.reporting import ExperimentResult
from repro.harness.runner import EXPERIMENTS, main, run_experiment
from repro.mpisim import SharedLink


def _double_booked(scale="small", **kwargs):
    """Reserves one stage twice over the same second: a capacity violation."""
    link = SharedLink(capacity=1.0)
    for _ in range(2):
        link.busy_until = float("-inf")  # forget the booking already made
        link.reserve(0.0, 1.0)
    return ExperimentResult(experiment="fig12", title="double-booked", rows=[{"x": 1}])


@pytest.fixture
def ran(monkeypatch):
    """Replace ``fig11`` and ``faults`` by a clean stub that records each run
    (it books one stage twice, serially), and ``fig12`` by ``_double_booked``."""
    calls = []

    def stub(scale="small", **kwargs):
        calls.append(scale)
        link = SharedLink(capacity=1.0)
        link.reserve(0.0, 1.0)
        link.reserve(0.0, 1.0)
        return ExperimentResult(experiment="stub", title="stub", rows=[{"x": 1}])

    monkeypatch.setitem(EXPERIMENTS, "fig11", (stub, "stub"))
    monkeypatch.setitem(EXPERIMENTS, "faults", (stub, "stub"))
    monkeypatch.setitem(EXPERIMENTS, "fig12", (_double_booked, "stub"))
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


def test_check_invariants_fails_an_experiment_that_double_books_a_stage(ran, capsys):
    assert main(["fig12", "--check-invariants"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("INVARIANT VIOLATIONS in fig12 (1):\n  [capacity] stage capacity=1 ")


def test_without_the_flag_nothing_is_audited(ran, capsys):
    assert main(["fig12"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "invariants" not in captured.out


def test_check_invariants_audits_every_experiment_not_just_recovery(ran, capsys):
    assert main(["faults", "--check-invariants"]) == 0
    captured = capsys.readouterr()
    assert "invariants ok in faults: " in captured.out and captured.err == ""
    assert ran == ["small"]


def test_each_experiment_gets_its_own_audit_and_all_of_them_run(ran, capsys):
    assert main(["fig12", "faults", "fig11", "--check-invariants"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("INVARIANT VIOLATIONS") == 1
    assert "in fig12 (1)" in captured.err
    assert "invariants ok in faults: " in captured.out
    assert "invariants ok in fig11: " in captured.out
    assert ran == ["small", "small"]
