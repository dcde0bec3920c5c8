"""Autopilot sweeps and shrinker convergence on planted failures."""

from __future__ import annotations

from repro.fuzzer.autopilot import shrink, sweep
from repro.fuzzer.database import ResultsDatabase
from repro.fuzzer.generator import generate_scenario, sanitize


class TestShrinker:
    def test_converges_to_the_planted_minimal_failure(self):
        """A failure that only needs a big payload must shrink everything else."""
        seed_scenario = sanitize(
            generate_scenario(3).replace(
                preset="dragonfly",
                n_ranks=16,
                placement="cyclic",
                contention="fair",
                compression="on",
                codec="zfp_abs",
                msg_elems=5121,
            )
        )

        def planted(scenario) -> bool:
            return scenario.msg_elems >= 1000

        minimal = shrink(seed_scenario, planted)
        # the failure condition is preserved ...
        assert planted(minimal)
        # ... and every unrelated dimension collapsed to its simplest value
        assert minimal.msg_elems == 1000
        assert minimal.preset == "flat"
        assert minimal.compression == "off"
        assert minimal.n_ranks == 2
        assert minimal.contention == "reservation"

    def test_shrinking_is_deterministic(self):
        scenario = generate_scenario(99).replace(msg_elems=5121, n_ranks=16)

        def planted(sc) -> bool:
            return sc.msg_elems > 100 and sc.n_ranks >= 3

        first = shrink(sanitize(scenario), planted)
        second = shrink(sanitize(scenario), planted)
        assert first == second
        assert first.n_ranks == 3
        assert first.msg_elems == 128

    def test_unshrinkable_failure_returns_the_original(self):
        scenario = sanitize(generate_scenario(5))
        assert shrink(scenario, lambda sc: sc == scenario) == scenario

    def test_attempt_cap_bounds_predicate_calls(self):
        calls = []

        def predicate(sc) -> bool:
            calls.append(sc)
            return True  # everything "fails": worst case for the search

        shrink(sanitize(generate_scenario(17)), predicate, max_attempts=25)
        assert len(calls) <= 26


class TestSweep:
    def test_clean_sweep_reports_and_persists(self, tmp_path):
        db = ResultsDatabase(tmp_path / "results.jsonl")
        report = sweep(time_budget=30.0, seed=7, database=db, max_runs=5)
        assert report.runs == 5
        assert report.clean and report.ok == 5
        assert db.summary() == {"ok": 5, "total": 5}

    def test_budget_zero_runs_nothing(self, tmp_path):
        report = sweep(time_budget=0.0, seed=7, max_runs=10)
        assert report.runs == 0 and report.clean

    def test_clock_injection_bounds_the_sweep(self):
        ticks = iter(range(100))
        report = sweep(time_budget=3.0, seed=7, clock=lambda: float(next(ticks)))
        # the injected clock advances one second per check: at most 3 runs fit
        assert 1 <= report.runs <= 3


class TestRecoveryKnobShrinking:
    def test_recovery_knobs_reduce_before_the_fault_mix(self):
        from repro.fuzzer.autopilot import _REDUCTIONS

        names = [name for name, _ in _REDUCTIONS]
        # the newest (cheapest-to-drop) knobs shrink first, so a repro that
        # never needed recovery collapses onto a pre-PR-10 scenario shape
        assert names[:3] == ["domain_outage", "failure_policy", "checkpoint_every"]
        assert names.index("checkpoint_every") < names.index("fault_mix")

    def test_failure_independent_of_recovery_knobs_sheds_them(self):
        seed_scenario = sanitize(
            generate_scenario(11).replace(
                fault_mix="node_loss",
                failure_policy="restart_elsewhere",
                checkpoint_every=4,
                domain_outage=True,
            )
        )
        assert seed_scenario.fault_mix == "domain_outage"

        def planted(scenario) -> bool:
            return scenario.fault_mix in ("node_loss", "domain_outage")

        minimal = shrink(seed_scenario, planted)
        assert planted(minimal)
        assert minimal.domain_outage is False
        assert minimal.failure_policy == "fail"
        assert minimal.checkpoint_every == 0
