"""``python -m repro.workload`` CLI: run, replay, traces, invariant gating."""

import json

import pytest

from repro.workload.__main__ import main


def _base_flags():
    return ["--nodes", "8", "--seed", "7", "--jobs", "4", "--no-baseline"]


class TestRun:
    def test_run_prints_report_and_exits_zero(self, capsys):
        assert main(["run", *_base_flags()]) == 0
        out = capsys.readouterr().out
        assert "workload: 4 jobs" in out
        assert "makespan" in out

    def test_run_json_output(self, capsys):
        assert main(["run", *_base_flags(), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_jobs"] == 4
        assert data["makespan"] > 0.0
        assert len(data["jobs"]) == 4

    def test_run_with_baseline_reports_slowdowns(self, capsys):
        assert main(["run", "--nodes", "8", "--seed", "7", "--jobs", "3",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(job["slowdown"] is not None for job in data["jobs"])

    def test_check_invariants_clean_run(self, capsys):
        assert main(["run", *_base_flags(), "--check-invariants"]) == 0
        captured = capsys.readouterr()
        assert "invariants ok" in captured.err and "invariants" not in captured.out

    def test_check_invariants_keeps_json_stdout_parseable(self, capsys):
        flags = ["--jobs", "2", "--nodes", "8", "--seed", "7", "--no-baseline"]
        assert main(["run", *flags, "--json", "--check-invariants"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n_jobs"] == 2
        assert captured.err.startswith("invariants ok: ")

    def test_a_mix_that_cannot_compile_is_refused_before_the_run(self, capsys):
        """``di`` is no reduce_scatter variant: refused when the mix is drawn."""
        flags = ["--ops", "reduce_scatter", "--compressions", "di"]
        assert main(["run", *_base_flags(), *flags]) == 2
        captured = capsys.readouterr()
        assert "invalid job mix: " in captured.err
        assert "'di' is not available for reduce_scatter" in captured.err
        assert "workload:" not in captured.out

    def test_a_negative_checkpoint_interval_is_refused_before_the_run(self, tmp_path, capsys):
        trace = tmp_path / "mix.jsonl"
        flags = ["--checkpoint-every", "-1", "--save-trace", str(trace)]
        assert main(["run", *_base_flags(), *flags]) == 2
        captured = capsys.readouterr()
        assert "invalid --checkpoint-every: -1" in captured.err
        assert captured.out == "" and not trace.exists()


class TestReplay:
    def test_trace_round_trips_through_replay_deterministically(self, tmp_path, capsys):
        trace = str(tmp_path / "mix.jsonl")
        assert main(["run", *_base_flags(), "--save-trace", trace, "--json"]) == 0
        run_out = capsys.readouterr().out
        generated = json.loads(run_out[run_out.index("{"):])

        replay_flags = ["--nodes", "8", "--seed", "7", "--no-baseline"]
        outputs = []
        for _ in range(2):
            assert main(["replay", trace, *replay_flags, "--json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]  # same trace twice => identical report
        assert outputs[0]["makespan"] == generated["makespan"]

    def test_empty_trace_is_an_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["replay", str(trace), "--nodes", "8"]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_malformed_trace_is_reported_with_its_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"job_id": "a", "n_ranks": 2}\n{"job_id": "b"}\n')
        assert main(["replay", str(trace), "--nodes", "8"]) == 2
        assert f"malformed trace: {trace}:2: " in capsys.readouterr().err

    def test_a_negative_checkpoint_interval_is_refused_before_the_replay(self, tmp_path, capsys):
        trace = tmp_path / "one.jsonl"
        trace.write_text('{"job_id": "a", "n_ranks": 2}\n')
        assert main(["replay", str(trace), "--nodes", "8", "--checkpoint-every", "-1"]) == 2
        captured = capsys.readouterr()
        assert "invalid --checkpoint-every: -1" in captured.err
        assert captured.out == ""


class TestFlags:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_policy_and_preset_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "diagonal"])
        with pytest.raises(SystemExit):
            main(["run", "--preset", "mobius"])
