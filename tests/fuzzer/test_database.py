"""Results database round-trips and end-to-end replay fidelity."""

from __future__ import annotations

import json

import pytest

from repro.fuzzer import __main__ as fuzzer_cli
from repro.fuzzer.database import ResultsDatabase
from repro.fuzzer.executor import execute, run_id_for
from repro.fuzzer.generator import Scenario, generate_scenario
from repro.fuzzer.__main__ import main as fuzzer_main

#: a harness-experiment record, as written before that scenario kind was
#: deleted: its scenario now rebuilds as a collective with another run id
_HARNESS_RECORD = {
    "harness_experiment": "multitenant", "harness_rows": 6, "run_id": "fz-4f831f1844fb",
    "scenario": {
        "algorithm": "auto", "checkpoint_every": 0, "codec": "zfp_abs", "compression": "on",
        "contention": "reservation", "data_profile": "gaussian", "domain_outage": False,
        "dtype": "float32", "error_bound": 0.01, "failure_policy": "fail", "fault_mix": "none",
        "harness_experiment": "multitenant", "msg_elems": 5121, "n_ranks": 6,
        "nics_per_node": 1, "op": "allgather", "placement": "block", "preset": "flat",
        "program_len": 3, "ranks_per_node": 1, "routing": "minimal", "seed": 61000190,
    },
    "status": "ok", "violations": [],
}


class TestDatabase:
    def test_append_and_get_latest_wins(self, tmp_path):
        db = ResultsDatabase(tmp_path / "db.jsonl")
        db.append({"run_id": "fz-a", "status": "violation"})
        db.append({"run_id": "fz-b", "status": "ok"})
        db.append({"run_id": "fz-a", "status": "ok"})
        assert db.get("fz-a") == {"run_id": "fz-a", "status": "ok"}
        assert db.get("fz-missing") is None
        assert len(db.records()) == 3
        assert db.summary() == {"ok": 2, "total": 2}

    def test_records_are_plain_jsonl(self, tmp_path):
        path = tmp_path / "db.jsonl"
        ResultsDatabase(path).append({"run_id": "fz-x", "status": "ok"})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["run_id"] == "fz-x"

    def test_append_requires_run_id(self, tmp_path):
        with pytest.raises(ValueError, match="run_id"):
            ResultsDatabase(tmp_path / "db.jsonl").append({"status": "ok"})

    def test_missing_file_reads_empty(self, tmp_path):
        db = ResultsDatabase(tmp_path / "never_written.jsonl")
        assert db.records() == []
        assert db.summary() == {"total": 0}


class TestReplayFidelity:
    def test_run_ids_depend_only_on_the_scenario(self):
        scenario = generate_scenario(7)
        assert run_id_for(scenario) == run_id_for(Scenario.from_dict(scenario.to_dict()))
        assert run_id_for(scenario) != run_id_for(scenario.replace(msg_elems=max(
            1, scenario.msg_elems + 1
        )))

    def test_recorded_run_replays_bit_for_bit(self):
        scenario = generate_scenario(7)
        first = execute(scenario)
        again = execute(Scenario.from_dict(first["scenario"]))
        assert again["run_id"] == first["run_id"]
        assert again["makespan"] == first["makespan"]
        assert again["bytes_sent"] == first["bytes_sent"]
        assert again["value_digest"] == first["value_digest"]
        assert again["status"] == first["status"]

    def test_cli_replay_round_trip(self, tmp_path, capsys):
        db = str(tmp_path / "db.jsonl")
        assert fuzzer_main(["run", "--time-budget", "30", "--max-runs", "2",
                            "--seed", "7", "--db", db]) == 0
        run_id = json.loads((tmp_path / "db.jsonl").read_text().splitlines()[0])["run_id"]
        capsys.readouterr()
        assert fuzzer_main(["replay", run_id, "--db", db]) == 0
        assert "bit-for-bit identical" in capsys.readouterr().out

    def test_cli_replay_unknown_id_fails(self, tmp_path):
        db = str(tmp_path / "db.jsonl")
        ResultsDatabase(db).append({"run_id": "fz-real", "status": "ok"})
        assert fuzzer_main(["replay", "fz-nope", "--db", db]) == 2

    def test_cli_replay_refuses_a_record_it_cannot_rebuild(self, tmp_path, capsys, monkeypatch):
        db = str(tmp_path / "db.jsonl")
        ResultsDatabase(db).append(_HARNESS_RECORD)

        def never(scenario):
            raise AssertionError("replay ran a scenario the record does not name")

        monkeypatch.setattr(fuzzer_cli, "execute", never)
        assert fuzzer_main(["replay", "fz-4f831f1844fb", "--db", db]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        rebuilt = run_id_for(Scenario.from_dict(_HARNESS_RECORD["scenario"]))
        assert err == (
            f"run id 'fz-4f831f1844fb': its recorded scenario rebuilds as {rebuilt!r} "
            "in this version; refusing to replay\n"
        )
