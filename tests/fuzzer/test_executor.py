"""Executor invariants: they pass on healthy runs and catch broken ones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccoll import CCollConfig
from repro.compression import SZxCompressor
from repro.fuzzer.executor import build_communicator, execute, make_inputs
from repro.fuzzer.generator import Scenario, generate_scenario, sanitize
from repro.mpisim.audit import trace_fair_allocations
from repro.mpisim.fairshare import FairShareRegistry
from repro.mpisim.topology import SharedLink


def _scenario(**overrides) -> Scenario:
    fields = dict(
        seed=11,
        preset="shared_uplink",
        n_ranks=6,
        ranks_per_node=3,
        placement="block",
        nics_per_node=1,
        routing="minimal",
        contention="reservation",
        op="allreduce",
        algorithm="auto",
        compression="off",
        codec="szx",
        error_bound=1e-3,
        msg_elems=128,
        dtype="float64",
        data_profile="gaussian",
    )
    fields.update(overrides)
    return sanitize(Scenario(**fields))


class TestHealthyRuns:
    @pytest.mark.parametrize("preset", ["flat", "two_level", "shared_uplink", "fat_tree"])
    def test_uncompressed_allreduce_is_clean(self, preset):
        record = execute(_scenario(preset=preset))
        assert record["status"] == "ok", record["violations"]
        assert record["violations"] == []
        assert record["makespan"] > 0.0

    @pytest.mark.parametrize("op", ["allgather", "bcast", "reduce_scatter"])
    def test_other_ops_are_clean(self, op):
        record = execute(_scenario(op=op, compression="on"))
        assert record["status"] == "ok", record["violations"]

    def test_empty_payload_is_clean(self):
        record = execute(_scenario(msg_elems=0, compression="on", codec="pipe_szx"))
        assert record["status"] == "ok", record["violations"]

    @pytest.mark.parametrize("op", ["allreduce", "allgather"])
    def test_fixed_rate_run_is_clean(self, op):
        # no values tolerance and no bound, but the codec audit still runs
        record = execute(_scenario(op=op, compression="on", codec="zfp_fxr"))
        assert record["status"] == "ok", record["violations"]

    def test_fair_contention_run_is_clean(self):
        record = execute(
            _scenario(contention="fair", placement="irregular", msg_elems=4097)
        )
        assert record["status"] == "ok", record["violations"]

    def test_multi_step_program_is_clean_and_sums_makespans(self):
        single = execute(_scenario(program_len=1))
        triple = execute(_scenario(program_len=3))
        assert triple["status"] == "ok", triple["violations"]
        assert triple["makespan"] > single["makespan"]
        assert triple["bytes_sent"] == 3 * single["bytes_sent"]
        # distinct run ids: program_len is part of the scenario identity
        assert triple["run_id"] != single["run_id"]

    def test_multi_step_compressed_fair_program_is_clean(self):
        record = execute(
            _scenario(
                program_len=2, contention="fair", compression="on", msg_elems=4097
            )
        )
        assert record["status"] == "ok", record["violations"]

    def test_crash_becomes_an_error_record(self):
        # an op the executor does not know is the cheapest guaranteed raise
        record = execute(_scenario().replace(op="transmogrify"))
        assert record["status"] == "error"
        assert record["violations"][0]["invariant"] == "no_crash"


class TestInvariantSensitivity:
    """Broken executions must actually trip the invariant checks."""

    def test_values_invariant_catches_a_wrong_sum(self, monkeypatch):
        # every rank of every step is wrong, the same way in both runs: one
        # violation names the first of them
        from repro.fuzzer import executor as executor_module

        real = executor_module.issue_collective

        def corrupted(comm, op, inputs, **options):
            outcome = real(comm, op, inputs, **options)
            outcome.values[:] = [value + 1.0 for value in outcome.values]
            return outcome

        monkeypatch.setattr(executor_module, "issue_collective", corrupted)
        record = execute(_scenario(program_len=2))
        assert record["status"] == "violation"
        assert [v["invariant"] for v in record["violations"]] == ["values"]
        assert record["violations"][0]["detail"].startswith("step 0 rank 0: max error")

    def test_codec_roundtrip_catches_a_lying_encoder(self, monkeypatch):
        # the simulations compute with what ``compressed_nbytes`` fills and never
        # run the decoder; a real codec's two paths agree by construction, so a
        # disagreement has to come from a codec lying about one element by one ulp
        class LyingSZx(SZxCompressor):
            def compressed_nbytes(self, arrays, restoreds):
                sizes = super().compressed_nbytes(arrays, restoreds)
                for restored in restoreds:
                    restored[3] = np.nextafter(restored[3], np.inf)
                return sizes

        monkeypatch.setattr(CCollConfig, "make_codec", lambda self: LyingSZx(self.error_bound))
        record = execute(_scenario(op="allgather", compression="on"))
        assert record["status"] == "violation"
        assert [v["invariant"] for v in record["violations"]] == ["codec_roundtrip"]
        assert "differs from the decode" in record["violations"][0]["detail"]

    @pytest.mark.parametrize("codec", ["szx", "pipe_szx", "zfp_abs", "zfp_fxr"])
    def test_codec_roundtrip_catches_a_lying_length(self, codec, monkeypatch):
        # a message is charged the length ``compressed_nbytes`` counts, not that of
        # a payload: one byte off is a length the network would charge wrongly.
        # ``zfp_fxr`` has no bound to hold, but its length and reconstruction are
        # audited all the same
        make_codec = CCollConfig.make_codec

        def lying_codec(self):
            real = make_codec(self)
            count = real.compressed_nbytes
            real.compressed_nbytes = lambda arrays, restoreds: [
                size + 1 for size in count(arrays, restoreds)
            ]
            return real

        monkeypatch.setattr(CCollConfig, "make_codec", lying_codec)
        record = execute(_scenario(op="allgather", compression="on", codec=codec))
        assert record["status"] == "violation"
        assert [v["invariant"] for v in record["violations"]] == ["codec_roundtrip"]
        assert "bytes of a" in record["violations"][0]["detail"]

    def test_fair_share_hook_catches_an_overcommitted_stage(self):
        # the real registry always re-divides consistently, so a broken
        # allocation has to come from the stage itself lying about its rate
        class OvercommittedLink(SharedLink):
            def allocated_rate(self):
                return self.capacity * 2.0

        registry = FairShareRegistry()
        with trace_fair_allocations() as violations:
            registry.open_flow([OvercommittedLink(capacity=100.0)], 0.0, 1000.0)
        assert any(kind == "overcommit" for kind, _ in violations)

    def test_fair_share_hook_catches_a_starved_bottleneck(self):
        class IdleLink(SharedLink):
            def allocated_rate(self):
                return 0.0

        registry = FairShareRegistry()
        with trace_fair_allocations() as violations:
            registry.open_flow([IdleLink(capacity=100.0)], 0.0, 1000.0)
        kinds = {kind for kind, _ in violations}
        assert "unbottlenecked" in kinds or "unsaturated" in kinds

    def test_fair_share_hook_accepts_legal_allocations(self):
        stage = SharedLink(capacity=100.0)
        registry = FairShareRegistry()
        with trace_fair_allocations() as violations:
            registry.open_flow([stage], 0.0, 1000.0)
            registry.open_flow([stage], 0.0, 500.0)
            while registry.pending_count():
                registry.commit_departure()
        assert violations == []


def _kind_scenario(kind: str) -> Scenario:
    """A cheap scenario of each kind the executor runs."""
    if kind == "collective":
        return _scenario()
    if kind == "harness":
        return _scenario(harness_experiment="multitenant")
    return _scenario(
        preset="fat_tree", ranks_per_node=2, nics_per_node=2, contention="fair",
        fault_mix="stragglers",
    )


def _perturb_collective(outcome):
    value = np.array(outcome.values[0])
    value.flat[0] = np.nextafter(value.flat[0], np.inf)
    outcome.values[0] = value


def _perturb_harness(result):
    row = result.rows[0]
    key = next(key for key, value in row.items() if isinstance(value, float))
    result.rows[0] = {**row, key: float(np.nextafter(row[key], np.inf))}


def _perturb_faulted_workload(report):
    report.records[0].finished = np.nextafter(report.records[0].finished, np.inf)


def _on_second_run(monkeypatch, kind, act):
    """Hook the one call each run of ``kind`` makes (a one-step program, one
    experiment, one workload) and apply ``act`` to the second run's result."""
    from repro.fuzzer import executor as executor_module
    from repro.harness import runner
    from repro.workload import WorkloadEngine

    owner, name = {
        "collective": (executor_module, "issue_collective"),
        "harness": (runner, "run_experiment"),
        "faulted_workload": (WorkloadEngine, "run"),
    }[kind]
    real, calls = getattr(owner, name), []

    def hooked(*args, **kwargs):
        calls.append(name)
        result = real(*args, **kwargs)
        if len(calls) == 2:
            act(result)
        return result

    monkeypatch.setattr(owner, name, hooked)
    return calls


KINDS = ["collective", "harness", "faulted_workload"]


class TestOneRunProtocol:
    """Every kind runs twice through one driver: a second run that lies shows as
    one ``determinism`` violation, and one that raises as one ``no_crash`` error."""

    @pytest.mark.parametrize(
        "kind, perturb, part",
        [
            ("collective", _perturb_collective, "values"),
            ("harness", _perturb_harness, "rows"),
            ("faulted_workload", _perturb_faulted_workload, "jobs"),
        ],
        ids=KINDS,
    )
    def test_a_lying_replay_is_one_determinism_violation(self, kind, perturb, part, monkeypatch):
        # one ulp of one rank's value, of one harness row's value, of one job's
        # finish: only the second run lies, so the values check (first run) stays quiet
        calls = _on_second_run(monkeypatch, kind, perturb)
        record = execute(_kind_scenario(kind))
        assert len(calls) == 2
        assert record["status"] == "violation"
        assert [v["invariant"] for v in record["violations"]] == ["determinism"]
        assert record["violations"][0]["detail"].endswith(f"differs in {part}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_raise_in_the_second_run_is_a_crash(self, kind, monkeypatch):
        def crash(result):
            raise RuntimeError("the second run fell over")

        _on_second_run(monkeypatch, kind, crash)
        record = execute(_kind_scenario(kind))
        assert record["status"] == "error"
        assert record["violations"] == [
            {"invariant": "no_crash", "detail": "RuntimeError: the second run fell over"}
        ]
        assert "makespan" not in record and "harness_rows" not in record

    @pytest.mark.parametrize("fault_mix", ["degraded_tier", "mixed"])
    def test_a_reset_that_keeps_a_fault_is_a_determinism_violation(self, fault_mix, monkeypatch):
        # both runs share one cluster, so the replay starts from what
        # topology.reset() left: a reset that forgets to clear the fault
        # overlay starts the second run on the first run's degraded links
        from repro.mpisim.topology.switch import SwitchFabricTopology

        def reset_keeping_faults(self):
            super(SwitchFabricTopology, self).reset()
            self._stripe_counters.clear()

        scenario = _kind_scenario("faulted_workload").replace(fault_mix=fault_mix)
        assert execute(scenario)["status"] == "ok"
        monkeypatch.setattr(SwitchFabricTopology, "reset", reset_keeping_faults)
        record = execute(scenario)
        assert [v["invariant"] for v in record["violations"]] == ["determinism"]
        assert record["violations"][0]["detail"] == "the second run differs in jobs"


class TestInputs:
    def test_inputs_are_deterministic_and_typed(self):
        scenario = _scenario(dtype="float32", data_profile="mixed_scale", msg_elems=1000)
        first, second = make_inputs(scenario), make_inputs(scenario)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert all(arr.dtype == np.float32 for arr in first)
        assert len(first) == scenario.n_ranks

    def test_step_zero_matches_default_and_steps_differ(self):
        scenario = _scenario(data_profile="gaussian", msg_elems=64)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(make_inputs(scenario), make_inputs(scenario, step=0))
        )
        stepped = make_inputs(scenario, step=1)
        assert not all(
            np.array_equal(a, b) for a, b in zip(make_inputs(scenario), stepped)
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(stepped, make_inputs(scenario, step=1))
        )

    def test_builders_respect_the_scenario_fabric(self):
        comm = build_communicator(_scenario(preset="shared_uplink", contention="fair"))
        assert comm.n_ranks == 6
        assert comm.cluster.topology.contention == "fair"
        assert comm.cluster.config.codec == "szx"
