"""Fuzzer extension knob: fault-mix scenarios."""

import pytest

from repro.fuzzer.autopilot import _REDUCTIONS
from repro.fuzzer.executor import execute
from repro.fuzzer.generator import (
    FAULT_MIXES,
    generate_scenario,
    sanitize,
)


def _base(seed=0, **overrides):
    scenario = generate_scenario(seed)
    return scenario.replace(**overrides) if overrides else scenario


class TestSanitizeExtensions:
    def test_unknown_values_fold_to_none(self):
        scenario = sanitize(_base(fault_mix="meteor_strike"))
        assert scenario.fault_mix == "none"

    def test_fault_mix_folds_preset_onto_a_fabric(self):
        scenario = sanitize(
            _base(preset="flat", fault_mix="degraded_tier")
        )
        assert scenario.preset in ("fat_tree", "dragonfly", "rail_fat_tree")

    def test_rail_outage_forces_multirail(self):
        scenario = sanitize(
            _base(preset="fat_tree", nics_per_node=1, fault_mix="rail_outage")
        )
        assert scenario.nics_per_node >= 2

    def test_sanitize_idempotent_on_extension_scenarios(self):
        for seed in range(40):
            scenario = generate_scenario(seed)
            assert sanitize(scenario) == scenario


class TestGeneratorDrawsExtensions:
    def test_fault_mixes_eventually_drawn_and_mostly_none(self):
        faults = [generate_scenario(seed).fault_mix for seed in range(400)]
        assert set(faults) - {"none"}, "fault mixes never drawn"
        assert faults.count("none") > len(faults) * 0.7
        assert set(faults) <= set(FAULT_MIXES)

    def test_trailing_knobs_keep_other_draws_stable(self):
        # the extension fields are drawn last: every other field of a seed's
        # scenario must be independent of them (regression for seed churn)
        scenario = generate_scenario(11)
        core = {
            k: v
            for k, v in scenario.to_dict().items()
            if k != "fault_mix"
        }
        assert core["seed"] == 11
        assert core["n_ranks"] >= 2

    def test_a_deleted_knob_still_consumes_its_draw(self):
        # the harness-experiment knob drew between program_len and fault_mix;
        # its draw is still consumed, so these seeds keep the faulted
        # workloads (and recovery knobs) they have always expanded to
        pinned = {
            4_000_019: ("domain_outage", "restart_elsewhere", 4),
            11_000_040: ("node_loss", "restart_elsewhere", 0),
            16_000_055: ("domain_outage", "restart_elsewhere", 1),
            19_000_064: ("node_loss", "restart_elsewhere", 4),
            42_000_133: ("rail_outage", "fail", 0),
        }
        for seed, knobs in pinned.items():
            s = generate_scenario(seed)
            assert (s.fault_mix, s.failure_policy, s.checkpoint_every) == knobs, seed


class TestShrinkerKnowsExtensions:
    def test_reductions_drop_extensions_first(self):
        fields = [name for name, _ in _REDUCTIONS]
        # the recovery knobs first, then the fault extension, all ahead of
        # every core dimension
        assert fields[:4] == [
            "domain_outage", "failure_policy", "checkpoint_every", "fault_mix",
        ]
        assert ("fault_mix", ("none",)) in _REDUCTIONS


class TestExecuteExtensions:
    def test_faulted_workload_scenario_executes_clean(self):
        scenario = sanitize(
            _base(
                preset="fat_tree",
                ranks_per_node=2,
                nics_per_node=2,
                placement="block",
                contention="fair",
                routing="minimal",
                fault_mix="stragglers",
            )
        )
        record = execute(scenario)
        assert record["status"] == "ok", record.get("violations")
        assert record["fault_mix"] == "stragglers"
        assert record["fault_events"] >= 1
