"""Generator determinism and validity of the expanded scenario space."""

from __future__ import annotations

import pytest

from repro.fuzzer.generator import (
    MESSAGE_ELEMS,
    PRESETS,
    Scenario,
    generate_scenario,
    placement_list,
    sanitize,
)


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        for seed in (0, 1, 7, 12345, 2**31):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_scenarios_round_trip_through_dicts(self):
        for seed in range(50):
            scenario = generate_scenario(seed)
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_matrix_is_deterministic_and_seed_disjoint(self):
        assert [generate_scenario(7 * 1_000_003 + i) for i in range(20)] == [
            generate_scenario(7 * 1_000_003 + i) for i in range(20)
        ]
        # different base seeds never collide on early indices
        a = {generate_scenario(1 * 1_000_003 + i).seed for i in range(50)}
        b = {generate_scenario(2 * 1_000_003 + i).seed for i in range(50)}
        assert not (a & b)


class TestCoverage:
    def test_sweep_reaches_every_preset_and_edge_sizes(self):
        scenarios = [generate_scenario(i) for i in range(400)]
        presets = {s.preset for s in scenarios}
        assert presets == set(PRESETS)
        sizes = {s.msg_elems for s in scenarios}
        assert 0 in sizes and 1 in sizes  # degenerate payloads stay in the mix
        assert any(s % 2 == 1 and s > 1 for s in sizes)  # non-powers of two
        assert {s.placement for s in scenarios} >= {"block", "cyclic", "irregular"}
        assert {s.contention for s in scenarios} == {"reservation", "fair"}
        assert {s.program_len for s in scenarios} == {1, 2, 3, 4}

    def test_sanitize_is_idempotent(self):
        for seed in range(200):
            scenario = generate_scenario(seed)
            assert sanitize(scenario) == scenario


class TestSanitizeRules:
    def _base(self, **overrides) -> Scenario:
        fields = dict(
            seed=0,
            preset="shared_uplink",
            n_ranks=8,
            ranks_per_node=4,
            placement="cyclic",
            nics_per_node=2,
            routing="adaptive",
            contention="fair",
            op="allreduce",
            algorithm="ring",
            compression="on",
            codec="szx",
            error_bound=1e-3,
            msg_elems=128,
            dtype="float64",
            data_profile="gaussian",
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_flat_pins_trivial_fabric_dimensions(self):
        fixed = sanitize(self._base(preset="flat"))
        assert fixed.ranks_per_node == 1
        assert fixed.placement == "block"
        assert fixed.contention == "reservation"
        assert fixed.nics_per_node == 1

    def test_compressed_runs_pin_auto_algorithm(self):
        assert sanitize(self._base(compression="on", algorithm="ring")).algorithm == "auto"
        assert sanitize(self._base(compression="off", algorithm="ring")).algorithm == "ring"

    def test_nd_and_di_fold_onto_supported_ops(self):
        assert sanitize(self._base(op="bcast", compression="nd")).compression == "on"
        assert sanitize(self._base(op="reduce_scatter", compression="di")).compression == "on"
        assert sanitize(self._base(op="allreduce", compression="nd")).compression == "nd"
        # the ND reduce-scatter is a scenario of its own
        assert sanitize(self._base(op="reduce_scatter", compression="nd")).compression == "nd"

    def test_reduce_scatter_payload_covers_all_ranks(self):
        fixed = sanitize(self._base(op="reduce_scatter", msg_elems=3, n_ranks=8))
        assert fixed.msg_elems == 8
        zero = sanitize(self._base(op="reduce_scatter", msg_elems=0, n_ranks=8))
        assert zero.msg_elems == 0  # the empty payload stays a legal edge case

    def test_rail_preset_pins_its_wiring(self):
        fixed = sanitize(self._base(preset="rail_fat_tree", placement="cyclic"))
        assert fixed.placement == "block"
        assert fixed.routing == "adaptive"

    def test_program_len_clamped_to_supported_range(self):
        assert sanitize(self._base(program_len=0)).program_len == 1
        assert sanitize(self._base(program_len=9)).program_len == 4
        assert sanitize(self._base(program_len=3)).program_len == 3


class TestPlacementList:
    def test_block_uses_native_packing(self):
        assert placement_list("block", 8, 4) is None

    def test_cyclic_round_robins_over_block_nodes(self):
        assert placement_list("cyclic", 8, 4) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_irregular_is_contiguous_but_lopsided(self):
        placed = placement_list("irregular", 8, 2)
        assert placed is not None and len(placed) == 8
        assert placed == sorted(placed)  # contiguous runs
        sizes = [placed.count(node) for node in sorted(set(placed))]
        assert len(set(sizes)) > 1  # genuinely uneven

    def test_max_nodes_caps_fabric_slots(self):
        placed = placement_list("cyclic", 16, 1, max_nodes=4)
        assert placed is not None and max(placed) <= 3

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown placement pattern"):
            placement_list("diagonal", 4, 2)


class TestRecoveryKnobs:
    """The PR-10 trailing knobs: failure_policy, checkpoint_every, domain_outage."""

    def _faulted(self, **overrides):
        fields = dict(
            seed=0,
            preset="fat_tree",
            n_ranks=8,
            ranks_per_node=2,
            placement="block",
            nics_per_node=2,
            routing="deterministic",
            contention="fair",
            op="allreduce",
            algorithm="auto",
            compression="off",
            codec="szx",
            error_bound=1e-3,
            msg_elems=128,
            dtype="float64",
            data_profile="gaussian",
            fault_mix="node_loss",
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_domain_outage_flag_upgrades_the_fault_mix(self):
        fixed = sanitize(self._faulted(fault_mix="none", domain_outage=True))
        assert fixed.fault_mix == "domain_outage"
        assert fixed.domain_outage is True
        fixed = sanitize(self._faulted(fault_mix="node_loss", domain_outage=True))
        assert fixed.fault_mix == "domain_outage"

    def test_recovery_knobs_fold_unless_nodes_are_lost(self):
        # "mixed" degrades links and slows ranks but never loses a node
        for mix in ("none", "flaky_links", "mixed"):
            fixed = sanitize(self._faulted(
                fault_mix=mix, failure_policy="restart_elsewhere",
                checkpoint_every=4,
            ))
            assert fixed.failure_policy == "fail", mix
            assert fixed.checkpoint_every == 0, mix
        for mix in ("node_loss", "domain_outage"):
            fixed = sanitize(self._faulted(
                fault_mix=mix, failure_policy="restart_elsewhere",
                checkpoint_every=4,
            ))
            assert fixed.failure_policy == "restart_elsewhere", mix
            assert fixed.checkpoint_every == 4, mix

    def test_invalid_recovery_values_fold_to_legal_ones(self):
        assert sanitize(self._faulted(failure_policy="shrug")).failure_policy == "fail"
        assert sanitize(self._faulted(checkpoint_every=99)).checkpoint_every == 8
        assert sanitize(self._faulted(checkpoint_every=-3)).checkpoint_every == 0
        # bool is an int subclass the workload engine rejects: fold it
        fixed = sanitize(self._faulted(checkpoint_every=True))
        assert fixed.checkpoint_every == 1
        assert not isinstance(fixed.checkpoint_every, bool)
        assert sanitize(self._faulted(domain_outage=1)).domain_outage is True

    def test_crafted_recovery_scenarios_sanitize_idempotently(self):
        crafted = [
            self._faulted(fault_mix="none", domain_outage=True),
            self._faulted(failure_policy="restart", checkpoint_every=True),
            self._faulted(fault_mix="mixed", failure_policy="restart"),
        ]
        for scenario in crafted:
            once = sanitize(scenario)
            assert sanitize(once) == once

    def test_knob_draws_are_trailing_and_rare(self):
        scenarios = [generate_scenario(i) for i in range(2000)]
        mixes = {s.fault_mix for s in scenarios}
        assert "domain_outage" in mixes  # the flag installs the new mix
        # knobs are inert off the node-loss mixes ...
        for s in scenarios:
            if s.fault_mix not in ("node_loss", "domain_outage"):
                assert s.failure_policy == "fail"
                assert s.checkpoint_every == 0
                assert s.domain_outage is False
        # ... and genuinely vary on them
        lossy = [s for s in scenarios if s.fault_mix in ("node_loss", "domain_outage")]
        assert any(s.failure_policy != "fail" for s in lossy)
        assert any(s.checkpoint_every > 0 for s in lossy)
