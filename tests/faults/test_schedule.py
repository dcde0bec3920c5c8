"""Tests for the typed fault schedule: sorting, round-trips, seeded mixes."""

import json

import pytest

from repro.faults import (
    DRAGONFLY_LINK_FAMILIES,
    FAT_TREE_LINK_FAMILIES,
    FAULT_MIXES,
    DomainOutage,
    FailureDomain,
    FaultSchedule,
    LinkDegrade,
    NodeLoss,
    RailFailure,
    SlowRank,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            SlowRank(time=-0.1, rank=0, factor=2.0)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            LinkDegrade(time=0.0, stage_prefix=("ft-up",), factor=0.0)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix"):
            LinkDegrade(time=0.0, stage_prefix=(), factor=0.5)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            SlowRank(time=0.0, rank=0, factor=2.0, duration=0.0)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            NodeLoss(time=0.0, node=-1)
        with pytest.raises(ValueError):
            RailFailure(time=0.0, node=0, rail=-1)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, None])
    def test_node_rail_and_rank_are_integers(self, bad):
        """A non-integer node would match no stage while the allocator
        quarantined ``int(node)``; a non-integer rank scales no rank."""
        with pytest.raises(ValueError, match="NodeLoss node must be an integer"):
            NodeLoss(time=0.0, node=bad)
        with pytest.raises(ValueError, match="RailFailure node must be an integer"):
            RailFailure(time=0.0, node=bad, rail=0)
        with pytest.raises(ValueError, match="RailFailure rail must be an integer"):
            RailFailure(time=0.0, node=0, rail=bad)
        with pytest.raises(ValueError, match="SlowRank rank must be an integer"):
            SlowRank(time=0.0, rank=bad, factor=2.0)

    def test_prefix_normalised_to_tuple(self):
        event = LinkDegrade(time=0.0, stage_prefix=["ft-up"], factor=0.5)
        assert event.stage_prefix == ("ft-up",)


class TestSchedule:
    def test_sorted_regardless_of_listing_order(self):
        a = SlowRank(time=2e-3, rank=0, factor=2.0)
        b = LinkDegrade(time=1e-3, stage_prefix=("ft-up",), factor=0.5)
        assert FaultSchedule(events=(a, b)) == FaultSchedule(events=(b, a))
        assert FaultSchedule(events=(a, b)).events == (b, a)

    def test_empty_flag_and_len(self):
        assert FaultSchedule().empty
        assert len(FaultSchedule()) == 0
        schedule = FaultSchedule(events=(NodeLoss(time=0.0, node=1),))
        assert not schedule.empty
        assert len(schedule) == 1

    def test_round_trip_through_dicts_is_json_safe(self):
        schedule = FaultSchedule(
            events=(
                LinkDegrade(time=1e-3, stage_prefix=("ft-down",), factor=0.25,
                            duration=5e-4),
                RailFailure(time=2e-3, node=3, rail=1),
                SlowRank(time=0.0, rank=7, factor=3.0),
                NodeLoss(time=1.5e-3, node=2),
            )
        )
        payload = json.loads(json.dumps(schedule.to_dicts()))
        assert FaultSchedule.from_dicts(payload) == schedule

    def test_from_dicts_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            FaultSchedule.from_dicts([{"kind": "meteor_strike", "time": 0.0}])

    def test_describe_counts_kinds(self):
        assert FaultSchedule().describe() == "fault schedule: empty"
        schedule = FaultSchedule(
            events=(
                SlowRank(time=0.0, rank=0, factor=2.0),
                SlowRank(time=1e-3, rank=1, factor=2.0),
                NodeLoss(time=2e-3, node=0),
            )
        )
        assert "3 event(s)" in schedule.describe()
        assert "2x slow_rank" in schedule.describe()
        assert "1x node_loss" in schedule.describe()


class TestFailureDomains:
    def _domain(self):
        return FailureDomain(
            name="pod0", kind="power", nodes=(1, 2),
            rails=((1, 0), (2, 0)), stage_prefixes=(("ft-up", 0),),
        )

    def test_domain_needs_at_least_one_member(self):
        with pytest.raises(ValueError, match="no members"):
            FailureDomain(name="empty")

    def test_domain_member_validation(self):
        with pytest.raises(ValueError):
            FailureDomain(name="bad", nodes=(-1,))
        with pytest.raises(ValueError):
            FailureDomain(name="bad", rails=((0,),))
        with pytest.raises(ValueError, match="prefix"):
            FailureDomain(name="bad", stage_prefixes=((),))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", None])
    def test_domain_members_are_integers(self, bad):
        with pytest.raises(ValueError, match="FailureDomain node must be an integer"):
            FailureDomain(name="bad", nodes=(0, bad))
        with pytest.raises(ValueError, match="FailureDomain rail node must be an integer"):
            FailureDomain(name="bad", rails=((bad, 0),))
        with pytest.raises(ValueError, match="FailureDomain rail must be an integer"):
            FailureDomain(name="bad", rails=((0, bad),))

    def test_expand_covers_every_member_at_outage_time(self):
        outage = DomainOutage(time=1e-3, domain=self._domain(), duration=5e-4)
        expanded = outage.expand()
        assert len(expanded) == 5  # 1 prefix + 2 rails + 2 nodes
        assert all(ev.time == 1e-3 for ev in expanded)
        assert all(ev.duration == 5e-4 for ev in expanded)
        kinds = sorted(type(ev).__name__ for ev in expanded)
        assert kinds == [
            "LinkDegrade", "NodeLoss", "NodeLoss", "RailFailure", "RailFailure",
        ]
        assert {ev.node for ev in expanded if isinstance(ev, NodeLoss)} == {1, 2}

    def test_permanent_expand_has_no_durations(self):
        outage = DomainOutage(time=1e-3, domain=self._domain())
        assert all(ev.duration is None for ev in outage.expand())

    def test_round_trip_with_domain_outage(self):
        schedule = FaultSchedule(
            events=(
                DomainOutage(time=2e-3, domain=self._domain(), duration=1e-3),
                NodeLoss(time=1e-3, node=5),
            )
        )
        payload = json.loads(json.dumps(schedule.to_dicts()))
        assert FaultSchedule.from_dicts(payload) == schedule

    def test_old_schema_without_domain_outage_still_loads(self):
        # a schedule serialised before DomainOutage (and before
        # NodeLoss.duration) existed: plain kind/time/field dicts
        payload = [
            {"kind": "node_loss", "time": 1e-3, "node": 2},
            {"kind": "link_degrade", "time": 0.0, "stage_prefix": ["ft-up"],
             "factor": 0.5},
        ]
        schedule = FaultSchedule.from_dicts(payload)
        assert schedule.events[1] == NodeLoss(time=1e-3, node=2)
        assert schedule.events[1].duration is None

    def test_permanent_node_losses_sees_through_domains(self):
        schedule = FaultSchedule(
            events=(
                NodeLoss(time=1e-3, node=7),
                NodeLoss(time=2e-3, node=8, duration=1e-3),  # transient
                DomainOutage(time=3e-3, domain=self._domain()),
            )
        )
        assert schedule.permanent_node_losses() == frozenset({1, 2, 7})


class TestGenerate:
    def test_none_mix_is_empty(self):
        assert FaultSchedule.generate("none", 7, n_nodes=8).empty

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mix"):
            FaultSchedule.generate("bitrot", 7, n_nodes=8)

    def test_rail_outage_needs_multirail(self):
        with pytest.raises(ValueError, match="nics_per_node"):
            FaultSchedule.generate("rail_outage", 7, n_nodes=8, nics_per_node=1)

    @pytest.mark.parametrize("mix", [m for m in FAULT_MIXES if m != "none"])
    def test_same_seed_same_schedule(self, mix):
        kwargs = dict(n_nodes=8, n_ranks=16, nics_per_node=2, horizon=6e-3)
        first = FaultSchedule.generate(mix, 7, **kwargs)
        second = FaultSchedule.generate(mix, 7, **kwargs)
        assert first == second
        assert not first.empty
        assert all(0.0 <= ev.time <= 6e-3 for ev in first)

    def test_different_seeds_diverge_somewhere(self):
        schedules = {
            FaultSchedule.generate("mixed", seed, n_nodes=8, n_ranks=16)
            for seed in range(5)
        }
        assert len(schedules) > 1

    def test_link_families_parameter_scopes_degradations(self):
        schedule = FaultSchedule.generate(
            "flaky_links", 3, n_nodes=8,
            link_families=DRAGONFLY_LINK_FAMILIES,
        )
        families = {ev.stage_prefix[0] for ev in schedule}
        assert families <= set(DRAGONFLY_LINK_FAMILIES)
        assert not families & set(FAT_TREE_LINK_FAMILIES)

    def test_horizon_scales_event_times(self):
        small = FaultSchedule.generate("degraded_tier", 7, n_nodes=8, horizon=1e-3)
        large = FaultSchedule.generate("degraded_tier", 7, n_nodes=8, horizon=1.0)
        assert large.events[0].time == pytest.approx(small.events[0].time * 1e3)
