"""Tests for the typed fault schedule: sorting, failure domains, seeded mixes."""

import dataclasses

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


NAN = float("nan")
POD = FailureDomain(name="pod0", nodes=(1, 2))
UP = ("ft-up",)

#: (id, constructor, message fragment): every kind refuses a bad value with a
#: ValueError that names what is wrong, before the event exists
MALFORMED = [
    ("node-loss-nan-time", lambda: NodeLoss(time=NAN, node=1), "time"),
    ("node-loss-negative-time", lambda: NodeLoss(time=-1.0, node=1), "time"),
    ("node-loss-negative-duration", lambda: NodeLoss(0.0, 1, duration=-1.0), "duration"),
    ("node-loss-string-node", lambda: NodeLoss(0.0, "1"), "NodeLoss node must be an integer"),
    ("rail-nan-time", lambda: RailFailure(time=NAN, node=0, rail=0), "time"),
    ("rail-nan-duration", lambda: RailFailure(0.0, 0, 0, duration=NAN), "duration"),
    ("rail-negative-node", lambda: RailFailure(0.0, -1, 0), "RailFailure node must be >= 0"),
    ("link-negative-time", lambda: LinkDegrade(-1e-9, UP, 0.5), "time"),
    ("link-negative-factor", lambda: LinkDegrade(0.0, UP, -0.5), "factor"),
    ("link-nan-factor", lambda: LinkDegrade(0.0, UP, NAN), "factor"),
    ("link-zero-duration", lambda: LinkDegrade(0.0, UP, 0.5, duration=0.0), "duration"),
    ("slow-rank-zero-factor", lambda: SlowRank(0.0, 0, 0.0), "factor"),
    ("slow-rank-nan-factor", lambda: SlowRank(0.0, 0, NAN), "factor"),
    ("slow-rank-negative-rank", lambda: SlowRank(0.0, -1, 2.0), "SlowRank rank must be >= 0"),
    ("outage-negative-time", lambda: DomainOutage(-1.0, POD), "time"),
    ("outage-zero-duration", lambda: DomainOutage(0.1, POD, duration=0.0), "duration"),
    ("outage-domain-is-an-int", lambda: DomainOutage(0.1, 7), "must be a FailureDomain, got int"),
    (
        "outage-domain-is-a-dict",
        lambda: DomainOutage(0.1, {"name": "z", "nodes": [1]}),
        "must be a FailureDomain, got dict",
    ),
    ("outage-zero-degrade", lambda: DomainOutage(0.1, POD, degrade_factor=0.0), "degrade factor"),
    ("outage-nan-degrade", lambda: DomainOutage(0.1, POD, degrade_factor=NAN), "degrade factor"),
]


class TestEventValidation:
    @pytest.mark.parametrize(
        "build, named", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_malformed_event_is_a_value_error(self, build, named):
        with pytest.raises(ValueError, match=named):
            build()

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

    @pytest.mark.parametrize("mix", FAULT_MIXES)
    def test_generated_events_are_well_formed(self, mix):
        """A generated event passes its own constructor again and stays inside
        the fabric it was drawn for: (mix, seed) names a usable scenario."""
        schedule = FaultSchedule.generate(
            mix, 11, n_nodes=8, n_ranks=16, nics_per_node=2, horizon=6e-3
        )
        assert FaultSchedule(events=tuple(reversed(schedule.events))) == schedule
        for event in schedule:
            assert dataclasses.replace(event) == event
            assert 0.0 <= event.time < 6e-3
            members = event.expand() if isinstance(event, DomainOutage) else (event,)
            for member in members:
                assert 0 <= getattr(member, "node", 0) < 8
                assert 0 <= getattr(member, "rail", 0) < 2
                assert 0 <= getattr(member, "rank", 0) < 16
                if isinstance(member, LinkDegrade):
                    assert member.stage_prefix[0] in FAT_TREE_LINK_FAMILIES

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
