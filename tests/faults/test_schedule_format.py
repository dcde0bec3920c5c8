"""``FaultSchedule.from_dicts`` on payloads that are not schedules.

Whatever is wrong with an entry — unknown kind, missing / extra / wrongly
typed key, not an object at all — the loader raises one
:class:`FaultFormatError` whose message starts ``event <index>:`` and names
the kind; a valid payload round-trips unchanged.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FAULT_MIXES, FaultFormatError, FaultSchedule

NODE_LOSS = {"kind": "node_loss", "time": 1.0, "node": 1}

MALFORMED = [
    ([{**NODE_LOSS, "bogus": 2}], "node_loss"),
    ([5], "int"),
    ([{"kind": "node_loss"}], "node_loss"),
    ([{"kind": "domain_outage", "time": 0.1, "domain": 7}], "domain_outage"),
    ([{"kind": "node_loss", "time": "soon", "node": 1}], "node_loss"),
    (
        [{"kind": "link_degrade", "time": 0.1, "stage_prefix": 3, "factor": 0.5}],
        "link_degrade",
    ),
    ([{"kind": "meteor_strike", "time": 0.0}], "meteor_strike"),
    ([{"time": 0.0, "node": 1}], "None"),
    ([{"kind": ["node_loss"], "time": 0.0, "node": 1}], "node_loss"),
    ([{**NODE_LOSS, "time": -1.0}], "node_loss"),
    (
        [{"kind": "domain_outage", "time": 0.1, "domain": {"name": "z", "nodes": [float("inf")]}}],
        "domain_outage",
    ),
    # a node, rail or rank is an integer: never a float, a whole float or a bool
    ([{**NODE_LOSS, "node": 1.5}], "node_loss"),
    ([{**NODE_LOSS, "node": 1.0}], "node_loss"),
    ([{**NODE_LOSS, "node": True}], "node_loss"),
    ([{"kind": "slow_rank", "time": 0.0, "rank": 2.5, "factor": 2.0}], "slow_rank"),
    ([{"kind": "rail_failure", "time": 0.0, "node": 1, "rail": 0.5}], "rail_failure"),
    (
        [{"kind": "domain_outage", "time": 0.1, "domain": {"name": "z", "nodes": [1.7]}}],
        "domain_outage",
    ),
    (
        [{"kind": "domain_outage", "time": 0.1, "domain": {"name": "z", "rails": [[0, False]]}}],
        "domain_outage",
    ),
]


@pytest.mark.parametrize("payload, named", MALFORMED)
def test_malformed_entry_is_a_fault_format_error(payload, named):
    with pytest.raises(FaultFormatError, match=r"^event 0: ") as info:
        FaultSchedule.from_dicts(payload)
    assert named in str(info.value)
    assert isinstance(info.value, ValueError)


def test_message_carries_the_index_of_the_bad_entry():
    with pytest.raises(FaultFormatError, match=r"^event 2: slow_rank: "):
        FaultSchedule.from_dicts([NODE_LOSS, NODE_LOSS, {"kind": "slow_rank", "time": 0.0}])


def _generated(mix, seed=11):
    return FaultSchedule.generate(mix, seed, n_nodes=8, n_ranks=16, nics_per_node=2)


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_every_generated_mix_round_trips_identically(mix):
    dicts = _generated(mix).to_dicts()
    loaded = FaultSchedule.from_dicts(json.loads(json.dumps(dicts)))
    assert loaded == _generated(mix)
    assert loaded.to_dicts() == dicts


VALID = [event for mix in FAULT_MIXES for event in _generated(mix).to_dicts()]

retyped = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def mutated_payloads(draw):
    """A valid payload with keys dropped, added or retyped, one level into ``domain`` too."""
    drawn = draw(st.lists(st.sampled_from(VALID), min_size=1, max_size=3))
    payload = [copy.deepcopy(event) for event in drawn]
    for event in payload:
        for target in ([event["domain"]] if "domain" in event else []) + [event]:
            for key in draw(st.lists(st.sampled_from(sorted(target)), max_size=2)):
                if draw(st.booleans()):
                    target.pop(key, None)
                else:
                    target[key] = draw(retyped)
            if draw(st.booleans()):
                target[draw(st.text(min_size=1, max_size=4))] = draw(retyped)
    if draw(st.booleans()):
        payload.insert(draw(st.integers(0, len(payload))), draw(retyped))
    return payload


@given(payload=mutated_payloads())
@settings(max_examples=300, deadline=None)
def test_mutated_payload_loads_or_raises_fault_format_error(payload):
    try:
        schedule = FaultSchedule.from_dicts(payload)
    except FaultFormatError as exc:
        assert str(exc).startswith("event ")
    else:
        assert isinstance(schedule, FaultSchedule)
        assert len(schedule) == len(payload)
