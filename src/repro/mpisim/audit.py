"""Whole-run fabric audits: capacity conservation and the max-min property.

:func:`audit_fabric` is the one seam every caller that wants a run checked
goes through — the fuzzer and the ``--check-invariants`` flags of the
workload and harness CLIs, which print its verdict with :func:`report_audit`.
It combines the reservation trace of :func:`trace_reservations` (audited by
:func:`capacity_conservation_violations`) with
:func:`trace_fair_allocations`, the live check of every allocation a
:class:`~repro.mpisim.fairshare.FairShareRegistry` commits.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.mpisim.fairshare import FairShareRegistry
from repro.mpisim.topology import SharedLink

__all__ = [
    "audit_fabric",
    "capacity_conservation_violations",
    "report_audit",
    "trace_fair_allocations",
    "trace_reservations",
]

_FAIR_TOL = 1e-9
#: slack, in seconds, before a reservation that begins ahead of the previous
#: finish on its stage counts as an overlap
_CAPACITY_TOL = 1e-12


@contextmanager
def trace_reservations():
    """Record every :class:`SharedLink` reservation made while the context is open.

    Yields a list that fills with ``("reserve", stage, finish, nbytes,
    capacity)`` and ``("clear", stage, None, None, None)`` events in call
    order (``clear`` marks a simulation reset, which legitimately rewinds a
    reused stage).  Each reserve event carries the stage capacity *at reserve
    time*: fault overlays re-capacitate stages mid-run, so auditing against
    the stage's current capacity would flag spurious overlaps on any
    reservation made before the change.  Pair with
    :func:`capacity_conservation_violations` to audit whole simulations; the
    property suite and ``bench_fabric_contention.py`` pin the invariant with
    it.
    """
    events: List[Tuple] = []
    real_reserve, real_clear = SharedLink.reserve, SharedLink.clear

    def reserve(self, start, nbytes):
        finish = real_reserve(self, start, nbytes)
        events.append(("reserve", self, finish, nbytes, self.capacity))
        return finish

    def clear(self):
        real_clear(self)
        events.append(("clear", self, None, None, None))

    SharedLink.reserve, SharedLink.clear = reserve, clear  # type: ignore[method-assign]
    try:
        yield events
    finally:
        SharedLink.reserve, SharedLink.clear = real_reserve, real_clear  # type: ignore[method-assign]


def capacity_conservation_violations(events) -> List[Tuple]:
    """Overlapping reservations in a :func:`trace_reservations` event list.

    A stage conserves capacity exactly when its reservations are serial (each
    occupies ``bytes / capacity`` of wire time at its reserve-time capacity
    and starts no earlier than the previous one finished).  Returns
    ``(stage, begin, previous_finish)`` triples for every violation — empty
    means aggregate throughput never exceeded any stage's capacity at any
    time, including across mid-run capacity changes from fault overlays.
    """
    violations: List[Tuple] = []
    last_finish: Dict[SharedLink, float] = {}
    for kind, stage, finish, nbytes, capacity in events:
        if kind == "clear":
            last_finish.pop(stage, None)
            continue
        begin = finish - max(0.0, nbytes) / capacity
        previous = last_finish.get(stage, float("-inf"))
        if begin < previous - _CAPACITY_TOL:
            violations.append((stage, begin, previous))
        last_finish[stage] = finish
    return violations


@contextmanager
def trace_fair_allocations():
    """Audit every max-min allocation a :class:`FairShareRegistry` commits.

    After each flow arrival and each committed departure the registry's
    allocation must satisfy the bottleneck property; every violation is
    appended to the yielded list as a ``(kind, detail)`` pair.  Mirrors the
    property-suite check, but attached globally so audited runs check the
    engine's own registries rather than a synthetic one.
    """
    violations: List[Tuple[str, str]] = []
    real_open, real_commit = FairShareRegistry.open_flow, FairShareRegistry.commit_departure

    def check(registry) -> None:
        active = registry.active_flows()
        saturated = set()
        for stage in dict.fromkeys(stage for flow in active for stage in flow.stages):
            rate = stage.allocated_rate()
            if rate > stage.capacity * (1.0 + _FAIR_TOL):
                violations.append(
                    ("overcommit", f"stage allocated {rate:.6g} > capacity {stage.capacity:.6g}")
                )
            if rate >= stage.capacity * (1.0 - _FAIR_TOL):
                saturated.add(stage)
            elif stage.backlogged and any(
                len(flow.stages) == 1 and flow.stages[0] is stage for flow in active
            ):
                # a backlogged stage that is some flow's only stage has no
                # other bottleneck to defer to: max-min must fill it
                violations.append(
                    (
                        "unsaturated",
                        f"backlogged single-stage bottleneck allocated {rate:.6g} "
                        f"< capacity {stage.capacity:.6g}",
                    )
                )
        for flow in active:
            if flow.remaining <= 0.0:
                continue
            if flow.rate <= 0.0:
                violations.append(("starved", f"flow {flow.flow_id} has rate {flow.rate!r}"))
            elif not any(stage in saturated for stage in flow.stages):
                violations.append(
                    ("unbottlenecked", f"flow {flow.flow_id} is not bottlenecked anywhere")
                )

    def open_flow(self, *args, **kwargs):
        flow = real_open(self, *args, **kwargs)
        check(self)
        return flow

    def commit_departure(self):
        result = real_commit(self)
        check(self)
        return result

    FairShareRegistry.open_flow = open_flow  # type: ignore[method-assign]
    FairShareRegistry.commit_departure = commit_departure  # type: ignore[method-assign]
    try:
        yield violations
    finally:
        FairShareRegistry.open_flow = real_open  # type: ignore[method-assign]
        FairShareRegistry.commit_departure = real_commit  # type: ignore[method-assign]


@contextmanager
def audit_fabric():
    """Audit every simulation run while the context is open.

    Yields a list that, once the block has finished, holds one ``(kind,
    detail)`` pair per violation: kind ``"capacity"`` for a shared stage
    reserved beyond its capacity (both contention disciplines — fair runs
    re-express fluid segments as reservations) and the
    :func:`trace_fair_allocations` kinds for a committed allocation that
    breaks the max-min bottleneck property.  Empty means every run was clean.
    """
    violations: List[Tuple[str, str]] = []
    with trace_reservations() as events, trace_fair_allocations() as fair:
        yield violations
    violations.extend(
        (
            "capacity",
            f"stage capacity={stage.capacity:.6g} reservation begins at "
            f"{begin:.9g} before previous finish {previous:.9g}",
        )
        for stage, begin, previous in capacity_conservation_violations(events)
    )
    violations.extend(fair)


def report_audit(violations, where: str = "") -> int:
    """Print an :func:`audit_fabric` verdict; return the exit status it earns.

    A clean audit prints one ``invariants ok`` line on stdout and returns 0.
    Otherwise the count and the first violations go to stderr, one
    ``[kind] detail`` line each, and it returns 1.  ``where`` follows the
    heading, e.g. ``" in recovery"`` to name what was audited.
    """
    if not violations:
        print(f"invariants ok{where}: capacity conservation + fair bottleneck property")
        return 0
    print(f"INVARIANT VIOLATIONS{where} ({len(violations)}):", file=sys.stderr)
    for kind, detail in violations[:20]:
        print(f"  [{kind}] {detail}", file=sys.stderr)
    return 1
