"""Time-boxed fuzzing sweeps and scenario shrinking.

:func:`sweep` drives the generator/executor loop against a wall-clock budget:
scenario ``i`` of a sweep seeded ``S`` uses generator seed
``S * 1_000_003 + i``, every record is appended to the results database, and
each failing scenario is shrunk to a minimal reproducer before the sweep
moves on (the shrunk record is stored too, linked via ``shrunk_from``).

:func:`shrink` is deterministic greedy delta-debugging over scenario fields:
for each field it tries an ordered list of simpler candidates (fewer ranks,
smaller payload, plainer fabric, compression off ...) and keeps a candidate
iff the failure predicate still holds, looping until a full pass changes
nothing.  Determinism matters: the same failing scenario always shrinks to
the same minimal reproducer, so regression tests can pin it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.fuzzer.database import ResultsDatabase
from repro.fuzzer.executor import execute, run_id_for
from repro.fuzzer.generator import Scenario, generate_scenario, sanitize

__all__ = ["sweep", "shrink", "SweepReport"]

#: per-field reduction candidates, applied in this order; each candidate is
#: (field, simpler_value) and is only tried when it differs from the current
#: value.  Ordering goes for the biggest simplifications first so minimal
#: reproducers collapse onto flat/uncompressed scenarios whenever possible.
_REDUCTIONS = (
    # recovery knobs first: a failure that reproduces without the domain
    # outage, the restart machinery or checkpointing is far simpler — and
    # dropping them re-folds the scenario onto its pre-recovery shape
    ("domain_outage", (False,)),
    ("failure_policy", ("fail",)),
    ("checkpoint_every", (0, 1)),
    # the fault schedule next: a failure that reproduces on a plain
    # collective is a far simpler reproducer
    ("fault_mix", ("none",)),
    ("preset", ("flat", "two_level", "shared_uplink", "fat_tree")),
    ("compression", ("off",)),
    ("codec", ("szx",)),
    ("contention", ("reservation",)),
    ("placement", ("block",)),
    ("routing", ("minimal",)),
    ("nics_per_node", (1,)),
    ("program_len", (1, 2)),
    ("op", ("allreduce",)),
    ("algorithm", ("auto",)),
    ("dtype", ("float64",)),
    ("data_profile", ("gaussian",)),
    ("error_bound", (1e-3,)),
    ("n_ranks", (2, 3, 4, 8)),
    ("ranks_per_node", (1, 2)),
    ("msg_elems", (0, 1, 2, 8, 128, 1000)),
)


@dataclass
class SweepReport:
    """What a :func:`sweep` did: counts plus the failing run ids."""

    runs: int = 0
    ok: int = 0
    failures: List[str] = field(default_factory=list)
    reproducers: Dict[str, str] = field(default_factory=dict)  # failing -> shrunk
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.failures


def shrink(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_attempts: int = 400,
) -> Scenario:
    """Greedy deterministic reduction of ``scenario`` under ``still_fails``.

    Every candidate is re-sanitised before the predicate sees it, so the
    shrinker can never wander outside the valid scenario space.  Returns the
    smallest scenario reached (``scenario`` itself if nothing simpler fails).
    """
    current = sanitize(scenario)
    attempts = 0
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for field_name, candidates in _REDUCTIONS:
            value = getattr(current, field_name)
            # only candidates strictly simpler than the current value (earlier
            # in the ordered tuple) are reductions; anything else would let a
            # later pass re-grow a field and oscillate
            ceiling = candidates.index(value) if value in candidates else len(candidates)
            for candidate in candidates[:ceiling]:
                trial = sanitize(current.replace(**{field_name: candidate}))
                if trial == current:
                    continue
                attempts += 1
                if attempts > max_attempts:
                    return current
                if still_fails(trial):
                    current = trial
                    changed = True
                    break  # keep the simplest failing candidate for this field
    return current


def _record_fails(record: Dict[str, object]) -> bool:
    return record.get("status") in ("violation", "error")


def sweep(
    time_budget: float,
    seed: int,
    database: Optional[ResultsDatabase] = None,
    max_runs: Optional[int] = None,
    clock: Callable[[], float] = time.monotonic,
    log: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Fuzz until ``time_budget`` seconds elapse (or ``max_runs`` scenarios).

    Every executed record lands in ``database`` (when given).  Failing
    scenarios are shrunk immediately — shrinking re-executes candidates but
    does not extend the budget, so a pathological failure cannot run away
    with the sweep (the shrinker's own attempt cap bounds it).
    """
    report = SweepReport()
    start = clock()
    index = 0
    while (max_runs is None or index < max_runs) and (clock() - start) < time_budget:
        scenario = generate_scenario(seed * 1_000_003 + index)
        index += 1
        record = execute(scenario)
        report.runs += 1
        if database is not None:
            database.append(record)
        if not _record_fails(record):
            report.ok += 1
            continue
        run_id = str(record["run_id"])
        report.failures.append(run_id)
        if log is not None:
            log(f"violation in {run_id}: {record['violations']}")
        minimal = shrink(scenario, lambda sc: _record_fails(execute(sc)))
        minimal_record = execute(minimal)
        minimal_record["shrunk_from"] = run_id
        report.reproducers[run_id] = str(minimal_record["run_id"])
        if database is not None and run_id_for(minimal) != run_id:
            database.append(minimal_record)
    report.elapsed = clock() - start
    return report
