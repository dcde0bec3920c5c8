"""Every rank's command stream, pinned for every collective, mode and fabric.

The golden makespans see a schedule change only when it moves a finish time;
a changed tag, category or ``nbytes`` on a path whose timing happens not to
depend on it passes them.  This pin records what each rank program *yields*:
per case, one truncated SHA-256 over every rank's commands (type, peer, tag,
``nbytes``, category, ``Compute.seconds.hex()``), the makespan's ``float.hex``,
the bytes of every rank's value, the outcome's compression ratio and its
``inter_compressed`` decision.

The grid is flat / two-level / fair fat tree (2 ranks per node) x n in
{1, 2, 3, 5, 8} x every ``Communicator`` collective x every mode it accepts x
roots {0, n // 2, n - 1} x the four named allreduce schedules.  Each case's
plan comes from ``Communicator.capture`` and runs on an ``Engine`` of its own,
with every rank program wrapped in a recorder.

``command_streams_pin.json`` was generated before the compressed collectives
were rewritten as hops on the baselines' schedules
(``PYTHONPATH=src python tests/collectives/test_command_streams.py`` rewrites
it; never edit it by hand).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.mpisim import Engine
from repro.mpisim.commands import Compute, Irecv, Isend, Wait, Waitall
from repro.mpisim.launcher import SimulationResult

PIN_PATH = Path(__file__).parent / "command_streams_pin.json"

CLUSTERS = {
    "flat": lambda: Cluster.from_preset("flat", config=CCollConfig(size_multiplier=8192.0)),
    "two_level": lambda: Cluster.from_preset(
        "two_level", config=CCollConfig(size_multiplier=8192.0)
    ),
    "fair_fat_tree": lambda: Cluster.from_preset(
        "fat_tree", ranks_per_node=2, contention="fair", config=CCollConfig(size_multiplier=8192.0)
    ),
}
SIZES = (1, 2, 3, 5, 8)
#: an element count no rank count above divides, so ring chunks differ in length
ELEMS = 301


def _vectors(n):
    rng = np.random.default_rng(11 + n)
    return [np.cumsum(rng.standard_normal(ELEMS)) * 0.01 + rank for rank in range(n)]


def _calls(n):
    """``name -> call`` for every collective, accepted mode and root at ``n`` ranks."""
    vectors = _vectors(n)
    matrix = [[np.full(16, 10.0 * src + dst) for dst in range(n)] for src in range(n)]
    calls = {}
    for mode in ("off", "on", "di", "nd", "auto"):
        calls[f"allreduce-{mode}"] = lambda c, m=mode: c.allreduce(vectors, compression=m)
    for algorithm in ("ring", "recursive_doubling", "rabenseifner", "hierarchical"):
        calls[f"allreduce-{algorithm}"] = lambda c, a=algorithm: c.allreduce(vectors, algorithm=a)
    for mode in ("off", "on", "di", "auto"):
        calls[f"allgather-{mode}"] = lambda c, m=mode: c.allgather(vectors, compression=m)
    for mode in ("off", "on", "auto"):
        calls[f"reduce_scatter-{mode}"] = lambda c, m=mode: c.reduce_scatter(vectors, compression=m)
    calls["alltoall"] = lambda c: c.alltoall(matrix)
    calls["barrier"] = lambda c: c.barrier()
    for root in sorted({0, n // 2, n - 1}):
        for mode in ("off", "on", "di", "auto"):
            calls[f"bcast-{mode}-r{root}"] = (
                lambda c, m=mode, r=root: c.bcast(vectors[r], root=r, compression=m)
            )
            calls[f"scatter-{mode}-r{root}"] = (
                lambda c, m=mode, r=root: c.scatter(vectors, root=r, compression=m)
            )
        calls[f"gather-r{root}"] = lambda c, r=root: c.gather(vectors, root=r)
        calls[f"reduce-r{root}"] = lambda c, r=root: c.reduce(vectors, root=r)
    return calls


CASES = {
    f"{fabric}-n{n}-{name}": (fabric, n, call)
    for fabric in CLUSTERS
    for n in SIZES
    for name, call in _calls(n).items()
}


def _describe(command):
    """The fields of one command that decide what the engine does with it."""
    kind = type(command).__name__
    if isinstance(command, Compute):
        return (kind, command.seconds.hex(), command.category)
    if isinstance(command, Isend):
        return (kind, command.dest, command.tag, command.nbytes)
    if isinstance(command, Irecv):
        return (kind, command.source, command.tag)
    if isinstance(command, Waitall):
        return (kind, len(command.requests), command.category)
    if isinstance(command, Wait):
        return (kind, command.category)
    return (kind, getattr(command, "category", None))


def _recorded(program, log):
    """Run ``program`` unchanged, appending every command it yields to ``log``."""
    value = None
    try:
        while True:
            command = program.send(value)
            log.append(_describe(command))
            value = yield command
    except StopIteration as stop:
        return stop.value


def _feed(digest, value):
    if isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif value is None:
        digest.update(b"-")
    else:
        arr = np.ascontiguousarray(value)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.tobytes())


def observe(case):
    """The truncated SHA-256 of one case's command streams and outcome."""
    fabric, n, call = CASES[case]
    cluster = CLUSTERS[fabric]()
    plan = cluster.communicator(n).capture(call)
    logs = [[] for _ in range(n)]
    engine = Engine(
        n,
        lambda rank, size: _recorded(plan.factory(rank, size), logs[rank]),
        network=cluster.network,
        topology=cluster.topology,
    )
    outcome = plan.finish(SimulationResult(n_ranks=n, ranks=engine.run()))
    digest = hashlib.sha256()
    for log in logs:
        digest.update(repr(log).encode())
    digest.update(outcome.total_time.hex().encode())
    _feed(digest, outcome.values)
    for field in ("compression_ratio", "inter_compressed"):
        digest.update(repr(getattr(outcome, field, None)).encode())
    return digest.hexdigest()[:16]


def test_the_pin_covers_the_grid():
    pin = json.loads(PIN_PATH.read_text())
    assert sorted(pin) == sorted(CASES)
    assert len(CASES) >= 600


def test_every_rank_yields_the_pinned_commands():
    pin = json.loads(PIN_PATH.read_text())
    differing = [case for case in CASES if observe(case) != pin[case]]
    assert not differing, (
        f"{len(differing)} of {len(CASES)} cases differ from the pin; first: {differing[0]}"
    )


if __name__ == "__main__":
    PIN_PATH.write_text(
        json.dumps({case: observe(case) for case in CASES}, indent=1, sort_keys=True) + "\n"
    )
