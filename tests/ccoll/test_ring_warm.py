"""The ring warm: every C-Coll ring round is compressed in one codec call, bit for bit.

C-Coll's reduce-scatter, allreduce (Overlap and ND) and allgather compress each
ring round's chunks ahead of the rank programs, one ``compress_many`` batch per
round, into the plan's codec memo.  The programs then find every compression
done.  Nothing they compute may change: the oracle is the same collective with
the warm switched off, where every rank compresses on its own as it always did.
"""

import numpy as np
import pytest

from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.ccoll.adapter import CompressionAdapter
from repro.mpisim.errors import RankProgramError
from repro.mpisim.launcher import run_simulation
from repro.utils.chunking import split_counts, split_displacements

RANKS = (1, 2, 3, 5, 8, 16)
CALLS = [
    ("allreduce", "on"),
    ("allreduce", "nd"),
    ("reduce_scatter", "on"),
    ("reduce_scatter", "nd"),
    ("allgather", "on"),
]
#: per-rank codec calls one wrong warmed chunk costs: its n - 1 reduce-scatter
#: hops, plus the reduced chunk it ends in for the allgather stage
LIE_COST = {"allreduce": lambda n: n, "reduce_scatter": lambda n: n - 1, "allgather": lambda n: 1}


def _cases():
    for n in RANKS:
        for m in sorted({max(n - 1, 1), n, 4_097, 15_552}):
            for op, mode in CALLS:
                yield pytest.param(op, mode, n, m, id=f"{op}-{mode}-n{n}-m{m}")


def _inputs(n: int, m: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 6.0 * np.pi, m)
    noisy = [np.sin(t + rank) + 0.01 * rng.standard_normal(m) for rank in range(n)]
    return [values.astype(np.float32) for values in noisy]


def _run(op, mode, n, inputs, codec="szx"):
    comm = Cluster(config=CCollConfig(codec=codec)).communicator(n)
    return getattr(comm, op)(inputs, compression=mode)


def _flat(values):
    return [block for value in values for block in (value if isinstance(value, list) else [value])]


def _assert_same_outcome(outcome, oracle):
    assert outcome.total_time == oracle.total_time
    # the reduce-scatter plan reports no ratio
    assert getattr(outcome, "compression_ratio", None) == getattr(oracle, "compression_ratio", None)
    ours, theirs = _flat(outcome.values), _flat(oracle.values)
    assert len(ours) == len(theirs)
    for mine, expected in zip(ours, theirs):
        assert mine.dtype == expected.dtype and mine.tobytes() == expected.tobytes()


@pytest.fixture
def unwarmed(monkeypatch):
    """Switch the warm off: every compression is the rank's own codec call again."""

    def off():
        monkeypatch.setattr(CompressionAdapter, "warm", lambda self, arrays: None)

    return off


@pytest.mark.parametrize("op, mode, n, m", list(_cases()))
def test_the_programs_find_every_compression_done(op, mode, n, m, codec_calls, monkeypatch):
    inputs = _inputs(n, m)
    warmed = _run(op, mode, n, inputs)
    assert codec_calls["compress"] == 0  # no rank compressed anything itself
    rounds = {"allreduce": n, "reduce_scatter": n - 1, "allgather": 1}[op] if n > 1 else 0
    assert codec_calls["compress_many"] == rounds
    batched = dict(codec_calls)

    # a lying warm: the first non-empty array it is handed is off by one
    real = CompressionAdapter.warm
    lied = []

    def lying(self, arrays):
        arrays = list(arrays)
        for index, data in enumerate(arrays):
            if data.size and not lied:
                arrays[index] = data + np.float32(1.0)
                lied.append(index)
        return real(self, arrays)

    monkeypatch.setattr(CompressionAdapter, "warm", lying)
    _assert_same_outcome(_run(op, mode, n, inputs), warmed)
    misses = codec_calls["compress"]
    assert misses == (LIE_COST[op](n) if n > 1 else 0)
    for kind in ("compress_many", "many_inputs"):  # the warm did exactly what it did before
        assert codec_calls[kind] == 2 * batched[kind]

    # the oracle: no warm, one codec call per compression, as before the warm existed
    monkeypatch.setattr(CompressionAdapter, "warm", lambda self, arrays: None)
    _assert_same_outcome(_run(op, mode, n, inputs), warmed)
    assert codec_calls["compress"] - misses == batched["many_inputs"]


def _raised(*call) -> str:
    with pytest.raises(RankProgramError) as raised:
        _run(*call)
    return str(raised.value)


@pytest.mark.parametrize("op, mode", CALLS)
@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("hop", [0, -1], ids=["first-hop", "last-hop"])
@pytest.mark.parametrize("codec", ["szx", "null"])
def test_a_nan_raises_what_the_rank_that_compresses_it_raised(op, mode, n, hop, codec, unwarmed):
    """A NaN in the chunk rank ``n // 2`` sends in the first (or last) reduce-scatter
    round.  The null codec would store a NaN: what refuses it is the adapter's check."""
    m, rank = 4_097, n // 2
    chunk = (rank - 1) % n if hop == 0 else (rank + 1) % n
    inputs = _inputs(n, m)
    inputs[rank][split_displacements(split_counts(m, n))[chunk] + 1] = np.nan
    warmed = _raised(op, mode, n, inputs, codec)
    assert "NaN or Inf" in warmed
    unwarmed()
    assert warmed == _raised(op, mode, n, inputs, codec)


@pytest.mark.parametrize("op, mode", CALLS)
def test_the_warm_runs_when_a_rank_first_compresses(op, mode, codec_calls):
    """Not at plan time (a captured plan runs nothing) and not in the program factory
    (which the engine calls while it is being built)."""
    comm = Cluster().communicator(4)
    plan = comm.capture(lambda c: getattr(c, op)(_inputs(4, 4_097), compression=mode))
    programs = [plan.factory(rank, 4) for rank in range(4)]
    assert codec_calls["compress_many"] == 0
    run_simulation(4, lambda rank, size: programs[rank])
    rounds = {"allreduce": 4, "reduce_scatter": 3, "allgather": 1}[op]
    assert codec_calls == {
        "compress": 0, "decompress": 0, "compress_many": rounds, "many_inputs": 4 * rounds
    }  # fmt: skip
