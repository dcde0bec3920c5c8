"""The ring warm: every C-Coll ring round is compressed in one codec call, bit for bit.

C-Coll's reduce-scatter, allreduce (Overlap and ND) and allgather compress each
ring round's chunks ahead of the rank programs, one ``compressed_nbytes`` batch per
round, onto the queue of the rank that compresses each chunk.  The programs
then find every compression done, after a byte compare and without a digest.
Nothing they compute may change: the oracle is the same collective with the
warm switched off, where every rank compresses on its own as it always did.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.ccoll.computation as computation_module
import repro.ccoll.movement as movement_module
from repro.api import Cluster
from repro.ccoll import CCollConfig
from repro.ccoll.adapter import CompressionAdapter, warm_round
from repro.mpisim import HierarchicalTopology
from repro.mpisim.errors import RankProgramError
from repro.mpisim.launcher import run_simulation
from repro.utils.chunking import split_counts, split_displacements
from repro.workload import CollectiveCall, JobSpec, WorkloadEngine

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


def _queued(adapters) -> int:
    return sum(len(adapter.warmed) for adapter in adapters)


def _replace_warm(monkeypatch, warm):
    """Make every ring planner warm its rounds with ``warm`` instead of ``warm_round``."""
    for planner in (computation_module, movement_module):
        monkeypatch.setattr(planner, "warm_round", warm)


@pytest.fixture
def unwarmed(monkeypatch):
    """Switch the warm off: every compression is the rank's own codec call again."""

    def off():
        _replace_warm(monkeypatch, lambda arrays, ranks: None)

    return off


@pytest.mark.parametrize("op, mode, n, m", list(_cases()))
def test_the_programs_find_every_compression_done(
    op, mode, n, m, codec_calls, adapters, monkeypatch
):
    inputs = _inputs(n, m)
    warmed = _run(op, mode, n, inputs)
    assert codec_calls["compress"] == 0  # no rank compressed anything itself
    assert adapters and _queued(adapters) == 0  # and every rank took all it was queued
    rounds = {"allreduce": n, "reduce_scatter": n - 1, "allgather": 1}[op] if n > 1 else 0
    assert codec_calls["compressed_nbytes"] == rounds
    batched = dict(codec_calls)

    # a lying warm: the first non-empty array it is handed is off by one
    lied = []

    def lying(arrays, ranks):
        arrays = list(arrays)
        for index, data in enumerate(arrays):
            if data.size and not lied:
                arrays[index] = data + np.float32(1.0)
                lied.append(index)
        return warm_round(arrays, ranks)

    _replace_warm(monkeypatch, lying)
    _assert_same_outcome(_run(op, mode, n, inputs), warmed)
    misses = codec_calls["compress"]
    assert misses == (LIE_COST[op](n) if n > 1 else 0)
    assert _queued(adapters) == 0  # a miss pops the entry it did not match
    for kind in ("compressed_nbytes", "nbytes_inputs"):  # the warm did exactly what it did before
        assert codec_calls[kind] == 2 * batched[kind]

    # the oracle: no warm, one codec call per compression, as before the warm existed
    _replace_warm(monkeypatch, lambda arrays, ranks: None)
    _assert_same_outcome(_run(op, mode, n, inputs), warmed)
    assert codec_calls["compress"] - misses == batched["nbytes_inputs"]


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
    assert codec_calls["compressed_nbytes"] == 0
    run_simulation(4, lambda rank, size: programs[rank])
    rounds = {"allreduce": 4, "reduce_scatter": 3, "allgather": 1}[op]
    assert codec_calls == {
        "compress_bytes": 0, "compress": 0, "decompress": 0,
        "compressed_nbytes": rounds, "nbytes_inputs": 4 * rounds,
    }  # fmt: skip


def _signed_zero_lie(monkeypatch):
    """A warm whose first array has ``-0.0`` where the rank's input has ``0.0``:
    equal by value, not by bits."""
    lied = []

    def lying(arrays, ranks):
        arrays = list(arrays)
        if not lied:
            zeros = arrays[0] == 0
            assert zeros.any() and not np.signbit(arrays[0][zeros]).any()
            arrays[0] = np.where(zeros, -0.0, arrays[0]).astype(arrays[0].dtype)
            lied.append(arrays[0])
        return warm_round(arrays, ranks)

    _replace_warm(monkeypatch, lying)
    return lied


@pytest.mark.parametrize("op, mode", CALLS)
def test_an_input_equal_by_value_but_not_by_bits_is_a_miss(
    op, mode, codec_calls, adapters, monkeypatch
):
    """A zero inside a noisy block decodes the same with either sign, so the one
    rank whose queued input has ``-0.0`` compresses its own and nothing else moves."""
    n, m = 5, 4_097
    inputs = _inputs(n, m)
    chunk = (0 - 1) % n if op != "allgather" else 0  # what rank 0 compresses first
    inputs[0][split_displacements(split_counts(m, n))[chunk] + 7] = 0.0
    oracle = _run(op, mode, n, inputs)
    before = dict(codec_calls)
    lied = _signed_zero_lie(monkeypatch)
    _assert_same_outcome(_run(op, mode, n, inputs), oracle)
    assert lied and np.signbit(lied[0]).any()
    assert codec_calls["compress"] - before["compress"] == 1
    assert _queued(adapters) == 0


@pytest.mark.parametrize("op, mode", [*CALLS, ("allreduce", "auto")])
def test_no_adapter_keeps_the_warm_after_a_run(op, mode, monkeypatch):
    """Every warm ends once its adapters have what they compress, and ending it
    unhooks them: a warm left paused instead (a drain ending in a bare ``yield``)
    keeps each adapter alive in a cycle through ``warm_ahead``'s ``resume``, so
    with the cycle collector off no adapter may outlive the outcome.  ``auto``
    runs the leader ring on four nodes."""
    made = []
    real = CompressionAdapter.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(CompressionAdapter, "__init__", recording)
    placement = [0, 0, 1, 2, 2, 3]
    topology = HierarchicalTopology(placement=placement, inter_bandwidth=1e8)
    comm = Cluster(topology=topology if mode == "auto" else None).communicator(len(placement))
    inputs = _inputs(len(placement), 4_097)
    gc.collect()
    gc.disable()
    try:
        outcome = getattr(comm, op)(inputs, compression=mode)
        assert made and all(ref()._warm is None for ref in made if ref() is not None)
        del outcome
        assert [ref() for ref in made] == [None] * len(made)
    finally:
        gc.enable()
    assert mode != "auto" or comm.last_compression == "topology_aware"


def test_a_queued_entry_is_matched_bit_for_bit(codec_calls):
    config = CCollConfig()
    warmer, rank = config.make_adapters(config.context(), 2)
    zeros = np.zeros(256)
    decoded = warm_round([-zeros, zeros.copy()], [rank, warmer])
    assert np.signbit(decoded[0]).all() and not np.signbit(decoded[1]).any()
    assert codec_calls == {
        "compress_bytes": 0, "compress": 0, "decompress": 0,
        "compressed_nbytes": 1, "nbytes_inputs": 2,
    }  # fmt: skip
    # the queue keeps the input it matches against, frozen
    assert not rank.warmed[0][0].flags.writeable
    message = rank.compress(zeros)  # -0.0 queued: a miss, and the entry is gone
    assert codec_calls["compress"] == 1 and not rank.warmed
    assert not np.signbit(rank.decompress_shared(message)).any()
    assert warmer.decompress_shared(warmer.compress(zeros)) is decoded[1]  # a hit
    assert codec_calls["compress"] == 1 and not warmer.warmed
    # an empty queue compresses as if no warm had run
    assert not np.signbit(rank.decompress(rank.compress(zeros))).any()
    assert codec_calls["compress"] == 2


def test_a_communicator_collective_digests_nothing(sha256_calls, adapters, codec_calls):
    comm = Cluster.from_preset(
        "fat_tree", ranks_per_node=2, config=CCollConfig(codec="szx", size_multiplier=64)
    ).communicator(16)
    inputs = _inputs(16, 15_552)
    for op in ("allreduce", "reduce_scatter", "allgather"):
        getattr(comm, op)(inputs, compression="on")
    assert codec_calls["compressed_nbytes"] == 16 + 15 + 1 and codec_calls["compress"] == 0
    assert sum(sha256_calls.values()) == 0 and _queued(adapters) == 0


def test_a_baseline_replays_its_tape_and_warms_nothing(sha256_calls, codec_calls, monkeypatch):
    """A job with a baseline holds a ``JobMemo``: its first execution warms every
    round and records it on the step's tape; the baseline's adapters start with
    that tape as their queues, so its warms never run and its ranks hit every
    entry.  Nothing is digested."""
    warmed = [0]

    def counting(arrays, ranks):
        warmed[0] += len(arrays)
        return warm_round(arrays, ranks)

    _replace_warm(monkeypatch, counting)
    calls = (
        CollectiveCall(op="allreduce", msg_elems=4096, compression="on"),
        CollectiveCall(op="allgather", msg_elems=1024, compression="on"),
    )
    spec = JobSpec(job_id="j", n_ranks=4, iterations=2, seed=5, calls=calls)
    cluster = Cluster.from_preset("fat_tree", nodes=16, ranks_per_node=2, contention="fair")
    WorkloadEngine(cluster, policy="packed").run([spec], baseline=True)
    per_execution = 2 * (4 * 4 + 4)  # two iterations of an allreduce's 4 rounds and an allgather
    assert warmed[0] == codec_calls["nbytes_inputs"] == per_execution
    assert codec_calls["compress"] == 0
    assert sum(sha256_calls.values()) == 0


@pytest.mark.parametrize("mode", ["on", "nd"])
def test_a_single_rank_reduce_scatter_returns_a_copy(mode):
    vector = np.linspace(0.0, 1.0, 1000)
    (value,) = Cluster().communicator(1).reduce_scatter([vector], compression=mode).values
    assert np.array_equal(value, vector) and not np.shares_memory(value, vector)
    value[:] = -1.0
    assert vector[0] == 0.0 and vector[-1] == 1.0
