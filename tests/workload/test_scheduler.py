"""The job life cycle as a machine: single transitions, the table, the laws.

``_Scheduler`` keeps the concurrent run's whole state in attributes, so a
test can fire one event by hand and read the table back — none of (i), (ii)
or (iv) below could be written while that state lived in the locals of one
method.  This is the file to poke a single transition from.
"""

import copy

import pytest

from repro.api import Cluster
from repro.faults import FaultSchedule, NodeLoss
from repro.workload import CollectiveCall, JobSpec, WorkloadEngine
from repro.workload.engine import _TRANSITIONS, _Scheduler
from repro.workload.recovery import MAX_RETRIES

N_NODES = 16  # the fat-tree preset's host count


def _owner(**kwargs):
    cluster = Cluster.from_preset("fat_tree", nodes=8, ranks_per_node=2, contention="fair")
    kwargs.setdefault("seed", 5)
    return WorkloadEngine(cluster, policy="packed", **kwargs)


def _job(job_id, n_ranks, seed, iterations=1, elems=2048, **kwargs):
    return JobSpec(
        job_id=job_id, n_ranks=n_ranks, arrival=0.0, iterations=iterations, seed=seed,
        calls=(CollectiveCall(op="allreduce", msg_elems=elems),), **kwargs,
    )


def _train_and_side(**train_kwargs):
    """One long job to kill, one small survivor (``test_recovery``'s pair)."""
    return [_job("train", 8, 11, 8, 8192, **train_kwargs), _job("side", 4, 12, 2)]


def _loss(transient=False):
    """A node loss halfway through the healthy run, on one of train's nodes."""
    healthy = _owner().run(_train_and_side(), baseline=False)
    train = healthy.records[1]  # arrival ties sort by job id: side, train
    assert train.spec.job_id == "train"
    return FaultSchedule(events=(
        NodeLoss(
            time=healthy.makespan * 0.5, node=train.nodes[0],
            duration=healthy.makespan * 0.1 if transient else None,
        ),
    ))


def _scenarios():
    """name -> (engine kwargs, specs): every configuration the eight
    ``TestRecoveryRuns`` tests run (two of them share "checkpointed") and the
    queued mix of ``test_jobs_queue_fifo_when_fabric_is_full``."""
    loss, flap = _loss(), _loss(transient=True)
    elsewhere = dict(faults=loss, failure_policy="restart_elsewhere")
    return {
        "fail": (dict(faults=loss, failure_policy="fail"), _train_and_side()),
        "elsewhere": (elsewhere, _train_and_side()),
        "in_place_transient": (dict(faults=flap, failure_policy="restart"), _train_and_side()),
        "exhausted_budget": (dict(faults=loss, failure_policy="restart"), _train_and_side()),
        "checkpointed": (dict(elsewhere, checkpoint=2), _train_and_side()),
        "no_faults": (dict(failure_policy="restart", checkpoint=2), _train_and_side()),
        "spec_override": (
            dict(faults=loss, failure_policy="fail"),
            _train_and_side(failure_policy="restart_elsewhere", checkpoint_every=2),
        ),
        "queued_mix": ({}, [_job(f"q{i}", 18, i) for i in range(3)]),
    }


@pytest.fixture(scope="module")
def scenarios():
    built = _scenarios()
    assert tuple(built) == SCENARIO_NAMES
    return built


SCENARIO_NAMES = (
    "fail", "elsewhere", "in_place_transient", "exhausted_budget", "checkpointed",
    "no_faults", "spec_override", "queued_mix",
)


@pytest.fixture
def moves(monkeypatch):
    """job id -> the states its row went through, recorded at ``_move``."""
    paths = {}
    real = _Scheduler._move

    def recording(self, job, state):
        path = paths.setdefault(job.spec.job_id, [job.state])
        real(self, job, state)
        path.append(state)

    monkeypatch.setattr(_Scheduler, "_move", recording)
    return paths


def _overbooked(**kwargs):
    """Four jobs on 16 nodes — a, b fill the fabric (8 nodes each); c (6) and
    d (2) must queue — with every arrival fired by hand at t=0."""
    specs = [_job("a", 16, 1, 4), _job("b", 16, 2, 4), _job("c", 12, 3), _job("d", 4, 4)]
    scheduler = _Scheduler(_owner(**kwargs), specs, None)
    for job in scheduler.jobs.values():
        assert job.state == "DUE"
        scheduler.arrive(job, 0.0)
    return scheduler


class TestSteppingByHand:
    """(i) single events, no ``Engine.run``."""

    def test_arrivals_fill_the_fabric_then_queue_in_order(self):
        scheduler = _overbooked()
        jobs = scheduler.jobs
        assert {name: job.state for name, job in jobs.items()} == {
            "a": "RUNNING", "b": "RUNNING", "c": "QUEUED", "d": "QUEUED",
        }
        assert scheduler.queue == [jobs["c"], jobs["d"]]
        assert jobs["a"].record.nodes == tuple(range(8))
        assert jobs["b"].record.nodes == tuple(range(8, 16))
        assert jobs["a"].live.tag == "a" and jobs["c"].live is None
        assert scheduler.allocator.nodes_free == 0

    @pytest.mark.parametrize(
        "mode, state", [("restart_elsewhere", "BACKOFF"), ("fail", "FAILED")]
    )
    def test_node_loss_kills_quarantines_and_drains(self, mode, state):
        scheduler = _overbooked(failure_policy=mode)
        jobs = scheduler.jobs
        scheduler.node_lost(0, 1e-4)
        killed = jobs["a"]
        assert killed.state == state
        assert killed.live is None
        assert killed.retries_used == (1 if state == "BACKOFF" else 0)
        assert [a.reason for a in killed.record.attempts] == ["node_loss:0"]
        assert (killed.record.failure is not None) == (state == "FAILED")
        assert scheduler.allocator.quarantined == (0,)
        # seven healthy nodes came back: c (6) drains onto them, d (2) finds
        # one node left and keeps waiting; b never noticed
        assert jobs["c"].state == "RUNNING"
        assert jobs["c"].record.nodes == tuple(range(1, 7))
        assert jobs["c"].record.started == 1e-4
        assert scheduler.queue == [jobs["d"]] and jobs["d"].state == "QUEUED"
        assert jobs["b"].state == "RUNNING"
        assert scheduler.allocator.nodes_free == 1
        # the heal returns node 0 to service and the drain places d beside it
        scheduler.node_healed(0, 2e-4)
        assert scheduler.allocator.quarantined == ()
        assert jobs["d"].state == "RUNNING" and jobs["d"].record.nodes == (0, 7)
        assert scheduler.queue == []

    def test_a_retry_that_cannot_be_placed_backs_off_again(self):
        scheduler = _overbooked(failure_policy="restart")
        job = scheduler.jobs["a"]
        scheduler.node_lost(0, 1e-4)  # burns retry 1
        for used in range(2, MAX_RETRIES + 1):  # node 0 is still dark: burns one more
            scheduler.retry(job, used * 1e-4)
            assert job.state == "BACKOFF" and job.retries_used == used
            assert job not in scheduler.queue
        scheduler.retry(job, 9e-4)  # budget gone
        assert job.state == "FAILED"
        assert job.record.failure.time == 9e-4
        assert job.record.failure.reason == "node_loss:0"


class TestTheTableIsTheBehaviour:
    """(ii) every run is a walk over the one transition table."""

    def test_the_table(self):
        assert {state: set(after) for state, after in _TRANSITIONS.items()} == {
            "DUE": {"QUEUED", "RUNNING"},
            "QUEUED": {"RUNNING"},
            "RUNNING": {"DONE", "BACKOFF", "FAILED"},
            "BACKOFF": {"RUNNING", "BACKOFF", "FAILED"},
        }  # DONE and FAILED are terminal: no row, no way out

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_job_walks_table_edges_from_due_to_a_terminal_state(
        self, scenarios, moves, name
    ):
        kwargs, specs = scenarios[name]
        report = _owner(**kwargs).run(specs, baseline=False)
        assert set(moves) == {spec.job_id for spec in specs}
        for record in report.records:
            path = moves[record.spec.job_id]
            assert path[0] == "DUE"
            assert path[-1] == ("DONE" if record.completed else "FAILED")
            assert all(after in _TRANSITIONS[before] for before, after in zip(path, path[1:]))
            assert path.count("BACKOFF") >= record.restarts

    def test_paths_of_the_named_scenarios(self, scenarios, moves):
        def walk(name):
            moves.clear()
            kwargs, specs = scenarios[name]
            _owner(**kwargs).run(specs, baseline=False)
            return dict(moves)

        # BACKOFF is entered MAX_RETRIES times: a retry whose placement
        # fails backs off again, it does not rejoin the queue
        assert walk("exhausted_budget")["train"] == [
            "DUE", "RUNNING", *["BACKOFF"] * MAX_RETRIES, "FAILED",
        ]
        assert walk("fail")["train"] == ["DUE", "RUNNING", "FAILED"]
        assert walk("elsewhere")["train"] == ["DUE", "RUNNING", "BACKOFF", "RUNNING", "DONE"]
        assert walk("queued_mix") == {
            "q0": ["DUE", "RUNNING", "DONE"],
            "q1": ["DUE", "QUEUED", "RUNNING", "DONE"],
            "q2": ["DUE", "QUEUED", "RUNNING", "DONE"],
        }


class TestLawsAfterAWholeRun:
    """(iii) what must hold once the engine ran dry."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_nothing_is_left_held_and_every_second_is_booked(self, scenarios, name):
        kwargs, specs = scenarios[name]
        scheduler = _Scheduler(_owner(**kwargs), sorted(specs, key=lambda s: s.job_id), None)
        records, _ = scheduler.run()
        assert scheduler.queue == []
        assert all(job.live is None for job in scheduler.jobs.values())
        assert all(job.state in ("DONE", "FAILED") for job in scheduler.jobs.values())
        allocator = scheduler.allocator
        assert allocator.nodes_free + len(allocator.quarantined) == N_NODES
        for record in records:
            spans = [attempt.ended - attempt.started for attempt in record.attempts]
            if record.completed:
                last_start = record.started
                if record.restarts:
                    last_start = record.attempts[-1].ended + record.recovery_times[-1]
                spans.append(record.finished - last_start)
            assert record.useful_time + record.wasted_time == pytest.approx(
                sum(spans), rel=1e-12
            )


class TestTheLawCanFail:
    """(iv) an illegal event raises, names both states and mutates nothing."""

    def test_retire_and_back_off_on_a_done_row(self):
        scheduler = _Scheduler(_owner(), [_job("solo", 4, 1)], None)
        scheduler.run()
        job = scheduler.jobs["solo"]
        assert job.state == "DONE"
        before = copy.deepcopy(job.record)
        with pytest.raises(RuntimeError, match=r"'solo'.* DONE -> DONE"):
            scheduler.retire(job, None)
        with pytest.raises(RuntimeError, match=r"'solo'.* DONE -> FAILED"):
            scheduler.back_off(job, 1.0)
        assert job.record == before and job.state == "DONE"
        assert scheduler.allocator.nodes_free == N_NODES

    def test_a_failed_row_never_runs_again(self):
        scheduler = _overbooked(failure_policy="fail")
        scheduler.node_lost(0, 1e-4)
        job = scheduler.jobs["a"]
        before = copy.deepcopy(job.record)
        with pytest.raises(RuntimeError, match=r"'a'.* FAILED -> RUNNING"):
            scheduler._move(job, "RUNNING")
        assert job.record == before and job.state == "FAILED"

    def test_a_second_arrival_on_a_full_fabric_does_not_queue_a_running_job(self):
        scheduler = _overbooked()
        job = scheduler.jobs["b"]
        before, queue = copy.deepcopy(job.record), list(scheduler.queue)
        with pytest.raises(RuntimeError, match=r"'b'.* RUNNING -> QUEUED"):
            scheduler.arrive(job, 1e-4)
        assert job.record == before and job.state == "RUNNING"
        assert scheduler.queue == queue

    def test_a_second_arrival_with_room_to_spare_leases_nothing(self):
        scheduler = _Scheduler(_owner(), [_job("a", 4, 1)], None)
        job = scheduler.jobs["a"]
        scheduler.arrive(job, 0.0)
        free = scheduler.allocator.nodes_free
        assert job.state == "RUNNING" and free == N_NODES - 2
        before, live = copy.deepcopy(job.record), job.live
        for illegal in (scheduler.arrive, scheduler.start, scheduler.retry):
            with pytest.raises(RuntimeError, match=r"'a'.* RUNNING -> "):
                illegal(job, 1e-4)
            assert scheduler.allocator.nodes_free == free
            assert scheduler.queue == []
            assert job.record == before and job.state == "RUNNING" and job.live is live

    def test_kill_refuses_a_row_that_is_not_running(self):
        scheduler = _Scheduler(_owner(), [_job("solo", 4, 1)], None)
        job = scheduler.jobs["solo"]
        for state in ("DUE", "DONE"):
            assert job.state == state
            before = copy.deepcopy(job.record)
            with pytest.raises(RuntimeError, match=rf"'solo'.* {state}"):
                scheduler.kill(job, 0, 1e-4)
            assert job.record == before and job.state == state and job.live is None
            assert scheduler.allocator.nodes_free == N_NODES
            assert scheduler.allocator.quarantined == () and scheduler.queue == []
            if state == "DUE":
                scheduler.run()
