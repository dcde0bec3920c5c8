"""Recovery semantics: retry backoff, checkpoint/restart, accounting."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from repro import workload
from repro.api import Cluster
from repro.faults import FaultInjector, FaultSchedule, NodeLoss
from repro.workload import CollectiveCall, JobFailed, JobSpec, WorkloadEngine
from repro.workload.recovery import (
    BACKOFF,
    BACKOFF_FACTOR,
    JITTER,
    MAX_RETRIES,
    WRITE_BANDWIDTH,
    WRITE_LATENCY,
    checkpoint_cost,
    retry_delay,
    takes_checkpoint,
)


class TestRetryDelay:
    def test_delay_backs_off_exponentially(self):
        assert [retry_delay(i) for i in range(4)] == [
            BACKOFF, BACKOFF * BACKOFF_FACTOR, BACKOFF * BACKOFF_FACTOR**2,
            BACKOFF * BACKOFF_FACTOR**3,
        ]
        assert [retry_delay(i) for i in range(4)] == pytest.approx([2e-4, 4e-4, 8e-4, 1.6e-3])
        assert retry_delay(-1) == retry_delay(0)

    def test_the_budget_is_four_retries(self):
        assert MAX_RETRIES == 4


class TestCheckpoints:
    def test_takes_checkpoint_skips_the_final_step(self):
        took = [takes_checkpoint(step, 2, 6) for step in range(6)]
        # after steps 1 and 3 only: step 5 is the last, nothing left to protect
        assert took == [False, True, False, True, False, False]
        assert [takes_checkpoint(step, 1, 3) for step in range(3)] == [True, True, False]

    def test_cost_is_seeded_and_positive(self):
        spec = JobSpec(job_id="c", n_ranks=4, seed=9,
                       calls=(CollectiveCall(msg_elems=4096),))
        base = WRITE_LATENCY + 4 * 4096 * 8 / WRITE_BANDWIDTH  # ranks x elems x f64
        costs = [checkpoint_cost(spec, step) for step in range(4)]
        assert all(base * (1 - JITTER) <= c <= base * (1 + JITTER) for c in costs)
        assert len(set(costs)) > 1  # jitter varies per step...
        assert costs == [checkpoint_cost(spec, step) for step in range(4)]  # ...but replays
        assert checkpoint_cost(spec, 0) != checkpoint_cost(replace(spec, seed=10), 0)

    def test_cost_models_the_largest_per_rank_payload(self):
        calls = (CollectiveCall(msg_elems=4096), CollectiveCall(msg_elems=10000, dtype="float32"))
        spec = JobSpec(job_id="c", n_ranks=2, seed=9, calls=calls)
        base = WRITE_LATENCY + 2 * 10000 * 4 / WRITE_BANDWIDTH
        assert base * (1 - JITTER) <= checkpoint_cost(spec, 0) <= base * (1 + JITTER)


class TestRecoverySurface:
    """A job's recovery is a mode and an interval; every other number is a constant."""

    def test_a_mode_and_an_interval_are_the_only_recovery_values(self):
        assert not [name for name in workload.__all__ if name.endswith("Policy")]
        parameters = inspect.signature(WorkloadEngine.__init__).parameters
        assert list(parameters) == [
            "self", "cluster", "nodes", "policy", "seed", "record_values", "faults",
            "failure_policy", "checkpoint",
        ]
        assert parameters["failure_policy"].annotation in (str, "str")
        assert parameters["failure_policy"].default == "fail"
        assert parameters["checkpoint"].annotation in (int, "int")
        assert parameters["checkpoint"].default == 0
        assert "node_loss_factor" not in inspect.signature(FaultInjector.__init__).parameters

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(failure_policy="reincarnate"), "unknown failure policy"),
            (dict(failure_policy=None), "unknown failure policy"),
            (dict(checkpoint=True), "checkpoint must be an integer"),
            (dict(checkpoint=2.0), "checkpoint must be an integer"),
            (dict(checkpoint=-1), "checkpoint must be >= 0"),
            (dict(checkpoint=None), "checkpoint must be an integer"),
        ],
    )
    def test_the_engine_refuses_a_bad_mode_or_interval(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            WorkloadEngine(_cluster(), **kwargs)

    @pytest.mark.parametrize("every", [np.int64(2), np.int32(0)])
    def test_the_engine_takes_a_numpy_interval_as_a_spec_does(self, every):
        engine = WorkloadEngine(_cluster(), checkpoint=every)
        assert engine.checkpoint == every and type(engine.checkpoint) is int
        JobSpec(job_id="x", n_ranks=2, checkpoint_every=every)

    @pytest.mark.parametrize("every", [1.5, 2.5, 2.0, True, False, "2"])
    def test_a_spec_refuses_the_intervals_the_engine_refuses(self, every):
        with pytest.raises(ValueError, match="checkpoint_every must be an integer"):
            JobSpec(job_id="x", n_ranks=2, checkpoint_every=every)
        with pytest.raises(ValueError, match="checkpoint must be an integer"):
            WorkloadEngine(_cluster(), checkpoint=every)


def _cluster(nodes=8):
    return Cluster.from_preset(
        "fat_tree", nodes=nodes, ranks_per_node=2, contention="fair"
    )


def _specs():
    """One long job to kill, one small survivor."""
    return [
        JobSpec(job_id="train", n_ranks=8, arrival=0.0, iterations=8, seed=11,
                calls=(CollectiveCall(op="allreduce", msg_elems=8192),)),
        JobSpec(job_id="side", n_ranks=4, arrival=0.0, iterations=2, seed=12,
                calls=(CollectiveCall(op="allreduce", msg_elems=2048),)),
    ]


def _run(faults=None, failure_policy="fail", checkpoint=0, specs=None):
    engine = WorkloadEngine(
        _cluster(), policy="packed", seed=5,
        faults=faults, failure_policy=failure_policy, checkpoint=checkpoint,
    )
    return engine.run(specs if specs is not None else _specs(), baseline=False)


def _loss_schedule(transient=False):
    """A node loss halfway through the healthy run, on one of train's nodes."""
    healthy = _run()
    train = next(r for r in healthy.records if r.spec.job_id == "train")
    duration = healthy.makespan * 0.1 if transient else None
    return healthy, FaultSchedule(events=(
        NodeLoss(time=healthy.makespan * 0.5, node=train.nodes[0],
                 duration=duration),
    ))


class TestRecoveryRuns:
    def test_fail_policy_loses_the_job_and_spares_the_survivor(self):
        healthy, faults = _loss_schedule()
        report = _run(faults=faults, failure_policy="fail")
        by_id = {r.spec.job_id: r for r in report.records}
        train = by_id["train"]
        assert train.outcome == "failed"
        assert train.finished is None
        assert isinstance(train.failure, JobFailed)
        assert train.failure.attempts == 1
        assert "node_loss" in train.failure.reason
        assert train.attempts[0].reason == f"node_loss:{train.nodes[0]}"
        assert train.useful_time == 0.0 and train.wasted_time > 0.0
        # the survivor finished before the loss and is untouched
        side = next(r for r in healthy.records if r.spec.job_id == "side")
        assert by_id["side"].finished == side.finished
        assert report.failed_jobs == 1
        assert report.goodput < 1.0

    def test_restart_elsewhere_recovers_around_a_permanent_loss(self):
        _, faults = _loss_schedule()
        lost_node = faults.events[0].node
        report = _run(faults=faults, failure_policy="restart_elsewhere")
        train = next(r for r in report.records if r.spec.job_id == "train")
        assert train.outcome == "completed"
        assert train.restarts == 1
        assert len(train.attempts) == 1
        assert lost_node in train.attempts[0].nodes
        assert lost_node not in train.nodes  # re-placed off the dead node
        assert train.goodput is not None and train.goodput > 0.0
        assert report.total_restarts == 1
        assert report.recovery_summary()["count"] == 1.0

    def test_restart_waits_out_a_transient_loss_on_the_same_nodes(self):
        healthy, faults = _loss_schedule(transient=True)
        report = _run(faults=faults, failure_policy="restart")
        train = next(r for r in report.records if r.spec.job_id == "train")
        assert train.outcome == "completed"
        assert train.restarts == 1
        # in-place restart: the second placement is the original node set
        assert train.nodes == train.attempts[0].nodes
        healthy_train = next(
            r for r in healthy.records if r.spec.job_id == "train"
        )
        assert train.finished > healthy_train.finished

    def test_restart_on_a_permanent_loss_exhausts_the_budget(self):
        _, faults = _loss_schedule()
        report = _run(faults=faults, failure_policy="restart")
        train = next(r for r in report.records if r.spec.job_id == "train")
        # the original node set never heals, so every retry fails to place:
        # the job fails at the last of MAX_RETRIES backed-off retries
        assert train.outcome == "failed"
        assert train.failure is not None
        assert len(train.attempts) == 1 and train.restarts == 0
        when = faults.events[0].time
        for retry in range(MAX_RETRIES):
            when += retry_delay(retry)
        assert train.failure.time == when

    def test_checkpoints_shrink_the_replay(self):
        _, faults = _loss_schedule()
        plain = _run(faults=faults, failure_policy="restart_elsewhere")
        ckpt = _run(faults=faults, failure_policy="restart_elsewhere",
                    checkpoint=2)
        plain_train = next(
            r for r in plain.records if r.spec.job_id == "train"
        )
        ckpt_train = next(r for r in ckpt.records if r.spec.job_id == "train")
        assert plain_train.outcome == ckpt_train.outcome == "completed"
        assert plain_train.attempts[0].next_resume_step == 0
        assert ckpt_train.attempts[0].next_resume_step > 0
        assert ckpt_train.checkpoints_written > 0
        assert ckpt_train.checkpoint_overhead > 0.0
        assert ckpt_train.last_durable_step == 8  # completion is durable
        assert ckpt_train.wasted_time < plain_train.wasted_time

    def test_identical_runs_replay_bit_for_bit(self):
        _, faults = _loss_schedule()
        first = _run(faults=faults, failure_policy="restart_elsewhere",
                     checkpoint=2)
        second = _run(faults=faults, failure_policy="restart_elsewhere",
                      checkpoint=2)
        assert first.to_dict() == second.to_dict()

    def test_empty_schedule_is_identical_across_every_policy(self):
        """Acceptance pin: no faults => recovery knobs change nothing."""
        baseline = _run()
        base = [
            (r.started, r.finished, r.bytes_sent, r.fair_bytes)
            for r in baseline.records
        ]
        for mode in ("fail", "restart", "restart_elsewhere"):
            for every in (0, 2):
                report = _run(failure_policy=mode, checkpoint=every)
                got = [
                    (r.started, r.finished, r.bytes_sent, r.fair_bytes)
                    for r in report.records
                ]
                assert got == base, (mode, every)
                assert report.makespan == baseline.makespan
                assert all(r.restarts == 0 for r in report.records)

    def test_a_healed_flap_does_not_return_a_node_lost_for_good(self):
        faults = FaultSchedule(events=(
            NodeLoss(time=1e-3, node=2),
            NodeLoss(time=2e-3, node=2, duration=1e-3),
        ))
        # four two-node jobs after the flap healed want all eight nodes
        specs = [
            JobSpec(job_id=f"late{index}", n_ranks=4, arrival=4e-3, iterations=1,
                    seed=20 + index,
                    calls=(CollectiveCall(op="allreduce", msg_elems=2048),))
            for index in range(4)
        ]
        report = _run(faults=faults, specs=specs)
        assert [r.outcome for r in report.records] == ["completed"] * 4
        assert all(2 not in r.nodes for r in report.records)

    def test_spec_level_policy_overrides_the_engine_default(self):
        _, faults = _loss_schedule()
        specs = _specs()
        specs[0] = JobSpec(
            job_id="train", n_ranks=8, arrival=0.0, iterations=8, seed=11,
            calls=(CollectiveCall(op="allreduce", msg_elems=8192),),
            failure_policy="restart_elsewhere", checkpoint_every=2,
        )
        report = _run(faults=faults, failure_policy="fail", specs=specs)
        train = next(r for r in report.records if r.spec.job_id == "train")
        assert train.outcome == "completed" and train.restarts == 1
        assert train.checkpoints_written > 0


class TestSpecRoundTrip:
    def test_recovery_fields_serialise_only_when_set(self):
        plain = JobSpec(job_id="p", n_ranks=2)
        assert "failure_policy" not in plain.to_dict()
        assert "checkpoint_every" not in plain.to_dict()
        assert JobSpec.from_dict(plain.to_dict()) == plain

        tuned = JobSpec(job_id="t", n_ranks=2, failure_policy="restart",
                        checkpoint_every=3)
        data = tuned.to_dict()
        assert data["failure_policy"] == "restart"
        assert data["checkpoint_every"] == 3
        assert JobSpec.from_dict(data) == tuned

    def test_old_dicts_without_recovery_keys_load_as_inherit(self):
        data = JobSpec(job_id="old", n_ranks=2).to_dict()
        data.pop("failure_policy", None)
        data.pop("checkpoint_every", None)
        spec = JobSpec.from_dict(data)
        assert spec.failure_policy is None
        assert spec.checkpoint_every is None

    def test_spec_validates_recovery_fields(self):
        with pytest.raises(ValueError, match="unknown failure policy"):
            JobSpec(job_id="bad", n_ranks=2, failure_policy="shrug")
        with pytest.raises(ValueError, match="checkpoint_every"):
            JobSpec(job_id="bad", n_ranks=2, checkpoint_every=-1)
