"""Job specs, seeded inputs, arrival mixes, and JSONL trace round-trips."""

import numpy as np
import pytest

from repro.api import Cluster
from repro.api.communicator import C_VARIANTS, COMPRESSION_MODES
from repro.workload import (
    COLLECTIVE_OPS,
    CollectiveCall,
    JobMix,
    JobSpec,
    TraceFormatError,
    call_inputs,
    compile_job,
    load_trace,
    save_trace,
)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="x", n_ranks=1)
        with pytest.raises(ValueError):
            JobSpec(job_id="x", n_ranks=2, arrival=-1.0)
        with pytest.raises(ValueError):
            JobSpec(job_id="x", n_ranks=2, iterations=0)
        with pytest.raises(ValueError):
            JobSpec(job_id="x", n_ranks=2, calls=())
        with pytest.raises(ValueError):
            CollectiveCall(op="transmogrify")
        with pytest.raises(ValueError):
            CollectiveCall(msg_elems=0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_arrival_is_refused(self, arrival):
        """Regression: NaN passed ``arrival < 0`` and made the report's slowdowns NaN."""
        with pytest.raises(ValueError, match="arrival must be a finite time"):
            JobSpec(job_id="x", n_ranks=2, arrival=arrival)

    @pytest.mark.parametrize(
        "field, value",
        [("dtype", "int32"), ("dtype", "floaty"), ("compression", "psychic"), ("algorithm", "bogus")],
    )  # fmt: skip
    def test_a_call_that_cannot_compile_is_refused_when_written_down(self, field, value):
        with pytest.raises(ValueError, match=rf"{field}.*{value}"):
            CollectiveCall(**{field: value})

    @pytest.mark.parametrize(
        "op, mode",
        [("bcast", "nd"), ("allgather", "nd"), ("reduce_scatter", "di")],
    )  # fmt: skip
    def test_a_mode_the_op_does_not_run_is_refused_when_written_down(self, op, mode):
        """Regression: these compiled only when the job arrived, and died mid-run."""
        with pytest.raises(ValueError, match=f"is not available for {op}"):
            CollectiveCall(op=op, compression=mode)

    def test_every_mode_the_table_lists_constructs(self):
        for op in COLLECTIVE_OPS:
            for spelling, label in COMPRESSION_MODES.items():
                if label in (*C_VARIANTS[op], "auto"):
                    CollectiveCall(op=op, compression=spelling)

    @pytest.mark.parametrize("spelling", [" ON ", "ND", "cpr-p2p", "Overlap", "on "])
    def test_a_spelling_that_is_not_exact_is_refused(self, spelling):
        with pytest.raises(ValueError, match="it takes 'off'"):
            CollectiveCall(compression=spelling)

    @pytest.mark.parametrize(
        "field, value",
        [("n_ranks", 4.5), ("n_ranks", 4.0), ("iterations", 1.5), ("seed", 1.5), ("seed", True), ("seed", "7")],
    )  # fmt: skip
    def test_a_non_integer_job_size_is_refused(self, field, value):
        """Regression: these raised a bare TypeError inside ``Engine.run``."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            JobSpec(**{"job_id": "x", "n_ranks": 2, field: value})

    @pytest.mark.parametrize("value", [2.5, 1024.0, True])
    def test_a_non_integer_message_size_is_refused(self, value):
        with pytest.raises(ValueError, match="msg_elems must be an integer"):
            CollectiveCall(msg_elems=value)

    def test_numpy_integers_are_integers(self):
        spec = JobSpec(job_id="x", n_ranks=np.int64(4), iterations=np.int32(2), seed=np.int64(7))
        assert spec.n_steps == 2
        CollectiveCall(msg_elems=np.int64(64))

    def test_every_default_the_mixes_draw_from_constructs(self):
        mix = JobMix()
        for op in mix.ops:
            for compression in mix.compressions:
                for dtype in mix.dtypes:
                    CollectiveCall(op=op, dtype=dtype, compression=compression)

    def test_n_steps_and_at_arrival(self):
        spec = JobSpec(
            job_id="j", n_ranks=4, iterations=3,
            calls=(CollectiveCall(), CollectiveCall(op="bcast")),
        )
        assert spec.n_steps == 6
        moved = spec.at_arrival(0.0)
        assert moved.arrival == 0.0 and moved.job_id == spec.job_id

    def test_dict_round_trip(self):
        spec = JobSpec(
            job_id="j", n_ranks=4, arrival=0.5, iterations=2, seed=99,
            calls=(CollectiveCall(op="allgather", msg_elems=77, compression="on"),),
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestCallInputs:
    def test_deterministic_per_step_and_distinct_across_steps(self):
        spec = JobSpec(job_id="j", n_ranks=4, seed=5)
        call = spec.calls[0]
        a, b = call_inputs(spec, call, 0), call_inputs(spec, call, 0)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = call_inputs(spec, call, 1)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize(
        "dtype, first_rank, last_rank",
        [
            (
                "float64",
                [0.4154250695741336, 0.9141324883890876, -0.33284087784021577],
                [2.193531642146964, 1.4669175946861397, 1.265403840660142],
            ),
            (
                "float32",
                [0.41542506217956543, 0.9141324758529663, -0.3328408896923065],
                [2.1935317516326904, 1.466917634010315, 1.2654038667678833],
            ),
        ],
    )
    def test_the_drawn_values_are_pinned(self, dtype, first_rank, last_rank):
        """Taken before float64 draws stopped being copied by ``astype``."""
        call = CollectiveCall(op="allreduce", msg_elems=64, dtype=dtype)
        spec = JobSpec(job_id="pin", n_ranks=3, seed=11, calls=(call,))
        inputs = call_inputs(spec, call, 5)
        assert all(buffer.dtype == np.dtype(dtype) and buffer.flags.owndata for buffer in inputs)
        assert inputs[0][:3].tolist() == first_rank
        assert inputs[2][:3].tolist() == last_rank

    def test_reduce_scatter_widens_to_rank_count(self):
        spec = JobSpec(job_id="j", n_ranks=8)
        call = CollectiveCall(op="reduce_scatter", msg_elems=3)
        inputs = call_inputs(spec, call, 0)
        assert all(arr.size == 8 for arr in inputs)


class TestCompile:
    def test_compile_counts_steps_and_checks_slot_arity(self):
        cluster = Cluster.from_preset("fat_tree", ranks_per_node=2)
        spec = JobSpec(job_id="j", n_ranks=4, iterations=2,
                       calls=(CollectiveCall(msg_elems=64),))
        compiled = compile_job(spec, cluster, (0, 1, 2, 3))
        assert len(compiled.step_factories) == 2
        assert compiled.step_calls == [spec.calls[0]] * 2
        with pytest.raises(ValueError, match="4 ranks but 2 slots"):
            compile_job(spec, cluster, (0, 1))


class TestJobMix:
    def test_generation_is_deterministic_and_arrival_ordered(self):
        mix = JobMix(n_jobs=12, arrival_rate=100.0)
        a, b = mix.generate(3), mix.generate(3)
        assert a == b
        arrivals = [spec.arrival for spec in a]
        assert arrivals == sorted(arrivals)
        assert len({spec.job_id for spec in a}) == 12
        assert mix.generate(4) != a

    def test_validation(self):
        with pytest.raises(ValueError):
            JobMix(n_jobs=0)
        with pytest.raises(ValueError):
            JobMix(arrival_rate=0.0)

    def test_reduce_scatter_payloads_cover_ranks(self):
        mix = JobMix(n_jobs=40, msg_elems=(4,), sizes=(8,), ops=("reduce_scatter",))
        for spec in mix.generate(1):
            for call in spec.calls:
                assert call.msg_elems >= spec.n_ranks


class TestTraces:
    def test_jsonl_round_trip(self, tmp_path):
        specs = JobMix(n_jobs=6).generate(11)
        path = tmp_path / "mix.jsonl"
        save_trace(specs, path)
        assert load_trace(path) == specs
        # blank lines are tolerated (hand-edited traces)
        path.write_text(path.read_text() + "\n\n")
        assert load_trace(path) == specs

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(JobMix(n_jobs=6).generate(11), first)
        save_trace(load_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_hand_written_job_without_calls_gets_the_default_call(self, tmp_path):
        """Regression: ``from_dict`` forced ``calls=()`` and the spec refused itself."""
        spec = JobSpec.from_dict({"job_id": "a", "n_ranks": 2})
        assert spec == JobSpec(job_id="a", n_ranks=2)
        assert spec.calls == (CollectiveCall(),)
        path = tmp_path / "hand.jsonl"
        path.write_text('{"job_id": "a", "n_ranks": 2}\n')
        assert load_trace(path) == [spec]
        with pytest.raises(ValueError, match="at least one collective call"):
            JobSpec.from_dict({"job_id": "a", "n_ranks": 2, "calls": []})

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ('{"job_id": "a", "n_ranks": 2', "Expecting"),  # truncated JSON
            ('{"job_id": "a", "n_ranks": 2, "color": "red"}', "unexpected keyword argument 'color'"),
            ('{"n_ranks": 2}', "job_id"),  # missing required key
            ("[1, 2, 3]", "dictionary update sequence"),  # not an object
            ("7", "not iterable"),
            ('{"job_id": "a", "n_ranks": 1}', "n_ranks >= 2"),  # JobSpec's own validation
            ('{"job_id": "a", "n_ranks": "two"}', "not supported between"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"op": "transmogrify"}]}', "unknown collective op"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"elems": 4}]}', "unexpected keyword argument 'elems'"),
            ('{"job_id": "a", "n_ranks": 2, "calls": 3}', "not iterable"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"dtype": "int32"}]}', "numpy floating dtype"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"compression": true}]}', "compression=True is not available"),
        ],
    )  # fmt: skip
    def test_malformed_line_raises_one_typed_error_with_its_line_number(
        self, tmp_path, line, complaint
    ):
        path = tmp_path / "bad.jsonl"
        good = '{"job_id": "ok", "n_ranks": 2}'
        path.write_text(f"{good}\n\n{line}\n{good}\n")
        with pytest.raises(TraceFormatError) as caught:
            load_trace(path)
        message = str(caught.value)
        assert message.startswith(f"{path}:3: ")  # the blank line 2 still counts
        assert complaint in message
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_a_non_finite_arrival_line_is_refused_by_line(self, tmp_path, literal):
        """``json`` reads ``NaN`` / ``Infinity``; the job must not run with them."""
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"job_id": "ok", "n_ranks": 2}\n'
            f'{{"job_id": "a", "n_ranks": 2, "arrival": {literal}}}\n'
        )
        with pytest.raises(TraceFormatError) as caught:
            load_trace(path)
        assert str(caught.value).startswith(f"{path}:2: arrival must be a finite time")

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ('{"job_id": "a", "n_ranks": 4.5}', "n_ranks must be an integer, got 4.5"),
            ('{"job_id": "a", "n_ranks": 2, "iterations": 1.5}', "iterations must be an integer"),
            ('{"job_id": "a", "n_ranks": 2, "seed": 1.5}', "seed must be an integer"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"msg_elems": 2.5}]}', "msg_elems must be an integer"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"op": "bcast", "compression": "nd"}]}', "'nd' is not available for bcast"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"op": "reduce_scatter", "compression": "di"}]}', "'di' is not available for reduce_scatter"),
            ('{"job_id": "a", "n_ranks": 2, "calls": [{"compression": "ON"}]}', "'ON' is not available for allreduce"),
            ('{"job_id": "a", "n_ranks": 2, "checkpoint_every": 2.5}', "checkpoint_every must be an integer, got 2.5"),
            ('{"job_id": "a", "n_ranks": 2, "checkpoint_every": 1.0}', "checkpoint_every must be an integer, got 1.0"),
            ('{"job_id": "a", "n_ranks": 2, "checkpoint_every": true}', "checkpoint_every must be an integer, got True"),
            ('{"job_id": "a", "n_ranks": 2, "checkpoint_every": -1}', "checkpoint_every must be >= 0, got -1"),
        ],
    )  # fmt: skip
    def test_a_line_that_would_fail_mid_run_is_refused_by_line(self, tmp_path, line, complaint):
        path = tmp_path / "late.jsonl"
        path.write_text(f'{{"job_id": "ok", "n_ranks": 2}}\n{line}\n')
        with pytest.raises(TraceFormatError) as caught:
            load_trace(path)
        assert str(caught.value).startswith(f"{path}:2: ")
        assert complaint in str(caught.value)
