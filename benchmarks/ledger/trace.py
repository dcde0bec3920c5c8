"""Wall-clock spans around the layers' public functions, from outside the program.

:class:`Tracer` swaps timing wrappers in for the public functions of each
layer — on the class or module attribute where callers look them up — and
puts the originals back on exit.  A span is ``(key, parent, start, end,
note)``: ``key`` names the wrapped function (its prefix is the layer),
``parent`` is the index of the span that was open when it started.  The log
stays in memory; :func:`layer_metrics` aggregates it after the traced reps.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the covered wall time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.mpisim.network as network_module
import repro.workload.engine as workload_engine_module
from repro.api import Communicator
from repro.compression import PipelinedSZx, SZxCompressor, ZFPCompressor
from repro.faults import FaultInjector
from repro.mpisim.engine import Engine
from repro.mpisim.fairshare import FairShareRegistry
from repro.mpisim.topology import SwitchFabricTopology, Topology
from repro.workload import WorkloadEngine

Span = Tuple[str, int, float, float, Any]

API_CALLS = (
    "allreduce", "allgather", "bcast", "scatter", "reduce_scatter",
    "gather", "reduce", "alltoall", "barrier", "capture",
)  # fmt: skip
FAIRSHARE_CALLS = (
    "open_flow", "earliest_departure", "commit_departure", "cancel_flow",
    "apply_capacity_change",
)  # fmt: skip


def layer_of(key: str) -> str:
    return key.rsplit(".", 1)[0]


def _changing(name: str, index: int, change: Callable) -> Callable:
    """A ``rewrite`` hook passing one argument, given by keyword ``name`` or at
    position ``index`` (``self`` is 0), through ``change``."""

    def rewrite(args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
        if name in kwargs:
            return args, {**kwargs, name: change(kwargs[name])}
        return args[:index] + (change(args[index]),) + args[index + 1 :], kwargs

    return rewrite


class Tracer:
    """Context manager: wrappers installed on entry, originals restored on exit.

    A wrapper only appends doubles to one ``array``: the cheapest thing it can
    do, and memory the garbage collector never walks (a list of a million
    span tuples makes every collection inside a traced rep slower than the
    one before).  The log reads:

    * ``-k``, then a time: a span of ``self.keys[k]`` opens at that time;
    * a positive value: the innermost open span closes at that time;
    * ``0.0``, a count ``n``, then ``n`` values: the innermost open span's note.

    :meth:`spans` rebuilds the span tree from the log.
    """

    def __init__(self) -> None:
        self.keys: List[str] = [""]  # key 0 is the note marker
        self._log = array("d")
        self._originals: List[Tuple[Any, str, Any]] = []
        #: Engine.event_counts of every engine that ran, summed per kind
        self.engine_events: Dict[str, int] = defaultdict(int)
        self._send_opener = self._opener("collectives.send")

    def _opener(self, key: str) -> float:
        if key not in self.keys:
            self.keys.append(key)
        return -float(self.keys.index(key))

    def spans(self) -> List[Span]:
        """Every closed span as ``(key, parent, start, end, note)``, in start order."""
        out: List[list] = []
        open_spans: List[int] = []
        log = iter(self._log)
        for value in log:
            if value < 0.0:
                start = next(log)
                out.append([self.keys[int(-value)], open_spans[-1] if open_spans else -1,
                            start, start, None])  # fmt: skip
                open_spans.append(len(out) - 1)
            elif value == 0.0:
                out[open_spans[-1]][4] = tuple(next(log) for _ in range(int(next(log))))
            else:
                out[open_spans.pop()][3] = value
        return [tuple(span) for span in out]

    # ------------------------------------------------------------ wrappers

    def _timed(
        self,
        key: str,
        fn: Callable,
        rewrite: Optional[Callable[[tuple, dict], Tuple[tuple, dict]]] = None,
        note: Optional[Callable[[tuple, Any], Tuple[float, ...]]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``rewrite`` edits its arguments first and
        ``note`` turns (arguments, result) into the numbers of the span's note."""
        push, clock, opener = self._log.append, time.perf_counter, self._opener(key)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(args, kwargs)
            push(opener)
            push(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                push(clock())
                raise
            end = clock()
            if note is not None:
                numbers = note(args, result)
                push(0.0)
                push(len(numbers))
                for number in numbers:
                    push(number)
            push(end)
            return result

        return wrapped

    def _timed_program(self, program):
        """``program`` with every ``send`` inside a ``collectives.send`` span.

        The send that ends the program instead of yielding a command carries
        the empty note.
        """
        push, clock, opener = self._log.append, time.perf_counter, self._send_opener
        send = program.send
        value = None
        try:
            while True:
                push(opener)
                push(clock())
                try:
                    command = send(value)
                except StopIteration as stop:
                    push(0.0)
                    push(0.0)
                    return stop.value
                finally:
                    push(clock())
                value = yield command
        finally:
            program.close()

    # ----------------------------------------------------- install / restore

    def targets(self) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
        """Every ``(owner, attribute, wrap)`` this tracer patches."""

        def span(key, **hooks):
            return lambda fn: self._timed(key, fn, **hooks)

        def timed_factory(factory):
            # Engine(n_ranks, program_factory, ...): None means a multi-job engine
            if factory is None:
                return None
            return lambda rank, size: self._timed_program(factory(rank, size))

        def timed_thunks(programs):
            # Engine.bind_job(time, programs, ...): programs maps slot -> thunk
            return {
                slot: (lambda thunk=thunk: self._timed_program(thunk()))
                for slot, thunk in programs.items()
            }

        def engine_ran(args, result):
            for kind, count in args[0].event_counts.items():
                self.engine_events[kind] += count
            return ()

        out = []
        for codec in (SZxCompressor, PipelinedSZx, ZFPCompressor):
            out.append((codec, "compress_bytes", span(
                "compression.compress", note=lambda args, payload: (args[1].nbytes, len(payload)))))
            out.append((codec, "decompress_bytes", span(
                "compression.decompress", note=lambda args, data: (data.nbytes, len(args[1])))))
        out.append((Engine, "__init__", span(
            "mpisim.engine.init", rewrite=_changing("program_factory", 2, timed_factory))))
        out.append((Engine, "bind_job", span(
            "mpisim.engine.bind_job", rewrite=_changing("programs", 2, timed_thunks))))
        out.append((Engine, "run", span("mpisim.engine.run", note=engine_ran)))
        out.append((Engine, "kill_job", span("mpisim.engine.kill_job")))
        out.append((Engine, "schedule_event", span("mpisim.engine.schedule_event")))
        for name in FAIRSHARE_CALLS:
            out.append((FairShareRegistry, name, span(f"mpisim.fairshare.{name}")))
        for topology in (Topology, SwitchFabricTopology):
            out.append((topology, "resolve_link", span("mpisim.topology.resolve_link")))
        out.append((network_module, "reserve_path", span("mpisim.topology.reserve_path")))
        for name in API_CALLS:
            out.append((Communicator, name, span(f"api.{name}")))
        out.append((workload_engine_module, "compile_job", span("workload.compile_job")))
        out.append((WorkloadEngine, "run", span("workload.run")))
        out.append((FaultInjector, "install", span(
            "faults.install", note=lambda args, scheduled: (scheduled,))))
        return out

    def __enter__(self) -> "Tracer":
        for owner, name, wrap in self.targets():
            original = vars(owner)[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------- aggregation


def layer_metrics(spans: List[Span], engine_events: Dict[str, int], wall: float, reps: int) -> Dict[str, float]:
    """Per-layer metrics of ``reps`` traced reps that took ``wall`` seconds.

    Times and counts are per rep (totals divided by ``reps``); counts of a
    deterministic program therefore come out as whole numbers.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_s: Dict[str, float] = defaultdict(float)  # by layer, and by key
    busy_s: Dict[str, float] = defaultdict(float)  # by key, outermost spans of the key only
    calls: Dict[str, int] = defaultdict(int)  # by key
    for index, (key, parent, start, end, _) in enumerate(spans):
        self_s[layer_of(key)] += own[index]
        self_s[key] += own[index]
        calls[key] += 1
        if parent < 0 or spans[parent][0] != key:
            busy_s[key] += end - start

    def per_rep(value: float) -> float:
        return value / reps

    def layer_calls(layer: str) -> int:
        return sum(count for key, count in calls.items() if layer_of(key) == layer)

    def layer_busy(layer: str) -> float:
        # wrapped functions of one layer never nest inside each other except
        # PIPE-SZx calling SZx per chunk, which busy_s already nets out
        return sum(seconds for key, seconds in busy_s.items() if layer_of(key) == layer)

    # codec calls that did not come from inside another codec call
    codec = [
        (key, end - start, note)
        for key, parent, start, end, note in spans
        if layer_of(key) == "compression"
        and (parent < 0 or layer_of(spans[parent][0]) != "compression")
    ]
    codec_us = np.asarray([seconds for _, seconds, _ in codec]) * 1e6
    raw_bytes = np.asarray([note[0] for _, _, note in codec], dtype=np.float64)
    compress = [note for key, _, note in codec if key == "compression.compress"]
    if len(set(raw_bytes)) >= 2:
        # per-call time = fixed + bytes / bandwidth: the intercept of the fit
        fixed_overhead_us = float(np.polyfit(raw_bytes, codec_us, 1)[1])
    else:
        fixed_overhead_us = 0.0

    commands = sum(1 for key, _, _, _, note in spans if key == "collectives.send" and note is None)
    engine_self = self_s["mpisim.engine"]
    metrics = {
        "compression.compress_calls": per_rep(len(compress)),
        "compression.decompress_calls": per_rep(len(codec) - len(compress)),
        "compression.bytes_in": per_rep(sum(note[0] for note in compress)),
        "compression.bytes_out": per_rep(sum(note[1] for note in compress)),
        "compression.compress_busy_s": per_rep(busy_s["compression.compress"]),
        "compression.decompress_busy_s": per_rep(busy_s["compression.decompress"]),
        "compression.call_us_p50": float(np.percentile(codec_us, 50)) if codec else 0.0,
        "compression.call_us_p99": float(np.percentile(codec_us, 99)) if codec else 0.0,
        "compression.call_samples": float(len(codec)),
        "compression.fixed_overhead_us": fixed_overhead_us,
        "collectives.program_self_s": per_rep(self_s["collectives"]),
        "collectives.commands": per_rep(commands),
        "mpisim.engine.run_self_s": per_rep(engine_self),
        "mpisim.engine.us_per_command": engine_self / commands * 1e6 if commands else 0.0,
        "mpisim.engine.events": per_rep(sum(engine_events.values())),
        "mpisim.engine.events_scheduled": per_rep(calls["mpisim.engine.schedule_event"]),
        "mpisim.engine.kill_calls": per_rep(calls["mpisim.engine.kill_job"]),
        "mpisim.engine.kill_busy_s": per_rep(busy_s["mpisim.engine.kill_job"]),
        "mpisim.fairshare.calls": per_rep(layer_calls("mpisim.fairshare")),
        "mpisim.fairshare.flows_opened": per_rep(calls["mpisim.fairshare.open_flow"]),
        "mpisim.fairshare.flows_cancelled": per_rep(calls["mpisim.fairshare.cancel_flow"]),
        "mpisim.fairshare.capacity_changes": per_rep(calls["mpisim.fairshare.apply_capacity_change"]),
        "mpisim.fairshare.busy_s": per_rep(layer_busy("mpisim.fairshare")),
        "mpisim.topology.resolve_calls": per_rep(calls["mpisim.topology.resolve_link"]),
        "mpisim.topology.busy_s": per_rep(layer_busy("mpisim.topology")),
        "api.calls": per_rep(layer_calls("api")),
        "api.self_s": per_rep(self_s["api"]),
        "workload.compile_calls": per_rep(calls["workload.compile_job"]),
        "workload.compile_busy_s": per_rep(busy_s["workload.compile_job"]),
        "workload.engine_runs": per_rep(calls["mpisim.engine.run"]),
        "workload.run_self_s": per_rep(self_s["workload.run"]),
        "workload.killed_jobs": per_rep(calls["mpisim.engine.kill_job"]),
        "faults.events_injected": per_rep(
            sum(note[0] for key, _, _, _, note in spans if key == "faults.install" and note)
        ),
        "faults.install_s": per_rep(busy_s["faults.install"]),
        "driver.span_coverage": sum(own) / wall,
    }
    for layer in ("compression", "collectives", "mpisim.engine", "mpisim.fairshare", "workload"):
        metrics[f"{layer}.share"] = self_s[layer] / wall
    return metrics
