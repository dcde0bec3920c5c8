"""Network model of the simulated cluster interconnect.

The model is the classic Hockney (alpha-beta) model — a message of ``n`` bytes
needs ``latency + n / bandwidth`` seconds of *network time* — extended with the
progress semantics that the paper's optimizations exploit:

* **Rendezvous / progress-on-poll** (default): a large message only flows
  while the *receiving* rank is inside an MPI call.  Between two progress
  entries, at most ``inflight_window`` bytes can arrive (the transport's
  pipeline buffer); once the receiver blocks in ``Wait`` the transfer proceeds
  at full bandwidth.  This is why, in the paper, compression that does not
  poll (the DI / ND variants) leaves the full transfer time visible as Wait,
  while PIPE-SZx — which polls between 5120-element chunks — hides most of it
  (Figure 9's 73-80% Wait reduction).
* **Eager messages**: payloads at or below ``eager_threshold`` are buffered by
  the transport; the sender completes immediately and the data arrives
  ``latency + n/bandwidth`` after the match, independent of polling.  The
  compressed-size exchange in C-Coll's data-movement framework (a few bytes
  per rank) falls in this class.
* **Async mode** (``progress="async"``): transfers proceed at line rate as
  soon as both sides have posted, regardless of polling.  This models a
  hardware/progress-thread offload and is used as an ablation.

The default parameters are calibrated so that the *application-level* ring
bandwidth matches what the paper's 100 Gbps Omni-Path cluster actually
delivered to large-message MPI collectives (roughly 0.5 GB/s per rank once
protocol, message-rate, and fabric-sharing overheads across 16-128 busy nodes
are included — an order of magnitude below the line rate, which is what makes
CPU lossy compression profitable in the first place); see
:mod:`repro.perfmodel.costmodel` for how this value is derived from the
paper's own relative results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mpisim.fairshare import (
    CONTENTION_MODES,
    CONTENTION_RESERVATION,
    FairFlow,
    FairShareRegistry,
)
from repro.mpisim.topology import LinkModel, reserve_path
from repro.utils.validation import ensure_in, ensure_non_negative, ensure_positive

__all__ = ["NetworkModel", "TransferState", "PROGRESS_ON_POLL", "PROGRESS_ASYNC"]

PROGRESS_ON_POLL = "on-poll"
PROGRESS_ASYNC = "async"


@dataclass(frozen=True)
class NetworkModel:
    """Parameters of the simulated interconnect.

    Attributes
    ----------
    latency:
        Per-message latency in seconds (the alpha term).
    bandwidth:
        Sustained point-to-point bandwidth in bytes/second (the beta term).
    eager_threshold:
        Messages of at most this many bytes use the eager protocol.
    inflight_window:
        Bytes the transport pushes beyond the last acknowledged progress call
        for rendezvous messages (the pipeline depth of the interconnect).
    progress:
        ``"on-poll"`` (rendezvous semantics, default) or ``"async"``.
    contention:
        Contention discipline requested for shared fabric stages:
        ``"reservation"`` (default) or ``"fair"``.  Either the topology
        (contended topologies take their own ``contention`` parameter) or
        this field may ask for fair; the engine resolves it once, on the
        caller's topology, so the knob can be threaded through a
        :class:`NetworkModel` alone.  The global (flat) fabric has no shared
        links, so the field only matters when a contended topology is in
        play.
    """

    latency: float = 20e-6
    bandwidth: float = 0.55e9
    eager_threshold: int = 64 * 1024
    inflight_window: int = 1 * 1024 * 1024
    progress: str = PROGRESS_ON_POLL
    contention: str = CONTENTION_RESERVATION

    def __post_init__(self) -> None:
        ensure_non_negative(self.latency, "latency")
        ensure_positive(self.bandwidth, "bandwidth")
        ensure_non_negative(self.eager_threshold, "eager_threshold")
        ensure_positive(self.inflight_window, "inflight_window")
        ensure_in(self.progress, (PROGRESS_ON_POLL, PROGRESS_ASYNC), "progress")
        ensure_in(self.contention, CONTENTION_MODES, "contention")

    def is_eager(self, nbytes: int) -> bool:
        """Whether a message of ``nbytes`` uses the eager protocol."""
        return nbytes <= self.eager_threshold


@dataclass(slots=True)
class TransferState:
    """Progress accounting for one in-flight (matched) message.

    The engine owns the life cycle: it calls :meth:`set_eligible` when both
    sides have posted, :meth:`ack` whenever the receiving rank enters the
    progress engine (``Test`` or the entry of a ``Wait``), and
    :meth:`completion_from` when the receiver blocks until completion.

    When ``link`` is set (the engine resolved a per-pair link through a
    :class:`~repro.mpisim.topology.Topology`), latency and bandwidth come from
    the link — with contended uplinks queueing through the link's reservation
    clock — while protocol semantics (eager threshold, in-flight window,
    progress mode) stay with the global :class:`NetworkModel`.  With
    ``link=None`` the arithmetic is exactly the seed's.

    When ``fair`` is set (the engine fills in its run's registry for every
    transfer that crosses shared stages of a ``contention="fair"`` run), bulk
    streams do not precompute a finish time: the engine calls
    :meth:`activate_fair` when the receiver blocks, the registered flow's
    rate is re-divided on every arrival/departure, and the engine completes
    the transfer through :meth:`finish_fair` once the registry commits the
    departure.
    """

    nbytes: int
    network: NetworkModel
    eager: bool = False
    link: Optional[LinkModel] = None
    #: the run's fair-share registry, iff this transfer's stages are fair-shared
    fair: Optional[FairShareRegistry] = None
    eligible_time: Optional[float] = None
    delivered_bytes: float = 0.0
    last_ack_time: Optional[float] = None
    completed: bool = False
    completion_time: Optional[float] = None
    # the registered fluid flow, from activate_fair until its departure
    fair_flow: Optional[FairFlow] = None

    @property
    def latency(self) -> float:
        """Per-message latency of the resolved link (global model if unset)."""
        return self.link.latency if self.link is not None else self.network.latency

    def bandwidth(self) -> float:
        """Full capacity of the resolved link (global model if unset).

        Contention on shared links is applied through the reservation queue
        (see :meth:`ack` and :meth:`completion_from`), not by scaling the rate.
        """
        return self.link.bandwidth if self.link is not None else self.network.bandwidth

    def set_eligible(self, match_time: float) -> None:
        """Record that both sides have posted; data starts flowing after the latency."""
        if self.eligible_time is not None:
            return
        self.eligible_time = match_time + self.latency
        self.last_ack_time = self.eligible_time

    @property
    def is_eligible(self) -> bool:
        return self.eligible_time is not None

    @property
    def remaining_bytes(self) -> float:
        return max(0.0, self.nbytes - self.delivered_bytes)

    def _mark_complete(self, time: float) -> None:
        self.completed = True
        self.delivered_bytes = float(self.nbytes)
        self.completion_time = time

    def ack(self, now: float, continuous: bool = False) -> bool:
        """Grant transfer progress for the interval since the last progress entry.

        ``continuous=True`` means the receiver has been inside MPI for the whole
        interval (e.g. the tail of a ``Wait``), so the in-flight window cap does
        not apply.  Returns ``True`` if the transfer completed at or before
        ``now``.
        """
        if self.completed:
            return True
        if self.fair_flow is not None:
            # registered with a fair-share registry: the fluid event loop owns
            # all further progress; the engine completes it via finish_fair
            return False
        if not self.is_eligible or now <= self.eligible_time:
            return False
        window_start = max(self.last_ack_time, self.eligible_time)
        stages = self.link.stages if self.link is not None else ()
        if stages:
            # a contended path earns credit only once earlier reservations on
            # every stage it crosses have drained (aggregate stays within
            # each stage's capacity)
            window_start = max(window_start, max(s.busy_until for s in stages))
        rate = self.bandwidth()
        if self.fair is not None:
            # fair stages: poll credits may only draw the capacity the fluid
            # flows have not claimed, so the two schemes never overcommit
            rate = min(
                rate,
                min(max(0.0, s.capacity - s.allocated_rate()) for s in stages),
            )
        credit_bytes = max(0.0, (now - window_start)) * rate
        if self.network.progress == PROGRESS_ON_POLL and not continuous and not self.eager:
            credit_bytes = min(credit_bytes, float(self.network.inflight_window))
        before = self.delivered_bytes
        self.delivered_bytes = min(float(self.nbytes), self.delivered_bytes + credit_bytes)
        if stages:
            # consume the wire time the delivered bytes occupied on every
            # stage, so N polled flows cannot each draw full bandwidth over
            # the same interval anywhere along their paths
            used_bytes = self.delivered_bytes - before
            if used_bytes > 0.0:
                for stage in stages:
                    stage.reserve(window_start, used_bytes)
        self.last_ack_time = now
        if self.delivered_bytes >= self.nbytes:
            self._mark_complete(now)
            return True
        return False

    # ------------------------------------------------- fair-share flow protocol

    def activate_fair(self, now: float, token: Any = None, group: Any = None) -> FairFlow:
        """Register the remaining bytes as a max-min fair fluid flow.

        Called by the engine when the receiver blocks on a fair-contended
        path (where the reservation model would precompute
        :meth:`completion_from`).  The flow enters the registry at
        ``max(now, stage busy_until)`` — queued poll-credit wire time drains
        first, exactly as ``reserve_path`` would wait — and from then on its
        rate is re-divided on every arrival/departure until the engine
        commits the departure and calls :meth:`finish_fair`.
        """
        if self.fair_flow is not None:  # pragma: no cover - engine activates once
            return self.fair_flow
        registry = self.fair
        if registry is None:
            raise RuntimeError("activate_fair called on a transfer that is not fair-shared")
        if not self.is_eligible:
            raise RuntimeError("activate_fair called on an unmatched transfer")
        stages = self.link.stages
        start = max([now, self.eligible_time] + [s.busy_until for s in stages])
        self.fair_flow = registry.open_flow(
            stages, start, self.remaining_bytes, token=token, group=group
        )
        return self.fair_flow

    def finish_fair(self, finish: float) -> None:
        """Complete a fair flow at the departure time the registry committed."""
        self.fair_flow = None
        self._mark_complete(finish)
        self.last_ack_time = finish

    def cancel(self, now: float) -> None:
        """Abort an in-flight transfer (job kill): free wire state *now*.

        A registered fair flow is withdrawn through the registry, which
        re-divides the freed bandwidth across its connected component
        immediately.  Reservation-mode transfers hold no forward wire state
        (their completion is only reserved once the receiver waits), so there
        is nothing to unwind.  Idempotent; a completed transfer is left
        untouched.
        """
        if self.completed:
            return
        if self.fair_flow is not None:
            self.fair.cancel_flow(self.fair_flow, now)
            self.fair_flow = None
        self.completed = True
        self.completion_time = float(now)
        self.last_ack_time = float(now)

    def completion_from(self, now: float) -> float:
        """Absolute completion time assuming the receiver blocks in MPI from ``now``."""
        if self.completed:
            return self.completion_time if self.completion_time is not None else now
        if self.fair_flow is not None:  # pragma: no cover - engine defers instead
            raise RuntimeError(
                "completion_from called on a fair-share flow; the engine must "
                "wait for the registry to commit the departure"
            )
        if not self.is_eligible:
            raise RuntimeError("completion_from called on an unmatched transfer")
        start = max(now, self.eligible_time)
        # Credit the interval up to `now` under poll semantics, then stream the
        # rest at full bandwidth (receiver is continuously inside MPI).
        self.ack(now, continuous=False)
        if self.completed:
            return max(start, self.completion_time)
        if self.link is not None and self.link.stages:
            # bulk stream over a contended path: queue behind earlier
            # reservations on every stage crossed (aggregate-equivalent to
            # fair bandwidth splitting; single-stage == SharedLink.reserve)
            finish = reserve_path(self.link.stages, start, self.remaining_bytes)
        else:
            finish = start + self.remaining_bytes / self.bandwidth()
        self._mark_complete(finish)
        self.last_ack_time = finish
        return finish
