"""Replays a :class:`~repro.faults.schedule.FaultSchedule` into a live engine.

The injector turns each typed fault event into one or two
``Engine.schedule_event`` callbacks (the second is the restore half of a
transient fault).  Scheduled callbacks occupy priority tier ``-1`` in the
engine's ``(timestamp, priority, token)`` heap, so a fault due at ``t``
commits before any fair-share departure or rank step at ``t`` — faults
interleave with the simulation exactly as deterministically as arrivals do,
and replaying the same schedule on the same scenario reproduces every
makespan bit-for-bit.

Fair-share plumbing is automatic: whenever a capacity change touches stages
carrying live fluid flows, the injector hands those stages to
``FairShareRegistry.apply_capacity_change``, so in-flight transfers in
``contention="fair"`` mode genuinely see mid-flight rate changes.

An empty schedule schedules nothing and leaves the engine byte-identical to
an uninjected one — the empty-schedule golden-pin contract.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.faults.schedule import (
    DomainOutage,
    FaultSchedule,
    LinkDegrade,
    NodeLoss,
    RailFailure,
    SlowRank,
)

__all__ = ["FaultInjector"]

#: capacity factor a lost node's NIC stages collapse to: traffic drains at
#: retransmit-class rates instead of deadlocking mid-collective ranks
NODE_LOSS_FACTOR = 1e-3


class FaultInjector:
    """Schedules a fault scenario onto one engine run.

    Parameters
    ----------
    schedule:
        The :class:`FaultSchedule` to replay.
    on_node_loss:
        Optional ``(node, time)`` callback fired when a :class:`NodeLoss`
        event lands — the workload layer hooks its allocator's quarantine
        (and job-kill semantics) here so no later job is placed on the dead
        node.
    on_node_heal:
        Optional ``(node, time)`` callback fired when a *transient*
        :class:`NodeLoss` heals (its ``duration`` elapsed) — the workload
        layer un-quarantines the node here so flapping domains return
        capacity.

    A lost node's NIC stages collapse to :data:`NODE_LOSS_FACTOR` of their
    capacity.  ``install(engine)`` must be called after the engine is
    constructed and before ``run()``; an engine is single-use and building one
    clears the topology's fault overlays, so each run needs a fresh
    ``install``.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        on_node_loss: Optional[Callable[[int, float], None]] = None,
        on_node_heal: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.schedule = schedule
        self.on_node_loss = on_node_loss
        self.on_node_heal = on_node_heal

    def install(self, engine) -> int:
        """Schedule every event of the schedule onto ``engine``.

        Returns the number of engine callbacks scheduled (restore halves of
        transient faults count separately).  An empty schedule makes zero
        ``schedule_event`` calls and leaves the engine untouched.
        """
        events = self.schedule.events
        if not events:
            return 0
        topology = engine.topology
        if any(not isinstance(ev, SlowRank) for ev in events) and not hasattr(
            topology, "set_stage_fault"
        ):
            raise TypeError(
                f"link/rail/node fault events need a switch-fabric topology "
                f"with stage-fault overlays (SwitchFabricTopology); engine "
                f"has {type(topology).__name__ if topology is not None else None}"
            )
        count = 0
        for event in events:
            count += self._install_event(engine, event)
        return count

    # ------------------------------------------------------------- per event

    def _install_event(self, engine, event) -> int:
        if isinstance(event, DomainOutage):
            # the correlated expansion: every member event rides the same
            # tier -1 path, all due at the outage timestamp
            return sum(
                self._install_event(engine, member) for member in event.expand()
            )
        if isinstance(event, LinkDegrade):
            prefix, factor = event.stage_prefix, event.factor

            def apply(now: float) -> None:
                self._apply_overlay(engine, prefix, factor, False, now)

            def restore(now: float) -> None:
                self._clear_overlay(engine, prefix, now)

        elif isinstance(event, RailFailure):
            prefixes = (
                ("nic-up", event.node, event.rail),
                ("nic-down", event.node, event.rail),
            )

            def apply(now: float) -> None:
                for prefix in prefixes:
                    self._apply_overlay(engine, prefix, 1.0, True, now)

            def restore(now: float) -> None:
                for prefix in prefixes:
                    self._clear_overlay(engine, prefix, now)

        elif isinstance(event, SlowRank):
            rank, factor = event.rank, event.factor

            def apply(now: float) -> None:
                engine.set_compute_scale(rank, factor)

            def restore(now: float) -> None:
                engine.set_compute_scale(rank, 1.0)

        elif isinstance(event, NodeLoss):
            node = event.node

            def apply(now: float) -> None:
                self._apply_overlay(engine, ("nic-up", node), NODE_LOSS_FACTOR, False, now)
                self._apply_overlay(engine, ("nic-down", node), NODE_LOSS_FACTOR, False, now)
                if self.on_node_loss is not None:
                    self.on_node_loss(node, now)

            def restore(now: float) -> None:
                self._clear_overlay(engine, ("nic-up", node), now)
                self._clear_overlay(engine, ("nic-down", node), now)
                if self.on_node_heal is not None:
                    self.on_node_heal(node, now)

        else:  # pragma: no cover
            raise TypeError(f"unknown fault event {event!r}")
        engine.schedule_event(event.time, apply)
        if event.duration is None:
            return 1
        engine.schedule_event(event.time + event.duration, restore)
        return 2

    # ------------------------------------------------------------- plumbing

    @staticmethod
    def _notify_fair(engine, changed, now: float) -> None:
        fair = engine.fair_registry
        if fair is not None and changed:
            fair.apply_capacity_change(now, changed)

    def _apply_overlay(
        self, engine, prefix, factor: float, failed: bool, now: float
    ) -> None:
        changed = engine.topology.set_stage_fault(prefix, factor=factor, failed=failed)
        self._notify_fair(engine, changed, now)

    def _clear_overlay(self, engine, prefix, now: float) -> None:
        changed = engine.topology.clear_stage_fault(prefix)
        self._notify_fair(engine, changed, now)
