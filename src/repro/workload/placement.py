"""Placement: allocating fabric nodes to jobs, and the per-job topology view.

Two pieces live here:

* :class:`NodeAllocator` — seeded block allocation of free nodes under three
  policies (``packed`` / ``spread`` / ``random``), with deterministic
  release/reallocate behaviour so replaying a trace reproduces placements
  exactly.
* :class:`PlacementView` — a read-only :class:`~repro.mpisim.topology.Topology`
  wrapper that presents a job's ranks ``0..j-1`` remapped onto its fabric
  slots.  Collectives are *compiled* against the view (so algorithm
  selection, hierarchical grouping and the compression gate see the job's
  real node placement); at run time the engine does the same rank -> slot
  lookup itself (:class:`~repro.mpisim.engine.EngineJob`) and routes on the
  base fabric — the view never reaches the engine.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.mpisim.topology import LinkModel, Topology

__all__ = ["PLACEMENT_POLICIES", "NodeAllocator", "PlacementView", "slots_for"]

PLACEMENT_POLICIES = ("packed", "spread", "random")


class PlacementView(Topology):
    """A job-local window onto a shared fabric.

    Rank ``r`` of the job maps to slot ``slots[r]`` of ``base`` — the same
    tuple the job is bound to the engine with, so what a build-time decision
    sees is what the engine will route.
    The view is deliberately stateless: ``reset()`` is a no-op because jobs
    compile against it *mid-run*, while the base fabric's reservation queues
    and stripe counters are live — wiping them would corrupt every other
    tenant's in-flight state.
    """

    def __init__(self, base: Topology, slots: Sequence[int]) -> None:
        self.base = base
        self.slots = tuple(int(s) for s in slots)

    def node_of(self, rank: int) -> int:
        return self.base.node_of(self.slots[rank])

    def link(self, src: int, dst: int) -> Optional[LinkModel]:
        return self.base.link(self.slots[src], self.slots[dst])

    @property
    def shares_uplinks(self) -> bool:
        return self.base.shares_uplinks

    @property
    def contention(self) -> str:
        return self.base.contention

    @property
    def oversubscription_ratio(self) -> float:
        return self.base.oversubscription_ratio

    @property
    def nics_per_node(self) -> int:
        return self.base.nics_per_node

    def effective_inter_bandwidth(self) -> Optional[float]:
        return self.base.effective_inter_bandwidth()

    def fault_degradation(self) -> float:
        return self.base.fault_degradation()

    def reset(self) -> None:
        """No-op: the base fabric's live contention state belongs to all jobs."""

    def resolve_link(self, src: int, dst: int) -> Optional[LinkModel]:
        raise TypeError(
            "PlacementView is compile-time only: collectives are compiled "
            "against the view but the engine resolves job ranks to slots "
            "itself. resolve_link (engine-side routing) must be called on "
            "the base topology, never on the view."
        )

    def describe(self) -> str:
        return f"placement view of [{self.base.describe()}] on slots {list(self.slots)}"


def slots_for(nodes: Sequence[int], ranks_per_node: int, n_ranks: int) -> List[int]:
    """Global engine slots for ``n_ranks`` job ranks packed onto ``nodes``.

    The engine's slot space is the fabric's native block placement — slot
    ``node * ranks_per_node + lane`` — so a job fills its allocated nodes
    lane by lane in node order.
    """
    slots = [
        node * ranks_per_node + lane
        for node in nodes
        for lane in range(ranks_per_node)
    ]
    if n_ranks > len(slots):
        raise ValueError(
            f"{n_ranks} ranks need more than {len(nodes)} nodes "
            f"x {ranks_per_node} ranks/node"
        )
    return slots[:n_ranks]


class NodeAllocator:
    """Seeded allocation of whole fabric nodes to jobs.

    ``allocate(count)`` returns ``count`` free node ids (sorted) or ``None``
    when the fabric cannot currently fit the job; ``release(nodes)`` returns
    them to the pool.  Policies:

    * ``packed`` — the lowest-numbered free nodes (minimises fragmentation
      and keeps jobs on adjacent leaf switches);
    * ``spread`` — evenly spaced over the sorted free list (maximises
      per-job injection bandwidth at the cost of more shared core stages);
    * ``random`` — a seeded sample of the free list (the interference
      baseline schedulers get compared against).

    All three are deterministic given the seed and the call sequence.
    """

    def __init__(self, n_nodes: int, policy: str = "packed", seed: int = 0) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"available: {', '.join(PLACEMENT_POLICIES)}"
            )
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.policy = policy
        self._rng = random.Random(seed)
        self._free = set(range(self.n_nodes))
        self._quarantined: set = set()
        self._busy: set = set()

    @property
    def nodes_free(self) -> int:
        return len(self._free)

    @property
    def quarantined(self) -> Tuple[int, ...]:
        return tuple(sorted(self._quarantined))

    def quarantine(self, node: int) -> None:
        """Remove ``node`` from service (fault injection: node loss).

        A free node leaves the pool immediately; a busy node is simply
        marked, and :meth:`release` drops it instead of refreeing it when
        its current job retires.  Quarantining is idempotent; it lasts
        until :meth:`unquarantine` heals the node.
        """
        node = self._check_node(node)
        self._quarantined.add(node)
        self._free.discard(node)

    def unquarantine(self, node: int) -> None:
        """Return a quarantined ``node`` to service (the heal half).

        The node rejoins the free pool unless it is still busy (a job was
        running on it when it was marked and has not released it yet — it
        stays allocated to that job).  Healing a node that is not
        quarantined raises: a double heal is a scheduling bug, not a no-op.
        """
        node = self._check_node(node)
        if node not in self._quarantined:
            raise ValueError(
                f"node {node} is not quarantined (double heal?)"
            )
        self._quarantined.discard(node)
        if node not in self._busy:
            self._free.add(node)

    def allocate(self, count: int) -> Optional[Tuple[int, ...]]:
        if count < 1:
            raise ValueError(f"allocate needs count >= 1, got {count}")
        free = sorted(self._free)
        if count > len(free):
            return None
        if self.policy == "packed":
            take = free[:count]
        elif self.policy == "spread":
            stride = len(free) / count
            take = [free[int(i * stride)] for i in range(count)]
        else:  # random
            take = sorted(self._rng.sample(free, count))
        self._free.difference_update(take)
        self._busy.update(take)
        return tuple(take)

    def acquire(self, nodes: Sequence[int]) -> bool:
        """Claim a *specific* node set — all of it or none of it.

        The in-place restart path: a job retrying on its original placement
        succeeds only once every one of its nodes is free (and therefore
        un-quarantined).  Returns ``False`` without side effects otherwise.
        """
        batch = {self._check_node(node) for node in nodes}
        if not batch:
            raise ValueError("acquire needs at least one node")
        if not batch <= self._free:
            return False
        self._free.difference_update(batch)
        self._busy.update(batch)
        return True

    def release(self, nodes: Sequence[int]) -> None:
        """Return ``nodes`` to the free pool — all of them or none of them.

        The whole batch is validated before any node is freed, so an invalid
        batch (double release, out-of-range id, or an internal duplicate)
        leaves the allocator exactly as it was.  Quarantined nodes leave the
        busy set but stay out of the pool until healed.
        """
        batch = [int(node) for node in nodes]
        if len(set(batch)) != len(batch):
            raise ValueError(f"duplicate nodes in release batch {batch}")
        for node in batch:
            if node in self._free:
                raise RuntimeError(f"node {node} released twice")
            if not (0 <= node < self.n_nodes):
                raise ValueError(f"node {node} outside 0..{self.n_nodes - 1}")
        self._busy.difference_update(batch)
        self._free.update(node for node in batch if node not in self._quarantined)

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside 0..{self.n_nodes - 1}")
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeAllocator(policy={self.policy!r}, "
            f"free={len(self._free)}/{self.n_nodes})"
        )
