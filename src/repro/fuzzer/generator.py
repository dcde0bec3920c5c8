"""Deterministic scenario generation for the invariant fuzzer.

A :class:`Scenario` is a fully explicit, JSON-serialisable description of one
simulated run: the fabric (preset, placement pattern, rails, routing,
contention discipline), the collective (operation, algorithm, compression
route, codec, error bound), the payload (element count, dtype, data profile)
and the program length.  A scenario with a ``fault_mix`` other than
``"none"`` is a faulted multi-tenant workload on that fabric instead (with
its recovery knobs); every other scenario is a collective program.
:func:`generate_scenario` expands an integer seed into one point of
that cross-product with :class:`random.Random` — the same seed always yields
the same scenario, and because the scenario records every resolved dimension
it replays exactly from its dict alone, without the seed.

Raw draws can land on combinations the session API rejects by design
(a compression mode the op does not run, such as ``"nd"`` on a bcast, an explicit
algorithm on a compressed allreduce, placement patterns on the flat fabric).
:func:`sanitize` folds every such draw onto the nearest valid scenario, so
the generator's output space is exactly the valid input space — the executor
never has to distinguish "the generator built nonsense" from "the simulator
broke".
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.communicator import C_VARIANTS, COMPRESSION_MODES

__all__ = [
    "Scenario",
    "generate_scenario",
    "sanitize",
    "placement_list",
    "PRESETS",
    "PLACEMENT_PATTERNS",
    "OPS",
    "CODECS",
    "MESSAGE_ELEMS",
    "FAULT_MIXES",
]

#: topology presets the fuzzer sweeps (keys of ``TOPOLOGY_PRESETS``)
PRESETS: Tuple[str, ...] = (
    "flat",
    "two_level",
    "shared_uplink",
    "fat_tree",
    "dragonfly",
    "rail_fat_tree",
)

#: placed presets where a rank->node map applies at all
_PLACED_PRESETS = ("two_level", "shared_uplink", "fat_tree", "dragonfly", "rail_fat_tree")

#: fixed-size fabrics whose placement indexes real host slots
_FABRIC_PRESETS = ("fat_tree", "dragonfly", "rail_fat_tree")

#: presets with shared stages (contention discipline applies)
_CONTENDED_PRESETS = ("shared_uplink", "fat_tree", "dragonfly", "rail_fat_tree")

PLACEMENT_PATTERNS: Tuple[str, ...] = ("block", "cyclic", "irregular")

OPS: Tuple[str, ...] = ("allreduce", "allgather", "bcast", "reduce_scatter")

ALGORITHMS: Tuple[str, ...] = (
    "auto",
    "ring",
    "recursive_doubling",
    "rabenseifner",
    "hierarchical",
)

COMPRESSIONS: Tuple[str, ...] = ("off", "on", "di", "nd", "auto")

CODECS: Tuple[str, ...] = ("szx", "pipe_szx", "zfp_abs", "zfp_fxr")

ERROR_BOUNDS: Tuple[float, ...] = (1e-2, 1e-3, 1e-4)

#: element counts: 0/1-element degenerate payloads, non-powers of two, the
#: SZx block boundary (128) and the PIPE-SZx chunk boundary (5120) straddled
MESSAGE_ELEMS: Tuple[int, ...] = (0, 1, 2, 3, 5, 127, 128, 129, 1000, 1024, 4097, 5121)

DATA_PROFILES: Tuple[str, ...] = ("gaussian", "ramp", "constant", "zeros", "mixed_scale")

DTYPES: Tuple[str, ...] = ("float64", "float32")

#: named fault mixes a scenario can inject into a small workload run
#: (subset of :data:`repro.faults.FAULT_MIXES` that applies to the fuzzed
#: fabrics; rail_outage is forced onto a dual-rail fabric by sanitize)
FAULT_MIXES: Tuple[str, ...] = (
    "none",
    "degraded_tier",
    "flaky_links",
    "stragglers",
    "rail_outage",
    "node_loss",
    "mixed",
    "domain_outage",
)

#: the ``fault_mix`` draw tuple, FROZEN at its pre-domain_outage contents:
#: extending the live draw would re-map every historical seed's scenario.
#: domain_outage enters via the trailing ``domain_outage`` knob instead.
_FAULT_MIX_DRAW: Tuple[str, ...] = ("none",) * 34 + (
    "degraded_tier",
    "flaky_links",
    "stragglers",
    "rail_outage",
    "node_loss",
    "mixed",
)

#: fault mixes that actually lose nodes (the recovery knobs only bite here;
#: sanitize folds them to their defaults everywhere else)
_NODE_LOSS_MIXES: Tuple[str, ...] = ("node_loss", "domain_outage")

#: both fixed-size fabric presets expose 16 host slots at their default
#: arity (fat tree k=4 -> 16 hosts; dragonfly 4x4x1 -> 16 hosts)
_FABRIC_HOSTS = 16


@dataclass(frozen=True)
class Scenario:
    """One fully resolved fuzzer scenario (every field JSON-primitive)."""

    seed: int
    preset: str
    n_ranks: int
    ranks_per_node: int
    placement: str
    nics_per_node: int
    routing: str
    contention: str
    op: str
    algorithm: str
    compression: str
    codec: str
    error_bound: float
    msg_elems: int
    dtype: str
    data_profile: str
    #: back-to-back collective steps per run (same op, fresh per-step inputs);
    #: declared last so seeds from before the knob expand to the same scenario
    program_len: int = 1
    #: named fault mix injected into a small multi-tenant workload run
    #: ("none" = a plain collective program)
    fault_mix: str = "none"
    #: recovery knobs for faulted workload runs, declared (and drawn) after
    #: fault_mix so pre-recovery seeds expand to the same scenario; sanitize
    #: folds them to these defaults whenever the fault mix loses no nodes
    failure_policy: str = "fail"
    checkpoint_every: int = 0
    #: upgrade the fault extension to a correlated failure-domain outage;
    #: a separate trailing flag (folded into fault_mix by sanitize) because
    #: appending to the fault_mix draw tuple would remap historical seeds
    domain_outage: bool = False

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def replace(self, **kwargs) -> "Scenario":
        return dataclasses.replace(self, **kwargs)


def placement_list(
    pattern: str, n_ranks: int, ranks_per_node: int, max_nodes: Optional[int] = None
) -> Optional[List[int]]:
    """Explicit rank->node list for a placement pattern (``None`` = native block).

    ``block`` returns ``None`` so topologies use their native ``ranks_per_node``
    packing.  ``cyclic`` deals ranks round-robin over the nodes block placement
    would have used.  ``irregular`` keeps runs contiguous but makes them
    lopsided (node ``i`` holds ``ranks_per_node + (i % 2)`` ranks), the shape
    that distinguishes the irregular selector class from plain block.
    """
    if pattern == "block":
        return None
    n_nodes = max(1, -(-n_ranks // ranks_per_node))
    if max_nodes is not None:
        n_nodes = min(n_nodes, max_nodes)
    if pattern == "cyclic":
        return [rank % n_nodes for rank in range(n_ranks)]
    if pattern == "irregular":
        out: List[int] = []
        node = 0
        while len(out) < n_ranks:
            take = ranks_per_node + (node % 2)
            out.extend([min(node, n_nodes - 1)] * take)
            node += 1
        return out[:n_ranks]
    raise ValueError(f"unknown placement pattern {pattern!r}")


def sanitize(scenario: Scenario) -> Scenario:
    """Fold an arbitrary draw onto the nearest valid scenario.

    The rules mirror the session API's own constraints; applying ``sanitize``
    twice is a no-op, which the shrinker relies on (every reduction candidate
    is re-sanitised before it is executed).
    """
    updates: Dict[str, object] = {}
    preset = scenario.preset
    if preset not in PRESETS:
        preset = "flat"
        updates["preset"] = preset

    if preset == "flat":
        # one rank per node, no placement, no shared stages, no rails
        updates.update(
            ranks_per_node=1,
            placement="block",
            nics_per_node=1,
            routing="minimal",
            contention="reservation",
        )
    else:
        if preset not in _FABRIC_PRESETS:
            updates.update(nics_per_node=1, routing="minimal")
        if preset == "rail_fat_tree":
            # the rail preset pins its own wiring: striped rails over an
            # adaptive-routed tree, native block placement
            updates.update(routing="adaptive", placement="block")
        if preset not in _CONTENDED_PRESETS:
            updates["contention"] = "reservation"
        if preset in _FABRIC_PRESETS:
            # keep every rank inside the fabric's host slots even under the
            # lopsided irregular pattern (which can spill one node past block)
            max_rpn = max(1, -(-scenario.n_ranks // _FABRIC_HOSTS))
            if scenario.ranks_per_node < max_rpn:
                updates["ranks_per_node"] = max_rpn

    compression = scenario.compression
    if compression != "off":
        # the compressed variants fix their own schedule
        updates["algorithm"] = "auto"
    mode = COMPRESSION_MODES.get(compression)  # None: nonsense left to the executor
    if mode not in (None, "auto") and mode not in C_VARIANTS.get(scenario.op, (mode,)):
        updates["compression"] = compression = "on"
    if scenario.op != "allreduce":
        updates["algorithm"] = "auto"

    if scenario.algorithm == "hierarchical" and updates.get("algorithm") is None:
        # hierarchical on a one-rank-per-node fabric degenerates but is legal;
        # keep it — it exercises the degenerate path on purpose
        pass

    # bcast/allgather/reduce_scatter payloads must be non-degenerate enough
    # for the op to mean anything; 0-element stays legal for every op.
    if scenario.op == "reduce_scatter" and 0 < scenario.msg_elems < scenario.n_ranks:
        updates["msg_elems"] = scenario.n_ranks

    if not 1 <= scenario.program_len <= 4:
        updates["program_len"] = min(4, max(1, scenario.program_len))

    # ------------------------------------------------ fault extension
    fault_mix = scenario.fault_mix
    if fault_mix not in FAULT_MIXES:
        fault_mix = "none"
        updates["fault_mix"] = fault_mix
    domain_outage = bool(scenario.domain_outage)
    if domain_outage is not scenario.domain_outage:
        updates["domain_outage"] = domain_outage
    if domain_outage and fault_mix != "domain_outage":
        # the flag upgrades (or installs) the fault extension
        fault_mix = "domain_outage"
        updates["fault_mix"] = fault_mix
    if fault_mix != "none":
        # fault injection drives a workload run on a fixed-size switch
        # fabric; fold other presets onto the fat tree
        if preset not in _FABRIC_PRESETS:
            updates["preset"] = "fat_tree"
        # judge rails by the effective value: an earlier non-fabric fold may
        # have already forced nics_per_node to 1 in `updates`
        nics = updates.get("nics_per_node", scenario.nics_per_node)
        if fault_mix == "rail_outage" and nics < 2:
            # a single-rail node would lose all connectivity
            updates["nics_per_node"] = 2

    # recovery knobs: valid values, and inert (folded to defaults) unless
    # the fault mix actually loses nodes — a restart policy on a link-flap
    # scenario would never fire, and folding keeps shrinking convergent
    failure_policy = scenario.failure_policy
    checkpoint_every = scenario.checkpoint_every
    if failure_policy not in ("fail", "restart", "restart_elsewhere"):
        failure_policy = "fail"
        updates["failure_policy"] = failure_policy
    if (
        isinstance(checkpoint_every, bool)
        or not isinstance(checkpoint_every, int)
        or not 0 <= checkpoint_every <= 8
    ):
        checkpoint_every = min(8, max(0, int(checkpoint_every)))
        updates["checkpoint_every"] = checkpoint_every
    if fault_mix not in _NODE_LOSS_MIXES:
        if failure_policy != "fail":
            updates["failure_policy"] = "fail"
        if checkpoint_every != 0:
            updates["checkpoint_every"] = 0

    return scenario.replace(**updates) if updates else scenario


def _draw_fault_mix(rng: random.Random) -> str:
    # the deleted harness-experiment knob drew a 40-way choice just before
    # the fault mix; consuming the same draw keeps every seed's later fields
    rng.randrange(40)
    return rng.choice(_FAULT_MIX_DRAW)


def generate_scenario(seed: int) -> Scenario:
    """Expand ``seed`` into one valid scenario (deterministic)."""
    rng = random.Random(seed)
    preset = rng.choice(PRESETS)
    n_ranks = rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16))
    raw = Scenario(
        seed=seed,
        preset=preset,
        n_ranks=n_ranks,
        ranks_per_node=rng.choice((1, 2, 3, 4)),
        placement=rng.choice(PLACEMENT_PATTERNS),
        nics_per_node=rng.choice((1, 2)),
        routing=rng.choice(("minimal", "adaptive")),
        contention=rng.choice(("reservation", "fair")),
        # allreduce carries most invariants (values, selector, compression
        # variants) so it gets half the mass
        op=rng.choice(("allreduce",) * 3 + OPS[1:]),
        algorithm=rng.choice(ALGORITHMS),
        compression=rng.choice(COMPRESSIONS),
        codec=rng.choice(CODECS),
        error_bound=rng.choice(ERROR_BOUNDS),
        msg_elems=rng.choice(MESSAGE_ELEMS),
        dtype=rng.choice(DTYPES + ("float64",)),  # bias toward float64
        data_profile=rng.choice(DATA_PROFILES),
        # drawn last (and biased toward 1) so pre-knob seeds keep every other
        # dimension's draw; multi-step runs cost program_len simulations
        program_len=rng.choice((1, 1, 1, 2, 3, 4)),
        # rare: a faulted workload run costs more than a plain collective
        fault_mix=_draw_fault_mix(rng),
        # recovery knobs, drawn after every pre-existing dimension; sanitize
        # folds them to defaults unless the fault mix loses nodes, so they
        # only change scenarios that were already faulted-workload runs
        failure_policy=rng.choice(
            ("fail", "fail", "restart", "restart_elsewhere", "restart_elsewhere")
        ),
        checkpoint_every=rng.choice((0, 0, 1, 2, 4)),
        # rare: upgrades the run to a correlated domain outage (expensive)
        domain_outage=rng.choice((False,) * 39 + (True,)),
    )
    return sanitize(raw)

