"""Golden makespan pins for the default ``contention="reservation"`` path.

These numbers were frozen from the session API immediately before the
fair-share contention model landed (PR 4).  Every preset here times its
shared stages with the default reservation queue, so the fair-share refactor
— the engine's deferred flow-completion machinery, the ``FairShareLink``
stage class, the residual-rate poll credits — must leave each cell
*bit-for-bit* unchanged: the default discipline is required to take exactly
the pre-refactor code paths.

If a change legitimately recalibrates these fabrics, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    import numpy as np
    from repro.api import Cluster
    from tests.property.test_golden_makespans import ELEMS, N_RANKS, PRESETS, inputs_for
    for preset, kw in PRESETS.items():
        cluster = Cluster.from_preset(preset, **kw)
        for label, elems in ELEMS.items():
            comm = cluster.communicator(N_RANKS)
            for algo in ("ring", "rabenseifner", "hierarchical"):
                out = comm.allreduce(inputs_for(N_RANKS, elems), algorithm=algo)
                print(f'    ("{preset}", "{label}", "{algo}"): {out.total_time!r},')
    EOF
"""

import numpy as np
import pytest

from repro.api import Cluster

N_RANKS = 16

ELEMS = {"small": 4096, "large": 262144}

PRESETS = {
    "flat": dict(),
    "two_level": dict(ranks_per_node=4),
    "shared_uplink": dict(ranks_per_node=4),
    "fat_tree": dict(nodes=N_RANKS, ranks_per_node=1, oversubscription=2.0),
}

#: (preset, size label, algorithm) -> frozen makespan in virtual seconds
GOLDEN_MAKESPANS = {
    ("flat", "small", "ring"): 0.0007312637575757579,
    ("flat", "small", "rabenseifner"): 0.0002912637575757576,
    ("flat", "small", "hierarchical"): 0.0007312637575757579,
    ("flat", "large", "ring"): 0.008811880484848487,
    ("flat", "large", "rabenseifner"): 0.008371880484848486,
    ("flat", "large", "hierarchical"): 0.008811880484848487,
    ("two_level", "small", "ring"): 0.0007312637575757579,
    ("two_level", "small", "rabenseifner"): 0.0001279924848484849,
    ("two_level", "small", "hierarchical"): 0.0002603790060606061,
    ("two_level", "large", "ring"): 0.008811880484848487,
    ("two_level", "large", "rabenseifner"): 0.0028365190303030305,
    ("two_level", "large", "hierarchical"): 0.00878925638787879,
    ("shared_uplink", "small", "ring"): 0.0007312637575757579,
    ("shared_uplink", "small", "rabenseifner"): 0.00015242012121212127,
    ("shared_uplink", "small", "hierarchical"): 0.0002603790060606061,
    ("shared_uplink", "large", "ring"): 0.008811880484848487,
    ("shared_uplink", "large", "rabenseifner"): 0.006921968921212122,
    ("shared_uplink", "large", "hierarchical"): 0.00878925638787879,
    ("fat_tree", "small", "ring"): 0.0008669728484848477,
    ("fat_tree", "small", "rabenseifner"): 0.0004078490666666667,
    ("fat_tree", "small", "hierarchical"): 0.0008669728484848477,
    ("fat_tree", "large", "ring"): 0.015985262303030295,
    ("fat_tree", "large", "rabenseifner"): 0.018178435830303034,
    ("fat_tree", "large", "hierarchical"): 0.015985262303030295,
}


def inputs_for(n_ranks: int, n_elems: int, seed: int = 1234):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n_elems).astype(np.float64) for _ in range(n_ranks)]


@pytest.fixture(scope="module")
def observed_makespans():
    observed = {}
    for preset, kwargs in PRESETS.items():
        cluster = Cluster.from_preset(preset, **kwargs)
        for label, elems in ELEMS.items():
            comm = cluster.communicator(N_RANKS)
            for algo in ("ring", "rabenseifner", "hierarchical"):
                out = comm.allreduce(inputs_for(N_RANKS, elems), algorithm=algo)
                observed[(preset, label, algo)] = out.total_time
    return observed


class TestReservationGoldenMakespans:
    def test_cells_cover_the_pinned_surface(self, observed_makespans):
        assert set(observed_makespans) == set(GOLDEN_MAKESPANS)

    def test_default_contention_is_bit_for_bit(self, observed_makespans):
        mismatches = {
            cell: (observed_makespans[cell], frozen)
            for cell, frozen in GOLDEN_MAKESPANS.items()
            if observed_makespans[cell] != frozen
        }
        assert not mismatches, (
            "the default reservation path must stay bit-for-bit:\n"
            + "\n".join(
                f"  {cell}: got {got!r}, frozen {frozen!r}"
                for cell, (got, frozen) in mismatches.items()
            )
        )

    def test_every_preset_defaults_to_reservation(self):
        for preset, kwargs in PRESETS.items():
            topology = Cluster.from_preset(preset, **kwargs).topology
            assert topology.contention == "reservation"
