"""Allreduce algorithm selection across interconnect topologies.

Regenerates the ``topo`` experiment (beyond the paper: its cluster pinned one
rank per node) and checks the three behaviours the topology layer exists to
express:

* the flat default leaves every calibrated timing untouched (the golden
  regression pin lives in ``tests/collectives/test_allreduce_algorithms.py``);
* on the dedicated two-level preset the bandwidth-optimal ring still beats
  the hierarchical schedule at large messages;
* the tuning table picks recursive doubling for small messages and
  ring/Rabenseifner for large ones, and where node uplinks are shared the
  schedule it picks for a large message is the fastest of the four
  uncompressed ones in that cell.
"""

import pytest

from repro.collectives.selection import ALGORITHM_PLANNERS
from repro.harness.experiments.topology_scaling import run_topology_scaling


def _rows(result, **match):
    return [
        row
        for row in result.rows
        if all(row.get(key) == value for key, value in match.items())
    ]


def _time(result, **match):
    rows = _rows(result, **match)
    assert len(rows) == 1, f"expected one row for {match}, got {len(rows)}"
    return rows[0]["total_time_s"]


class TestTopologyScaling:
    def test_topology_scaling(self, run_experiment_once):
        result = run_experiment_once(run_topology_scaling, scale="small")
        large = max(row["size_mb"] for row in result.rows)
        small = min(row["size_mb"] for row in result.rows)

        # on flat (one rank per node) the hierarchical schedule degenerates to
        # the ring itself; on real two-level placement the bandwidth-optimal
        # ring still beats it at large messages (dedicated links)
        ring_flat = _time(result, topology="flat", size_mb=large, algorithm="ring")
        hier_flat = _time(result, topology="flat", size_mb=large, algorithm="hierarchical")
        assert ring_flat == pytest.approx(hier_flat, rel=1e-12)
        ring = _time(result, topology="two_level", size_mb=large, algorithm="ring")
        hier = _time(result, topology="two_level", size_mb=large, algorithm="hierarchical")
        assert ring < hier, f"two_level: ring {ring} !< hierarchical {hier}"

        # the tuning table: recursive doubling short, ring/Rabenseifner long
        for topo in ("flat", "two_level"):
            (selected_small,) = [
                row["algorithm"]
                for row in _rows(result, topology=topo, size_mb=small)
                if row["selected"]
            ]
            assert selected_small == "recursive_doubling"
            (selected_large,) = [
                row["algorithm"]
                for row in _rows(result, topology=topo, size_mb=large)
                if row["selected"]
            ]
            assert selected_large in ("ring", "rabenseifner")

        # shared uplinks: concurrent egress splits the wire, so the flat
        # doubling exchange collapses, and the selector picks the schedule
        # that is actually fastest there
        rd_shared = _time(
            result, topology="shared_uplink", size_mb=large, algorithm="recursive_doubling"
        )
        rd_dedicated = _time(
            result, topology="two_level", size_mb=large, algorithm="recursive_doubling"
        )
        assert rd_shared > 1.5 * rd_dedicated
        uncompressed = [
            row
            for row in _rows(result, topology="shared_uplink", size_mb=large)
            if row["algorithm"] in ALGORITHM_PLANNERS
        ]
        assert len(uncompressed) == len(ALGORITHM_PLANNERS)
        (selected_shared,) = [row for row in uncompressed if row["selected"]]
        fastest = min(uncompressed, key=lambda row: row["total_time_s"])
        assert selected_shared["algorithm"] == fastest["algorithm"]

        # the topology-aware C-Allreduce (compressed inter-node hops) beats
        # the uncompressed ring on the two-level fabrics at large messages
        for topo in ("two_level", "shared_uplink"):
            c_topo = _time(result, topology=topo, size_mb=large, algorithm="c_allreduce_topo")
            ring = _time(result, topology=topo, size_mb=large, algorithm="ring")
            assert c_topo < ring
