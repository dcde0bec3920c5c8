"""The machine model's calibration, pinned value by value.

Every :class:`CostModel` method over 5 codecs x ``nbytes`` {0, 1, 4096, 7e8}
x ``ratio`` {None, 0.5, 8, 40, 1e3}, the break-even bandwidth per codec, and
for the default fabrics their ``describe()``, ``effective_inter_bandwidth()``,
``fault_degradation()``, every stage's capacity and a digest of every rank
pair's link (latency, bandwidth, stage ids), healthy and under a fixed fault
set.  Values are ``float.hex`` strings and must match with ``==``.

``calibration_pin.json`` was generated before the calibration's settable
fields became module constants
(``PYTHONPATH=src python tests/perfmodel/test_calibration_pin.py`` rewrites
it; never edit it by hand).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.perfmodel import default_cost_model, make_topology

PIN_PATH = Path(__file__).parent / "calibration_pin.json"

CODECS = ("szx", "pipe_szx", "zfp_abs", "zfp_fxr", "null")
NBYTES = (0, 1, 4096, 7e8)
RATIOS = (None, 0.5, 8, 40, 1e3)

#: pinned fabric -> (preset, keywords, fault overlays installed on the fault run)
FABRICS = {
    "fat_tree": ("fat_tree", {}, {("ft-up", 0, 0, 0): (1.0, True), ("ft-agg-core",): (0.25, False)}),
    "rail_fat_tree": ("rail_fat_tree", {}, {("nic-up", 1, 0): (1.0, True), ("ft-down",): (0.5, False)}),
    "dragonfly": ("dragonfly", {}, {("df-global", 0, 1): (0.3, False), ("df-local", 2): (0.5, False)}),
    "dragonfly_adaptive_2to1": (
        "dragonfly",
        {"routing": "adaptive", "oversubscription": 2.0},
        {("df-global", 0, 1): (1.0, True), ("nic-down", 5): (0.7, False)},
    ),
    "two_level": ("two_level", {}, None),
    "shared_uplink": ("shared_uplink", {}, None),
}


def _cost_values(cost):
    values = {}
    for codec in CODECS:
        for nbytes in NBYTES:
            for ratio in RATIOS:
                key = f"{codec}/{nbytes!r}/{ratio!r}"
                values[f"compress/{key}"] = cost.compress_seconds(codec, nbytes, ratio)
                values[f"decompress/{key}"] = cost.decompress_seconds(codec, nbytes, ratio)
        values[f"break_even/{codec}"] = cost.codec_break_even_bandwidth(codec)
    for nbytes in NBYTES:
        values[f"memcpy/{nbytes!r}"] = cost.memcpy_seconds(nbytes)
        values[f"reduce/{nbytes!r}"] = cost.reduce_seconds(nbytes)
        values[f"alloc/{nbytes!r}"] = cost.alloc_seconds(nbytes)
        values[f"compressor_buffer/{nbytes!r}"] = cost.compressor_buffer_seconds(nbytes)
    return {key: value.hex() for key, value in values.items()}


def _fabric_values(preset, kwargs, faults):
    topology = make_topology(preset, **kwargs)
    if faults:
        for prefix, (factor, failed) in faults.items():
            topology.set_stage_fault(prefix, factor=factor, failed=failed)
    n_ranks = min(32, getattr(topology, "n_fabric_nodes", 8) * topology.ranks_per_node)
    links = hashlib.sha256()
    for src in range(n_ranks):
        for dst in range(n_ranks):
            if src != dst:
                link = topology.link(src, dst)
                links.update(
                    repr(
                        (src, dst, link.latency.hex(), link.bandwidth.hex(), len(link.stages))
                    ).encode()
                )
                if hasattr(topology, "route_of"):
                    links.update(repr(topology.route_of(src, dst)).encode())
    return {
        "describe": topology.describe(),
        "effective_inter_bandwidth": topology.effective_inter_bandwidth().hex(),
        "fault_degradation": topology.fault_degradation().hex(),
        "links": links.hexdigest()[:16],
        "stages": {repr(key): stage.capacity.hex() for key, stage in sorted(topology.stages().items())},
    }


def observe():
    pin = {
        "cost": _cost_values(default_cost_model()),
        "cost_with_szx_2x": _cost_values(
            default_cost_model().with_codec_speed("szx", 2000e6, 6600e6)
        ),
    }
    for name, (preset, kwargs, faults) in FABRICS.items():
        pin[f"fabric/{name}"] = _fabric_values(preset, kwargs, None)
        if faults:
            pin[f"fabric/{name}/faulted"] = _fabric_values(preset, kwargs, faults)
    return pin


def test_the_calibration_matches_the_pin():
    pin = json.loads(PIN_PATH.read_text())
    observed = observe()
    assert sorted(observed) == sorted(pin)
    for section, expected in pin.items():
        assert observed[section] == expected, section


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
