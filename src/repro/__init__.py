"""repro — a Python reproduction of the C-Coll error-controlled MPI collective framework.

The package reproduces "An Optimized Error-controlled MPI Collective Framework
Integrated with Lossy Compression" (IPDPS 2024).  ``faults``, ``fuzzer`` and
``workload`` carry a ``README.md`` in their package directory;
``benchmarks/README.md`` and ``benchmarks/ledger/README.md`` describe how the
tree is measured, ``ROADMAP.md`` where it is going.

Subpackages, lowest layer first:

* :mod:`repro.utils`       — validation, chunking, RNG, bit packing, units (numpy only)
* :mod:`repro.metrics`     — PSNR / NRMSE, compression ratios, latency summaries
* :mod:`repro.compression` — SZx / PIPE-SZx / ZFP-style codecs
* :mod:`repro.datasets`    — synthetic RTM / Hurricane / CESM-ATM fields
* :mod:`repro.mpisim`      — discrete-event MPI runtime simulator and fabric models
* :mod:`repro.perfmodel`   — calibrated cost model and time breakdowns
* :mod:`repro.faults`      — seeded fault schedules replayed into a live engine
* :mod:`repro.collectives` — stock MPI collective algorithms (baselines)
* :mod:`repro.analysis`    — error-propagation theory and validation
* :mod:`repro.ccoll`       — the C-Coll frameworks and collectives
* :mod:`repro.api`         — the public session API (Cluster / Communicator)
* :mod:`repro.workload`    — many jobs on one fabric, placement, recovery
* :mod:`repro.fuzzer`      — scenario fuzzer with an invariant autopilot
* :mod:`repro.apps`        — image stacking application
* :mod:`repro.harness`     — per-table/figure experiment drivers

``import repro`` loads none of them: the names in ``__all__`` and the
subpackages above resolve on first attribute access and are then cached here.
"""

from importlib import import_module

from repro._version import __version__

__all__ = [
    "__version__",
    "Cluster",
    "Communicator",
    "CCollConfig",
    "CostModel",
    "SZxCompressor",
    "make_compressor",
    "load_field",
    "run_image_stacking",
    "run_experiment",
    "default_network",
    "default_cost_model",
]

# name -> the module to import for it.  The convenience re-exports cover what a
# quickstart or notebook typically needs (the subpackages stay the canonical
# import locations); a subpackage name maps to itself.
_HOMES = {
    "Cluster": "repro.api",
    "Communicator": "repro.api",
    "CCollConfig": "repro.ccoll.config",
    "CostModel": "repro.perfmodel.costmodel",
    "SZxCompressor": "repro.compression.szx",
    "make_compressor": "repro.compression.registry",
    "load_field": "repro.datasets.registry",
    "run_image_stacking": "repro.apps.image_stacking",
    "run_experiment": "repro.harness.runner",
    "default_network": "repro.perfmodel.presets",
    "default_cost_model": "repro.perfmodel.presets",
    **{
        name: f"repro.{name}"
        for name in (
            "analysis",
            "api",
            "apps",
            "ccoll",
            "collectives",
            "compression",
            "datasets",
            "faults",
            "fuzzer",
            "harness",
            "metrics",
            "mpisim",
            "perfmodel",
            "utils",
            "workload",
        )
    },
}


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(home)
    value = module if home == f"repro.{name}" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
