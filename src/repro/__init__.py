"""repro — a Python reproduction of the C-Coll error-controlled MPI collective framework.

The package reproduces "An Optimized Error-controlled MPI Collective Framework
Integrated with Lossy Compression" (IPDPS 2024).  See ``README.md`` for a tour
and ``DESIGN.md`` for the system inventory and paper-experiment index.

Subpackages:

* :mod:`repro.api`         — the public session API (Cluster / Communicator)
* :mod:`repro.compression` — SZx / PIPE-SZx / ZFP-style codecs
* :mod:`repro.datasets`    — synthetic RTM / Hurricane / CESM-ATM fields
* :mod:`repro.mpisim`      — discrete-event MPI runtime simulator
* :mod:`repro.collectives` — stock MPI collective algorithms (baselines)
* :mod:`repro.ccoll`       — the C-Coll frameworks and collectives
* :mod:`repro.analysis`    — error-propagation theory and validation
* :mod:`repro.perfmodel`   — calibrated cost model and time breakdowns
* :mod:`repro.apps`        — image stacking application
* :mod:`repro.harness`     — per-table/figure experiment drivers
"""

from repro._version import __version__

# Convenience re-exports of the most common entry points.  The subpackages stay
# the canonical import locations; these aliases only cover what a quickstart or
# notebook typically needs.
from repro.api import Cluster, Communicator
from repro.apps.image_stacking import run_image_stacking
from repro.ccoll.config import CCollConfig
from repro.compression.registry import make_compressor
from repro.compression.szx import SZxCompressor
from repro.datasets.registry import load_field
from repro.harness.runner import run_experiment
from repro.perfmodel.costmodel import CostModel
from repro.perfmodel.presets import default_cost_model, default_network

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
