"""The step-wise Allreduce variants of Table V.

============  =================================================================
Abbreviation  Implementation
============  =================================================================
``AD``        Original MPI_Allreduce (no compression) — the ring baseline.
``DI``        Direct Integration: CPR-P2P compression on every message.
``ND``        Novel Design: the collective data-movement framework on the
              allgather stage (compress once, balanced pipeline), reduce-scatter
              still CPR-P2P style.
``Overlap``   ND plus the collective computation framework (PIPE-SZx
              compression/communication overlap) — i.e. the full C-Allreduce.
============  =================================================================

The alias table below is the *single* mapping from user-facing spellings to
canonical variants: ``Communicator.allreduce(compression=...)`` in
:mod:`repro.api` resolves every spelling here and the Table V harness goes
through that method, so the facade and the harness cannot drift.  The
facade's ``compression="off"``/``"on"`` switches are aliases of
``AD``/``Overlap`` in the same table.
"""

from __future__ import annotations

from typing import Dict

from repro.ccoll.allreduce import _plan_c_allreduce
from repro.ccoll.config import CCollConfig
from repro.ccoll.cpr_p2p import _plan_cpr_allreduce
from repro.collectives.context import CollectivePlan

__all__ = [
    "ALLREDUCE_VARIANTS",
    "VARIANT_ALIASES",
    "canonical_variant",
]

ALLREDUCE_VARIANTS = ("AD", "DI", "ND", "Overlap")

#: lower-cased user spelling -> canonical Table V variant.  ``"off"``/``"on"``
#: are the facade's compression switches; everything else predates the facade.
VARIANT_ALIASES: Dict[str, str] = {
    "ad": "AD",
    "allreduce": "AD",
    "original": "AD",
    "off": "AD",
    "di": "DI",
    "cpr-p2p": "DI",
    "cpr_p2p": "DI",
    "nd": "ND",
    "novel design": "ND",
    "novel_design": "ND",
    "overlap": "Overlap",
    "c-allreduce": "Overlap",
    "c_allreduce": "Overlap",
    "callreduce": "Overlap",
    "on": "Overlap",
}


def canonical_variant(name: str) -> str:
    """Resolve any accepted spelling (case-insensitive) to its canonical variant."""
    key = str(name).strip().lower()
    try:
        return VARIANT_ALIASES[key]
    except KeyError:
        raise ValueError(
            f"unknown allreduce variant {name!r}; expected one of {ALLREDUCE_VARIANTS} "
            f"(aliases: {', '.join(sorted(VARIANT_ALIASES))})"
        ) from None


def _plan_compressed_allreduce(
    variant: str, inputs, n_ranks: int, config: CCollConfig
) -> CollectivePlan:
    """Plan the canonical ``DI``, ``ND`` or ``Overlap`` variant (``AD`` is the
    uncompressed ring of :mod:`repro.collectives`)."""
    if variant == "DI":
        return _plan_cpr_allreduce(inputs, n_ranks, config)
    return _plan_c_allreduce(inputs, n_ranks, config, overlap=variant == "Overlap")
