"""Shared low-level utilities used across the C-Coll reproduction.

The helpers here are deliberately small and dependency-free (numpy only) so that
every other subsystem (compressors, the MPI simulator, the collectives, the
experiment harness) can rely on them without import cycles.
"""

from repro.utils.validation import (
    ensure_1d_float_array,
    ensure_positive,
    ensure_non_negative,
    ensure_in,
)
from repro.utils.chunking import split_counts, split_displacements
from repro.utils.rng import resolve_rng
from repro.utils.bitpack import pack_uint_bits, unpack_uint_bits
from repro.utils.units import MB, GB, KB

__all__ = [
    "ensure_1d_float_array",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in",
    "split_counts",
    "split_displacements",
    "resolve_rng",
    "pack_uint_bits",
    "unpack_uint_bits",
    "KB",
    "MB",
    "GB",
]
