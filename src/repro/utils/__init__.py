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
    ensure_dtype,
)
from repro.utils.chunking import chunk_bounds, split_counts, split_displacements
from repro.utils.rng import resolve_rng
from repro.utils.bitpack import required_bits_unsigned, pack_uint_bits, unpack_uint_bits
from repro.utils.units import MB, GB, KB, bytes_to_mb, mb_to_bytes

__all__ = [
    "ensure_1d_float_array",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in",
    "ensure_dtype",
    "chunk_bounds",
    "split_counts",
    "split_displacements",
    "resolve_rng",
    "required_bits_unsigned",
    "pack_uint_bits",
    "unpack_uint_bits",
    "KB",
    "MB",
    "GB",
    "bytes_to_mb",
    "mb_to_bytes",
]
