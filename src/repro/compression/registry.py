"""Codec registry and factory.

The experiment harness, the C-Coll configuration layer, and the command-line
examples all refer to codecs by name ("szx", "zfp_abs", "zfp_fxr", ...); this
module maps those names to constructor calls with the right keyword arguments.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.compression.base import Compressor
from repro.compression.null import NullCompressor
from repro.compression.pipelined import PipelinedSZx
from repro.compression.szx import SZxCompressor
from repro.compression.zfp import MODE_ABS, MODE_FXR, ZFPCompressor

__all__ = ["make_compressor", "available_compressors"]

#: every codec by its exact name -> its constructor
_FACTORIES: Dict[str, Callable[..., Compressor]] = {
    "szx": SZxCompressor,
    "pipe_szx": PipelinedSZx,
    "zfp_abs": lambda **kw: ZFPCompressor(mode=MODE_ABS, **kw),
    "zfp_fxr": lambda **kw: ZFPCompressor(mode=MODE_FXR, **kw),
    "null": NullCompressor,
}


def available_compressors() -> list:
    """Names of all codecs, sorted."""
    return sorted(_FACTORIES)


def make_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a codec by its exact name.

    Supported names (and their keyword arguments):

    * ``"szx"`` — ``error_bound``, ``block_size``, ``error_mode``
    * ``"pipe_szx"`` — ``error_bound``, ``chunk_elems``, ``block_size``
    * ``"zfp_abs"`` — ``error_bound``, ``block_size``
    * ``"zfp_fxr"`` — ``rate``, ``block_size``
    * ``"null"`` — no arguments
    """
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown compressor {name!r}; available: {', '.join(available_compressors())}"
        )
    return _FACTORIES[name](**kwargs)
