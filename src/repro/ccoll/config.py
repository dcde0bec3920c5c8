"""Configuration of the C-Coll framework.

One :class:`CCollConfig` instance describes everything a C-Coll collective
needs besides the data: which error-bounded codec to use and with what bound,
and how real bytes map to virtual (paper-scale) bytes.  Which C-Coll variant
runs is not a setting: a call's ``compression`` argument names it
(:mod:`repro.api.communicator`).  Nor is PIPE-SZx's chunking: it is
:data:`~repro.compression.pipelined.DEFAULT_CHUNK_ELEMS`, the paper's 5120.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.ccoll.adapter import CodecTape, CompressionAdapter
from repro.collectives.context import CollectiveContext
from repro.compression.base import Compressor
from repro.compression.pipelined import PipelinedSZx
from repro.compression.registry import available_compressors, make_compressor
from repro.perfmodel.costmodel import CostModel
from repro.utils.validation import ensure_in, ensure_positive

__all__ = ["CCollConfig"]


@dataclass(frozen=True)
class CCollConfig:
    """Settings shared by every C-Coll collective.

    Parameters
    ----------
    codec:
        Exact name of the error-bounded codec used by C-Coll, one of
        :func:`~repro.compression.registry.available_compressors` ("szx" in
        the paper; "zfp_abs"/"zfp_fxr" are accepted for the CPR-P2P
        baselines).
    error_bound:
        Absolute error bound handed to the codec (ignored by "zfp_fxr").
    rate:
        Bits per value for the fixed-rate baseline codec.
    size_multiplier:
        Virtual bytes represented by each real byte (see
        :class:`repro.collectives.context.CollectiveContext`).
    cost:
        Cost model used to convert work into virtual seconds.
    codec_tape:
        The queues an earlier plan of the same computation recorded, for the
        collectives planned from this config to replay and extend
        (:class:`repro.ccoll.adapter.CodecTape`).  Not a setting: it changes
        no result, so it takes no part in equality or the repr.
        ``repro.workload`` sets it per step of a job that can execute more
        than once; everywhere else it is ``None``.  Nothing is digested
        either way.
    """

    codec: str = "szx"
    error_bound: float = 1e-3
    rate: float = 8.0
    size_multiplier: float = 1.0
    cost: CostModel = field(default_factory=CostModel)
    codec_tape: Optional[CodecTape] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        ensure_in(self.codec, available_compressors(), "codec")
        ensure_positive(self.error_bound, "error_bound")
        ensure_positive(self.rate, "rate")
        ensure_positive(self.size_multiplier, "size_multiplier")
        self.make_codec()  # a codec that refuses its settings does so here, not mid-run

    # ---------------------------------------------------------------- helpers

    def make_codec(self) -> Compressor:
        """Instantiate the configured codec."""
        if self.codec == "pipe_szx":
            return self.make_pipelined_codec()
        if self.codec == "zfp_fxr":
            return make_compressor("zfp_fxr", rate=self.rate)
        if self.codec == "null":
            return make_compressor("null")
        return make_compressor(self.codec, error_bound=self.error_bound)  # szx / zfp_abs

    def make_pipelined_codec(self) -> PipelinedSZx:
        """The PIPE-SZx instance used by the collective computation framework."""
        return PipelinedSZx(error_bound=self.error_bound)

    def make_adapters(
        self, ctx: CollectiveContext, n_ranks: int, pipelined: bool = False
    ) -> List[CompressionAdapter]:
        """One adapter per rank around the configured (or the PIPE-SZx) codec,
        on :attr:`codec_tape`."""
        make = self.make_pipelined_codec if pipelined else self.make_codec
        return [CompressionAdapter(make(), ctx, self.codec_tape) for _ in range(n_ranks)]

    def context(self) -> CollectiveContext:
        """Collective execution context (cost model + virtual-size scaling)."""
        return CollectiveContext(cost=self.cost, size_multiplier=self.size_multiplier)

    def with_updates(self, **kwargs) -> "CCollConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
