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

from repro.ccoll.adapter import CodecMemo, CompressionAdapter
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
    codec_memo:
        Codec results the collectives planned from this config reuse and add
        to (:class:`repro.ccoll.adapter.CodecMemo`).  Not a setting: it changes
        no result, so it takes no part in equality or the repr.
        ``repro.workload`` sets it per job; everywhere else it is ``None``,
        and a ring collective that warms its rounds (C-Coll's reduce-scatter,
        allreduce and allgather) gives its plan a memo of its own
        (:meth:`plan_memo`).
    """

    codec: str = "szx"
    error_bound: float = 1e-3
    rate: float = 8.0
    size_multiplier: float = 1.0
    cost: CostModel = field(default_factory=CostModel)
    codec_memo: Optional[CodecMemo] = field(default=None, compare=False, repr=False)

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
        self,
        ctx: CollectiveContext,
        n_ranks: int,
        pipelined: bool = False,
        memo: Optional[CodecMemo] = None,
    ) -> List[CompressionAdapter]:
        """One adapter per rank around the configured (or the PIPE-SZx) codec,
        sharing ``memo`` (by default :attr:`codec_memo`)."""
        make = self.make_pipelined_codec if pipelined else self.make_codec
        memo = self.codec_memo if memo is None else memo
        return [CompressionAdapter(make(), ctx, memo) for _ in range(n_ranks)]

    def plan_memo(self) -> CodecMemo:
        """The job's :attr:`codec_memo`, or a new memo for one plan's adapters."""
        return CodecMemo() if self.codec_memo is None else self.codec_memo

    def context(self) -> CollectiveContext:
        """Collective execution context (cost model + virtual-size scaling)."""
        return CollectiveContext(cost=self.cost, size_multiplier=self.size_multiplier)

    def with_updates(self, **kwargs) -> "CCollConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)
