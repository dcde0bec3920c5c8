"""Calibrated cost model for the simulated cluster.

The discrete-event engine only understands durations; this module is where
those durations come from.  All values are calibrated against the paper's
measurements on the Bebop cluster (two-socket Intel Xeon E5-2695v4 "Broadwell"
nodes, Intel Omni-Path 100 Gbps fabric, MPICH 4.1.1, one rank per node), and
one calibration is all there is: every value below is a module constant, and
only the per-codec throughputs (:attr:`CostModel.codec_speeds`) can be swapped.

* **Compression/decompression throughput** follows Table I: SZx compresses at
  roughly 0.5-1.7 GB/s and decompresses at 0.8-3.6 GB/s depending on how
  compressible the data is; ZFP(ABS) is 2-5x slower, ZFP(FXR) slower still.
  :data:`DEFAULT_CODEC_SPEEDS` holds a base throughput per codec, scaled by
  ``(ratio / 8) ** RATIO_EXPONENT`` clamped to :data:`RATIO_SPEEDUP_RANGE`
  (constant/zero blocks are cheaper to encode, which is exactly why Table I's
  throughput grows with the error bound).  :data:`CALL_OVERHEAD` is the fixed
  cost of one compressor invocation.
* **Network**: the headline 100 Gbps (12.5 GB/s) link rate is *not* what a
  ring collective sees at the application level once protocol overheads,
  message-rate limits and fabric sharing across 16-128 busy nodes are paid.
  Working backwards from the paper's relative results — C-Allreduce is bounded
  below by roughly one SZx compression pass plus two decompression passes over
  the data (~1.2 s for 678 MB at Table I's throughputs) and still beats the
  uncompressed Allreduce by 2.1-2.5x, while the CPR-P2P variants (which add
  one more compression pass plus buffer-management overhead) *lose* to it —
  the effective per-rank bandwidth during the collectives must have been
  around 0.5 GB/s; the default network model therefore uses 0.55 GB/s with a
  20 us latency.  This calibration is what the performance figures' *shapes*
  rest on; absolute times are not comparable to the paper's cluster.
* **Memcpy / reduction bandwidth** (:data:`MEMCPY_BANDWIDTH`,
  :data:`REDUCTION_BANDWIDTH`): single-core Broadwell copy and streaming add
  rates (~8 GB/s and ~5 GB/s); :data:`ALLOC_BANDWIDTH` is the first-touch
  rate of a temporary buffer.
* **Buffer management** (:data:`COMPRESSOR_BUFFER_BANDWIDTH`): the paper's
  Figure 7 attributes a sizeable "Others" share in the direct SZx integration
  to allocating and freeing the compressor's output buffer on every call (the
  reference SZx API makes the caller free it); C-Coll reuses pre-allocated
  buffers, so only the CPR-P2P code paths charge this cost.
* **Break-even ratio** (:data:`DEFAULT_BREAK_EVEN_RATIO`): the compression
  ratio :meth:`CostModel.codec_break_even_bandwidth` assumes before the data
  is seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

from repro.utils.validation import ensure_positive

__all__ = ["CostModel", "CodecSpeed", "DEFAULT_CODEC_SPEEDS", "DEFAULT_BREAK_EVEN_RATIO"]

#: 1 MB/s in bytes/second
_MB = 1e6

#: compression ratio assumed by the break-even bandwidth estimate when the
#: caller has not seen the data yet (RTM/CESM float fields at the paper's
#: error bounds typically compress 15-30x)
DEFAULT_BREAK_EVEN_RATIO = 16.0

#: Table I: codec throughput scales by ``(ratio / 8) ** RATIO_EXPONENT``,
#: clamped to ``RATIO_SPEEDUP_RANGE`` (faster compression at looser bounds)
RATIO_EXPONENT = 0.3
RATIO_SPEEDUP_RANGE = (0.6, 1.8)
#: single-core Broadwell streaming copy / element-wise add rates (bytes/s)
MEMCPY_BANDWIDTH = 8.0e9
REDUCTION_BANDWIDTH = 5.0e9
#: first-touch allocation rate of a temporary buffer (bytes/s)
ALLOC_BANDWIDTH = 12.0e9
#: Figure 7: rate charged for allocating *and freeing* a compressor's output
#: buffer around every CPR-P2P call (bytes/s)
COMPRESSOR_BUFFER_BANDWIDTH = 2.2e9
#: fixed overhead (seconds) of one compressor invocation or buffer allocation
CALL_OVERHEAD = 3e-6


@dataclass(frozen=True)
class CodecSpeed:
    """Base (de)compression throughput of one codec, in bytes of *uncompressed*
    data per second (the convention of the paper's Table I)."""

    compress_bps: float
    decompress_bps: float

    def __post_init__(self) -> None:
        ensure_positive(self.compress_bps, "compress_bps")
        ensure_positive(self.decompress_bps, "decompress_bps")


#: calibrated against Table I (values are bytes of uncompressed data per second):
#: SZx compresses at ~0.5-1.7 GB/s and decompresses at ~0.8-3.6 GB/s depending on
#: data and bound (the ratio-dependent speed-up covers the spread); ZFP(ABS) is
#: roughly 2-5x slower and ZFP(FXR) slower still.  SZx's decompression being ~3x
#: faster than its compression (as in Table I) is what lets C-Allreduce — whose
#: critical path is roughly one compression plus two decompression passes over
#: the data — beat the uncompressed Allreduce, while the CPR-P2P variants (two
#: compression passes plus per-call buffer management) lose to it.
DEFAULT_CODEC_SPEEDS: Dict[str, CodecSpeed] = {
    "szx": CodecSpeed(compress_bps=1000 * _MB, decompress_bps=3300 * _MB),
    "pipe_szx": CodecSpeed(compress_bps=950 * _MB, decompress_bps=3000 * _MB),
    "zfp_abs": CodecSpeed(compress_bps=600 * _MB, decompress_bps=700 * _MB),
    "zfp_fxr": CodecSpeed(compress_bps=300 * _MB, decompress_bps=320 * _MB),
    "null": CodecSpeed(compress_bps=8000 * _MB, decompress_bps=8000 * _MB),
}


@dataclass(frozen=True)
class CostModel:
    """Durations of the modelled on-node operations.

    ``CostModel()`` is the calibration described in the module docstring;
    ``codec_speeds`` (base throughput per codec name, see
    :data:`DEFAULT_CODEC_SPEEDS`) is its one replaceable part — use
    :meth:`with_codec_speed` to swap a single codec.
    """

    codec_speeds: Dict[str, CodecSpeed] = field(
        default_factory=lambda: dict(DEFAULT_CODEC_SPEEDS)
    )

    # ------------------------------------------------------------ codec costs

    def _codec_name(self, codec: Union[str, object]) -> str:
        name = codec if isinstance(codec, str) else getattr(codec, "name", None)
        if not isinstance(name, str):
            raise TypeError(f"codec must be a name or a Compressor, got {codec!r}")
        return name.lower()

    def _speed(self, codec: Union[str, object]) -> CodecSpeed:
        name = self._codec_name(codec)
        if name not in self.codec_speeds:
            raise KeyError(
                f"no calibrated speed for codec {name!r}; known: {sorted(self.codec_speeds)}"
            )
        return self.codec_speeds[name]

    @staticmethod
    def _ratio_factor(ratio: Optional[float]) -> float:
        if ratio is None or ratio <= 0:
            return 1.0
        lo, hi = RATIO_SPEEDUP_RANGE
        return float(min(hi, max(lo, math.pow(ratio / 8.0, RATIO_EXPONENT))))

    def compress_seconds(
        self, codec: Union[str, object], nbytes: float, ratio: Optional[float] = None
    ) -> float:
        """Time to compress ``nbytes`` of uncompressed data with ``codec``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        speed = self._speed(codec)
        return CALL_OVERHEAD + nbytes / (speed.compress_bps * self._ratio_factor(ratio))

    def decompress_seconds(
        self, codec: Union[str, object], nbytes: float, ratio: Optional[float] = None
    ) -> float:
        """Time to reconstruct ``nbytes`` of uncompressed data with ``codec``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        speed = self._speed(codec)
        return CALL_OVERHEAD + nbytes / (speed.decompress_bps * self._ratio_factor(ratio))

    def codec_break_even_bandwidth(self, codec: Union[str, object]) -> float:
        """Wire bandwidth (bytes/s) below which compressing beats raw transfer.

        The topology-aware C-Allreduce's critical path per inter-node byte is
        roughly one compression plus two decompressions (reduce-scatter hop +
        allgather reconstruction); compression saves ``(1 - 1/ratio)`` of the
        wire time.  Solving ``saved wire time > codec time`` for the bandwidth
        gives the break-even point at the anticipated ratio
        :data:`DEFAULT_BREAK_EVEN_RATIO` (the ratio-dependent codec speed-up
        is applied to it as in :meth:`compress_seconds`); scientific float
        fields at the paper's bounds typically land in the 15-30x range.
        """
        speed = self._speed(codec)
        factor = self._ratio_factor(DEFAULT_BREAK_EVEN_RATIO)
        codec_seconds_per_byte = 1.0 / (speed.compress_bps * factor) + 2.0 / (
            speed.decompress_bps * factor
        )
        saved_fraction = 1.0 - 1.0 / DEFAULT_BREAK_EVEN_RATIO
        return saved_fraction / codec_seconds_per_byte

    # ------------------------------------------------------------ local costs

    def memcpy_seconds(self, nbytes: float) -> float:
        """Time to copy ``nbytes`` between local buffers."""
        return max(0.0, nbytes) / MEMCPY_BANDWIDTH

    def reduce_seconds(self, nbytes: float) -> float:
        """Time for an element-wise reduction over ``nbytes`` of operands."""
        return max(0.0, nbytes) / REDUCTION_BANDWIDTH

    def alloc_seconds(self, nbytes: float) -> float:
        """Time to allocate/first-touch a temporary buffer of ``nbytes``."""
        return CALL_OVERHEAD + max(0.0, nbytes) / ALLOC_BANDWIDTH

    def compressor_buffer_seconds(self, nbytes: float) -> float:
        """Per-call cost of allocating and freeing a compressor output buffer."""
        return CALL_OVERHEAD + max(0.0, nbytes) / COMPRESSOR_BUFFER_BANDWIDTH

    def with_codec_speed(
        self, codec: str, compress_bps: float, decompress_bps: float
    ) -> "CostModel":
        """Return a copy of the model with one codec's throughput replaced."""
        return replace(
            self,
            codec_speeds={
                **self.codec_speeds,
                codec.lower(): CodecSpeed(compress_bps, decompress_bps),
            },
        )
