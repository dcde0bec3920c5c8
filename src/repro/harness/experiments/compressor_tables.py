"""Tables I, II, III and VI: compressor characterisation on the three datasets.

The paper characterises SZx, ZFP(ABS) and ZFP(FXR) on RTM / Hurricane /
CESM-ATM fields (Section III-C) before picking SZx for C-Coll:

* **Table I** — compression/decompression throughput (MB/s),
* **Table II** — compression ratios (min/avg/max over the dataset's files),
* **Table III** — compression quality (PSNR min/avg/max),
* **Table VI** — per-field ratios for the Hurricane/CESM fields used in
  Figure 13.

This module regenerates all four from the synthetic dataset surrogates.
Tables I-III are views of one sweep, :func:`characterise`: each is a pure
function from its rows to an :class:`~repro.harness.reporting.ExperimentResult`.
Two throughput numbers are reported for Table I: the *modelled* throughput (the
calibrated cost model evaluated at the measured ratio — the quantity every
performance figure uses) and the *measured* throughput of this repository's
pure-Python codecs (honest, but not comparable to the C implementations).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.compression.registry import make_compressor
from repro.datasets.registry import load_field
from repro.harness.common import FIELD_CASES, FIELD_ERROR_BOUND, resolve_scale
from repro.harness.reporting import ExperimentResult
from repro.metrics.quality import psnr
from repro.metrics.ratios import aggregate_ratio_stats
from repro.perfmodel.costmodel import CostModel

__all__ = [
    "characterise",
    "table1_throughput",
    "table2_ratios",
    "table3_quality",
    "run_table6",
]

#: (application, field) pairs standing in for the paper's three datasets
DATASET_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("rtm", "snapshot"),
    ("hurricane", "QVAPORf"),
    ("cesm", "CLOUD"),
)

ERROR_BOUNDS = (1e-2, 1e-3, 1e-4)
FIXED_RATES = (4, 8, 16)

#: independently seeded "files" per dataset field (min / avg / max over them)
N_FILES = 3


def _codec_settings() -> List[Tuple[str, str, Dict[str, float]]]:
    """(codec, setting label, kwargs) triples covering the paper's sweep."""
    settings = []
    for eb in ERROR_BOUNDS:
        settings.append(("szx", f"ABS {eb:.0e}", {"error_bound": eb}))
    for eb in ERROR_BOUNDS:
        settings.append(("zfp_abs", f"ABS {eb:.0e}", {"error_bound": eb}))
    for rate in FIXED_RATES:
        settings.append(("zfp_fxr", f"FXR {rate}", {"rate": rate}))
    return settings


def _dataset_files(application: str, field: str, n_points: int, n_files: int) -> List[np.ndarray]:
    """Several independently seeded "files" of one dataset field."""
    files = []
    for seed in range(n_files):
        data = load_field(application, None if application == "rtm" else field, seed=seed + 1)
        flat = data.flatten()
        files.append(flat[: min(n_points, flat.size)])
    return files


def characterise(scale="small", n_files: int = N_FILES) -> List[Dict[str, object]]:
    """Run the full codec x setting x dataset sweep once; shared by Tables I-III."""
    settings = resolve_scale(scale)
    cost = CostModel()
    rows: List[Dict[str, object]] = []
    for application, field in DATASET_FIELDS:
        files = _dataset_files(application, field, settings.table_points, n_files)
        for codec_name, label, kwargs in _codec_settings():
            codec = make_compressor(codec_name, **kwargs)
            ratios, psnrs = [], []
            measured_comp_bps, measured_decomp_bps = [], []
            for data in files:
                start = time.perf_counter()
                buf = codec.compress(data)
                comp_elapsed = time.perf_counter() - start
                start = time.perf_counter()
                recon = codec.decompress(buf)
                decomp_elapsed = time.perf_counter() - start
                ratios.append(buf.ratio)
                psnrs.append(psnr(data, recon))
                measured_comp_bps.append(data.nbytes / max(comp_elapsed, 1e-9))
                measured_decomp_bps.append(data.nbytes / max(decomp_elapsed, 1e-9))
            avg_ratio = float(np.mean(ratios))
            nbytes = files[0].nbytes
            rows.append(
                {
                    "dataset": application,
                    "field": field,
                    "codec": codec_name,
                    "setting": label,
                    "ratio_min": min(ratios),
                    "ratio_avg": avg_ratio,
                    "ratio_max": max(ratios),
                    "psnr_min": min(psnrs),
                    "psnr_avg": float(np.mean(psnrs)),
                    "psnr_max": max(psnrs),
                    "model_compress_MBps": nbytes
                    / cost.compress_seconds(codec_name, nbytes, ratio=avg_ratio)
                    / 1e6,
                    "model_decompress_MBps": nbytes
                    / cost.decompress_seconds(codec_name, nbytes, ratio=avg_ratio)
                    / 1e6,
                    "python_compress_MBps": float(np.mean(measured_comp_bps)) / 1e6,
                    "python_decompress_MBps": float(np.mean(measured_decomp_bps)) / 1e6,
                }
            )
    return rows


def table1_throughput(rows: List[Dict[str, object]]) -> ExperimentResult:
    """Table I: compression/decompression throughput (MB/s)."""
    result = ExperimentResult(
        experiment="table1",
        title="Compression/decompression throughput (MB/s)",
        paper_reference=(
            "SZx: ~530-1750 MB/s compress, ~820-3640 MB/s decompress; ZFP(ABS) 2-5x slower; "
            "ZFP(FXR) slowest (Table I)"
        ),
        columns=[
            "dataset",
            "codec",
            "setting",
            "model_compress_MBps",
            "model_decompress_MBps",
            "python_compress_MBps",
            "python_decompress_MBps",
        ],
    )
    result.add_rows(rows)
    result.add_note(
        "model_* columns come from the calibrated cost model (what the performance figures use); "
        "python_* columns are the measured throughput of this repository's numpy codecs."
    )
    return result


def table2_ratios(rows: List[Dict[str, object]]) -> ExperimentResult:
    """Table II: compression ratios (min/avg/max)."""
    result = ExperimentResult(
        experiment="table2",
        title="Compression ratios (original size / compressed size)",
        paper_reference=(
            "SZx on RTM: 116/49/30 (avg) at 1e-2/1e-3/1e-4; Hurricane 123/17/7; CESM 8.5/5.1/3.4; "
            "ZFP(FXR) fixed at 8/4/2 (Table II)"
        ),
        columns=["dataset", "codec", "setting", "ratio_min", "ratio_avg", "ratio_max"],
    )
    result.add_rows(rows)
    return result


def table3_quality(rows: List[Dict[str, object]]) -> ExperimentResult:
    """Table III: compression quality (PSNR, dB)."""
    result = ExperimentResult(
        experiment="table3",
        title="Compression quality (PSNR, dB)",
        paper_reference=(
            "PSNR grows ~20 dB per 10x tighter bound; ZFP(FXR) needs rate 16 to reach >100 dB "
            "(Table III)"
        ),
        columns=["dataset", "codec", "setting", "psnr_min", "psnr_avg", "psnr_max"],
    )
    result.add_rows(rows)
    return result


def run_table6(scale="small") -> ExperimentResult:
    """Table VI: SZx compression ratios of the Figure 13 fields at 1e-4."""
    settings = resolve_scale(scale)
    codec = make_compressor("szx", error_bound=FIELD_ERROR_BOUND)
    result = ExperimentResult(
        experiment="table6",
        title=f"Per-field SZx compression ratios (error bound {FIELD_ERROR_BOUND:g})",
        paper_reference="PRECIPf 33.8, QGRAUPf 58.3, CLOUDf 39.9, Q 79.1 (Table VI)",
        columns=["dataset", "field", "ratio_min", "ratio_avg", "ratio_max"],
    )
    for application, field in FIELD_CASES:
        files = _dataset_files(application, field, settings.table_points, N_FILES)
        stats = aggregate_ratio_stats([codec.compress(data).ratio for data in files])
        result.add_row(
            dataset=application,
            field=field,
            ratio_min=stats["min"],
            ratio_avg=stats["avg"],
            ratio_max=stats["max"],
        )
    result.add_note(
        "ratios are lower than the paper's because the synthetic surrogates are rougher than the "
        "original SDRBench fields; all four fields remain well-compressible (ratio >> 1), which is "
        "what Figure 13 depends on."
    )
    return result
