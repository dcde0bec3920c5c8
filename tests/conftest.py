"""Shared pytest fixtures for the C-Coll reproduction test suite."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro.compression import PipelinedSZx, SZxCompressor


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_signal(rng) -> np.ndarray:
    """A smooth 1-D float32 signal (compresses well)."""
    x = np.linspace(0, 6 * np.pi, 20_000)
    return (np.sin(x) * np.exp(-x / 20) + 0.05 * np.cos(5 * x)).astype(np.float32)


@pytest.fixture
def rough_signal(rng) -> np.ndarray:
    """A rough 1-D float64 signal (compresses poorly)."""
    return rng.standard_normal(10_000)


@pytest.fixture
def sparse_signal(rng) -> np.ndarray:
    """A mostly-zero signal with a few localized bumps."""
    data = np.zeros(30_000, dtype=np.float32)
    for center in (5_000, 12_000, 22_000):
        idx = np.arange(center - 200, center + 200)
        data[idx] = np.exp(-((idx - center) / 60.0) ** 2)
    return data


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of the real SZx / PIPE-SZx calls.

    ``compress`` counts a rank's own compressions (the one-input
    ``compressed_nbytes`` call a ``CompressionAdapter`` makes with nothing
    queued), ``compressed_nbytes`` the warm's ring-round batches and
    ``nbytes_inputs`` the inputs those carried; ``compress_bytes`` /
    ``decompress`` count the calls that pack or decode a payload, which no
    simulation makes.  Neither codec calls the other's, and what a call does
    inside counts as that one call, so every count is an outermost call.
    """
    from repro.ccoll.adapter import CompressionAdapter

    seen = {
        "compress_bytes": 0, "compress": 0, "decompress": 0,
        "compressed_nbytes": 0, "nbytes_inputs": 0,
    }  # fmt: skip
    inside, own = [False], [False]

    def counted(kind, real):
        def wrapper(self, *args, **kwargs):
            if not inside[0]:
                seen[kind] += 1
            return real(self, *args, **kwargs)

        return wrapper

    def counted_nbytes(real):
        def wrapper(self, arrays, restoreds):
            if own[0]:
                seen["compress"] += 1
            else:
                seen["compressed_nbytes"] += 1
                seen["nbytes_inputs"] += len(arrays)
            inside[0] = True
            try:
                return real(self, arrays, restoreds)
            finally:
                inside[0] = False

        return wrapper

    real_encode = CompressionAdapter._encode

    def encode(self, data):
        own[0] = True
        try:
            return real_encode(self, data)
        finally:
            own[0] = False

    monkeypatch.setattr(CompressionAdapter, "_encode", encode)
    for codec in (SZxCompressor, PipelinedSZx):
        for name, kind in (("compress_bytes", "compress_bytes"), ("decompress_bytes", "decompress")):
            monkeypatch.setattr(codec, name, counted(kind, getattr(codec, name)))
        monkeypatch.setattr(codec, "compressed_nbytes", counted_nbytes(codec.compressed_nbytes))
    return seen


@pytest.fixture
def adapters(monkeypatch):
    """Every ``CompressionAdapter`` made from here on, in order."""
    from repro.ccoll.adapter import CompressionAdapter

    made = []
    real = CompressionAdapter.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(CompressionAdapter, "__init__", recording)
    return made


@pytest.fixture
def sha256_calls(monkeypatch):
    """SHA-256 digests started anywhere in the process, counted per calling module.

    ``hashlib.sha256`` is replaced on the module itself, so every
    ``hashlib.sha256(...)`` call, whoever makes it, goes through the count.
    """
    seen = Counter()
    real = hashlib.sha256

    def counted(*args, **kwargs):
        seen[sys._getframe(1).f_globals.get("__name__")] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    return seen


@pytest.fixture
def fresh_python():
    """``run(code) -> stdout`` of ``code`` in a new interpreter with this one's
    environment and working directory (so ``repro`` is found the same way)."""

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
