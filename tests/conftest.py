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

    ``compress`` / ``decompress`` count ``compress_bytes`` / ``decompress_bytes``
    calls made one input at a time (a rank's own codec call), ``compress_many``
    the batched calls and ``many_inputs`` the inputs those carried.  Neither
    codec calls the other's, and what a ``compress_many`` does inside counts
    as that one call, so every count is an outermost call.
    """
    seen = {"compress": 0, "decompress": 0, "compress_many": 0, "many_inputs": 0}
    inside_many = [False]

    def counted(kind, real):
        def wrapper(self, *args, **kwargs):
            if not inside_many[0]:
                seen[kind] += 1
            return real(self, *args, **kwargs)

        return wrapper

    def counted_many(real):
        def wrapper(self, arrays, restoreds):
            seen["compress_many"] += 1
            seen["many_inputs"] += len(arrays)
            inside_many[0] = True
            try:
                return real(self, arrays, restoreds)
            finally:
                inside_many[0] = False

        return wrapper

    for codec in (SZxCompressor, PipelinedSZx):
        for kind in ("compress", "decompress"):
            name = f"{kind}_bytes"
            monkeypatch.setattr(codec, name, counted(kind, vars(codec)[name]))
        monkeypatch.setattr(codec, "compress_many", counted_many(vars(codec)["compress_many"]))
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
