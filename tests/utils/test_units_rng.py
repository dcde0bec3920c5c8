"""Tests for repro.utils.units and repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import resolve_rng
from repro.utils.units import GB, KB, MB


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3


class TestResolveRng:
    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        a = resolve_rng(42).standard_normal(5)
        b = resolve_rng(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert resolve_rng(gen) is gen

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_rng("seed")
