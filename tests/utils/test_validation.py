"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ensure_1d_float_array,
    ensure_in,
    ensure_non_negative,
    ensure_positive,
)


class TestEnsure1dFloatArray:
    def test_passthrough_float64(self):
        arr = np.array([1.0, 2.0, 3.0])
        out = ensure_1d_float_array(arr)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, arr)

    def test_preserves_float32(self):
        arr = np.array([1.0, 2.0], dtype=np.float32)
        assert ensure_1d_float_array(arr).dtype == np.float32

    def test_flattens_multidimensional(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = ensure_1d_float_array(arr)
        assert out.shape == (12,)

    def test_converts_python_list(self):
        out = ensure_1d_float_array([1.5, 2.5])
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [1.5, 2.5])

    def test_rejects_integers(self):
        with pytest.raises(TypeError, match="float32/float64"):
            ensure_1d_float_array(np.array([1, 2, 3]))

    def test_rejects_complex(self):
        with pytest.raises(TypeError, match="real-valued"):
            ensure_1d_float_array(np.array([1 + 2j]))

    def test_copy_flag_returns_independent_array(self):
        arr = np.array([1.0, 2.0])
        out = ensure_1d_float_array(arr, copy=True)
        out[0] = 99.0
        assert arr[0] == 1.0

    def test_no_copy_returns_same_buffer(self):
        arr = np.array([1.0, 2.0])
        out = ensure_1d_float_array(arr)
        assert out is arr or out.base is arr


class TestScalarValidators:
    def test_ensure_positive_accepts_positive(self):
        assert ensure_positive(2.5) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_ensure_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            ensure_positive(bad)

    def test_ensure_non_negative_accepts_zero(self):
        assert ensure_non_negative(0.0) == 0.0

    def test_ensure_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_non_negative(-0.1)

    def test_ensure_in_accepts_member(self):
        assert ensure_in("abs", ("abs", "rel")) == "abs"

    def test_ensure_in_rejects_non_member(self):
        with pytest.raises(ValueError, match="must be one of"):
            ensure_in("fxr", ("abs", "rel"))
