"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    CESM_FIELDS,
    HURRICANE_FIELDS,
    DATASET_SPECS,
    Field,
    generate_cesm_field,
    generate_hurricane_field,
    generate_rtm_snapshot,
    load_field,
    message_of_size,
    smooth_random_field,
    sparse_random_field,
)


class TestBaseGenerators:
    def test_smooth_field_range(self):
        field = smooth_random_field((32, 32), smoothness=4.0, rng=0)
        assert field.min() >= 0.0 and field.max() <= 1.0
        assert field.dtype == np.float32

    def test_smooth_field_is_smoother_with_larger_sigma(self):
        rough = smooth_random_field((64, 64), smoothness=1.0, rng=0)
        smooth = smooth_random_field((64, 64), smoothness=8.0, rng=0)
        assert np.abs(np.diff(smooth, axis=0)).mean() < np.abs(np.diff(rough, axis=0)).mean()

    def test_sparse_field_coverage(self):
        field = sparse_random_field((64, 64), smoothness=3.0, coverage=0.2, rng=0)
        nonzero_fraction = np.count_nonzero(field) / field.size
        assert 0.05 < nonzero_fraction < 0.4

    def test_sparse_field_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            sparse_random_field((8, 8), smoothness=1.0, coverage=0.0)

    def test_determinism_with_seed(self):
        a = smooth_random_field((16, 16), 2.0, rng=7)
        b = smooth_random_field((16, 16), 2.0, rng=7)
        np.testing.assert_array_equal(a, b)


class TestRtm:
    def test_snapshot_shape_and_dtype(self):
        field = generate_rtm_snapshot(shape=(16, 24, 24), time_index=10, seed=0)
        assert isinstance(field, Field)
        assert field.shape == (16, 24, 24)
        assert field.data.dtype == np.float32
        assert field.application == "rtm"

    def test_snapshot_determinism(self):
        a = generate_rtm_snapshot(shape=(8, 16, 16), seed=3)
        b = generate_rtm_snapshot(shape=(8, 16, 16), seed=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_later_time_spreads_energy(self):
        early = generate_rtm_snapshot(shape=(24, 32, 32), time_index=5, seed=0, noise_amplitude=0)
        late = generate_rtm_snapshot(shape=(24, 32, 32), time_index=40, seed=0, noise_amplitude=0)
        assert np.count_nonzero(late.data) > np.count_nonzero(early.data)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_rtm_snapshot(time_index=-1)


class TestHurricane:
    @pytest.mark.parametrize("name", sorted(HURRICANE_FIELDS))
    def test_all_fields_generate(self, name):
        field = generate_hurricane_field(name, shape=(4, 48, 48), seed=0)
        assert field.shape == (4, 48, 48)
        assert field.name == name
        assert np.all(np.isfinite(field.data))

    def test_sparse_fields_have_zero_background(self):
        field = generate_hurricane_field("QGRAUPf", shape=(4, 64, 64), seed=0)
        zero_fraction = np.count_nonzero(field.data == 0.0) / field.size
        assert zero_fraction > 0.5

    def test_dense_field_is_dense(self):
        field = generate_hurricane_field("QVAPORf", shape=(4, 64, 64), seed=0)
        zero_fraction = np.count_nonzero(field.data == 0.0) / field.size
        assert zero_fraction < 0.1

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            generate_hurricane_field("NOPE")


class TestCesm:
    @pytest.mark.parametrize("name", sorted(CESM_FIELDS))
    def test_all_fields_generate(self, name):
        field = generate_cesm_field(name, shape=(90, 180), seed=0)
        assert field.shape == (90, 180)
        assert np.all(np.isfinite(field.data))

    def test_cloud_fraction_bounded(self):
        field = generate_cesm_field("CLOUD", shape=(90, 180), seed=0)
        assert field.data.min() >= 0.0
        assert field.data.max() <= 1.0 + 1e-6

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            generate_cesm_field("NOPE")


class TestRegistry:
    def test_specs_match_paper_table4(self):
        assert DATASET_SPECS["rtm"].paper_dimensions == (849, 849, 235)
        assert DATASET_SPECS["hurricane"].paper_dimensions == (100, 500, 500)
        assert DATASET_SPECS["cesm"].paper_dimensions == (1800, 3600)

    @pytest.mark.parametrize("app", ["rtm", "hurricane", "cesm"])
    def test_load_field_default(self, app):
        field = load_field(app, seed=0)
        assert field.application == app
        assert field.size > 0

    def test_load_field_unknown_app(self):
        with pytest.raises(KeyError):
            load_field("llnl")

    def test_message_of_size_exact(self):
        field = load_field("cesm", "CLOUD", seed=0, shape=(64, 64))
        msg = message_of_size(field, 1_000_000)
        assert msg.nbytes == 1_000_000 - (1_000_000 % field.data.dtype.itemsize)
        assert msg.dtype == field.data.dtype

    def test_message_of_size_tiles_larger_than_field(self):
        field = load_field("cesm", "CLOUD", seed=0, shape=(32, 32))
        msg = message_of_size(field, field.nbytes * 3)
        assert msg.size == field.size * 3

    def test_message_of_size_too_small_rejected(self):
        field = load_field("cesm", "CLOUD", seed=0, shape=(32, 32))
        with pytest.raises(ValueError):
            message_of_size(field, 1)

    def test_field_helpers(self):
        field = load_field("cesm", "Q", seed=0, shape=(32, 32))
        assert field.value_range > 0
        assert field.flatten().ndim == 1
        assert field.nbytes == field.size * 4
