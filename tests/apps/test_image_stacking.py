"""Tests for the RTM image-stacking application (Section IV-E)."""

import numpy as np
import pytest

from repro.apps import STACKING_METHODS, generate_partial_images, run_image_stacking
from repro.mpisim import NetworkModel

NET = NetworkModel(latency=1e-6, bandwidth=0.55e9, eager_threshold=1024, inflight_window=1024**2)


class TestPartialImages:
    def test_one_image_per_rank(self):
        images = generate_partial_images(4, image_shape=(32, 32), depth=8, seed=0)
        assert len(images) == 4
        assert all(img.shape == (32, 32) for img in images)
        assert all(img.dtype == np.float32 for img in images)

    def test_images_differ_between_ranks(self):
        images = generate_partial_images(3, image_shape=(32, 32), depth=8, seed=0)
        assert not np.array_equal(images[0], images[1])

    def test_deterministic_for_seed(self):
        a = generate_partial_images(2, image_shape=(16, 16), depth=4, seed=7)
        b = generate_partial_images(2, image_shape=(16, 16), depth=4, seed=7)
        np.testing.assert_array_equal(a[0], b[0])


class TestStacking:
    @pytest.fixture(scope="class")
    def partials(self):
        return generate_partial_images(8, image_shape=(48, 48), depth=8, seed=1)

    def test_plain_allreduce_is_exact(self, partials):
        result = run_image_stacking(
            8, method="allreduce", partial_images=partials, network=NET
        )
        assert result.quality.max_abs_error < 1e-4  # float32 summation only
        assert result.compression_ratio is None

    def test_c_allreduce_quality_tracks_error_bound(self, partials):
        loose = run_image_stacking(
            8, method="c-allreduce", error_bound=1e-2, partial_images=partials, network=NET
        )
        tight = run_image_stacking(
            8, method="c-allreduce", error_bound=1e-4, partial_images=partials, network=NET
        )
        assert tight.quality.psnr > loose.quality.psnr + 15
        assert tight.quality.nrmse < loose.quality.nrmse
        assert loose.compression_ratio > tight.compression_ratio

    def test_c_allreduce_error_within_aggregation_bound(self, partials):
        eb = 1e-3
        result = run_image_stacking(
            8, method="c-allreduce", error_bound=eb, partial_images=partials, network=NET
        )
        assert result.quality.max_abs_error <= (8 + 1) * eb

    def test_fixed_rate_baseline_much_worse_quality(self, partials):
        """Figure 18: the rate-4 fixed-rate baseline damages the stacked image
        while the error-bounded C-Allreduce stays faithful."""
        fxr = run_image_stacking(
            8, method="cpr-zfp-fxr", rate=4, partial_images=partials, network=NET
        )
        ccoll = run_image_stacking(
            8, method="c-allreduce", error_bound=1e-3, partial_images=partials, network=NET
        )
        assert ccoll.quality.psnr > fxr.quality.psnr + 10

    def test_result_shapes(self, partials):
        result = run_image_stacking(
            8, method="c-allreduce", error_bound=1e-3, partial_images=partials, network=NET
        )
        assert result.stacked.shape == (48, 48)
        assert result.reference.shape == (48, 48)
        assert result.method == "c-allreduce"
        assert result.total_time > 0

    def test_all_methods_run(self, partials):
        for method in STACKING_METHODS:
            result = run_image_stacking(
                8, method=method, error_bound=1e-3, rate=8, partial_images=partials, network=NET
            )
            assert result.total_time > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_image_stacking(2, method="zstd", network=NET)

    def test_mismatched_partials_rejected(self, partials):
        with pytest.raises(ValueError):
            run_image_stacking(4, method="allreduce", partial_images=partials, network=NET)
