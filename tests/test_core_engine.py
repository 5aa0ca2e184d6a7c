"""Integration tests for the segmentation engine and public API."""

import numpy as np
import pytest

from repro.core import FixedDatapath, SlicParams, run_segmentation, slic, sslic
from repro.errors import ConfigurationError, ImageError
from repro.metrics import (
    achievable_segmentation_accuracy,
    superpixel_size_stats,
    undersegmentation_error,
)


class TestBasicContracts:
    def test_slic_output_shapes(self, small_scene):
        r = slic(small_scene.image, n_superpixels=24)
        assert r.labels.shape == small_scene.image.shape[:2]
        assert r.labels.dtype == np.int32
        assert r.centers.shape == (r.n_superpixels, 5)

    def test_sslic_output_shapes(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24)
        assert r.labels.shape == small_scene.image.shape[:2]
        assert r.subiterations == 2 * r.iterations

    def test_labels_within_cluster_range(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24)
        assert r.labels.min() >= 0
        assert r.labels.max() < r.n_superpixels

    def test_float_image_accepted(self, small_scene):
        img = small_scene.image.astype(np.float64) / 255.0
        r = slic(img, n_superpixels=16, max_iterations=2)
        assert r.labels.shape == img.shape[:2]

    def test_rejects_non_rgb(self):
        with pytest.raises(ImageError):
            slic(np.zeros((10, 10)), n_superpixels=4)

    def test_rejects_bad_params_type(self, small_scene):
        with pytest.raises(ConfigurationError):
            slic(small_scene.image, params="not params")

    def test_timings_populated(self, small_scene):
        r = slic(small_scene.image, n_superpixels=16, max_iterations=2)
        for phase in ("color_conversion", "initialization", "distance_min",
                      "center_update", "connectivity"):
            assert phase in r.timings
        assert r.total_time > 0

    def test_deterministic(self, small_scene):
        a = sslic(small_scene.image, n_superpixels=24, max_iterations=3)
        b = sslic(small_scene.image, n_superpixels=24, max_iterations=3)
        assert np.array_equal(a.labels, b.labels)


class TestQuality:
    def test_slic_recovers_clean_regions(self, small_scene):
        r = slic(small_scene.image, n_superpixels=32)
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.05
        assert achievable_segmentation_accuracy(r.labels, small_scene.gt_labels) > 0.95

    def test_sslic_matches_slic_quality(self, small_scene):
        r_s = slic(small_scene.image, n_superpixels=32, max_iterations=8,
                   convergence_threshold=0.0)
        r_ss = sslic(small_scene.image, n_superpixels=32, max_iterations=8,
                     convergence_threshold=0.0)
        u_s = undersegmentation_error(r_s.labels, small_scene.gt_labels)
        u_ss = undersegmentation_error(r_ss.labels, small_scene.gt_labels)
        assert abs(u_s - u_ss) < 0.05

    def test_more_iterations_not_worse_on_hard_scene(self, hard_scene):
        u = {}
        for iters in (1, 6):
            r = slic(hard_scene.image, n_superpixels=48, compactness=20.0,
                     max_iterations=iters, convergence_threshold=0.0)
            u[iters] = undersegmentation_error(r.labels, hard_scene.gt_labels)
        assert u[6] <= u[1] + 0.01

    def test_connectivity_removes_tiny_fragments(self, hard_scene):
        r = sslic(hard_scene.image, n_superpixels=48, max_iterations=4)
        stats = superpixel_size_stats(r.labels)
        s2 = hard_scene.image.shape[0] * hard_scene.image.shape[1] / 48
        assert stats["min_area"] >= 0.25 * s2 * 0.5  # factor with slack


class TestConvergence:
    def test_converges_before_cap_on_easy_scene(self, small_scene):
        r = slic(small_scene.image, n_superpixels=24, max_iterations=30,
                 convergence_threshold=0.5)
        assert r.converged
        assert r.iterations < 30

    def test_zero_threshold_runs_all_iterations(self, small_scene):
        r = slic(small_scene.image, n_superpixels=24, max_iterations=4,
                 convergence_threshold=0.0)
        assert not r.converged
        assert r.iterations == 4

    def test_movement_history_decreases(self, small_scene):
        r = slic(small_scene.image, n_superpixels=24, max_iterations=8,
                 convergence_threshold=0.0)
        hist = r.movement_history
        assert len(hist) == 8
        assert hist[-1] < hist[0]

    def test_max_subiterations_override(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24, max_subiterations=3,
                  convergence_threshold=0.0)
        assert r.subiterations == 3


class TestVariants:
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 0.25])
    def test_ppa_ratios(self, small_scene, ratio):
        r = sslic(small_scene.image, n_superpixels=24, subsample_ratio=ratio,
                  max_iterations=3, convergence_threshold=0.0)
        assert r.subiterations == 3 * int(round(1 / ratio))

    @pytest.mark.parametrize("strategy", ["strided", "checkerboard", "rows", "random"])
    def test_subset_strategies(self, small_scene, strategy):
        r = sslic(small_scene.image, n_superpixels=24, subset_strategy=strategy,
                  max_iterations=2)
        assert r.labels.max() < r.n_superpixels

    @pytest.mark.parametrize("mode", ["accumulate", "subset", "all_assigned"])
    def test_center_update_modes(self, small_scene, mode):
        r = sslic(small_scene.image, n_superpixels=24, center_update_mode=mode,
                  max_iterations=3)
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.1

    def test_cpa_subsampled(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24, architecture="cpa",
                  subsample_ratio=0.5, max_iterations=3)
        assert r.labels.shape == small_scene.image.shape[:2]

    def test_dynamic_neighbors(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24, static_neighbors=False,
                  max_iterations=3)
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.1

    def test_fixed_datapath_end_to_end(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24,
                  datapath=FixedDatapath(bits=8), max_iterations=4)
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.1

    def test_no_connectivity_option(self, small_scene):
        r = sslic(small_scene.image, n_superpixels=24, enforce_connectivity=False,
                  max_iterations=2)
        assert r.labels.shape == small_scene.image.shape[:2]


class TestWarmStart:
    def test_warm_centers_accepted(self, small_scene):
        first = sslic(small_scene.image, n_superpixels=24, max_iterations=3)
        second = sslic(
            small_scene.image,
            n_superpixels=24,
            max_iterations=1,
            warm_centers=first.centers,
            warm_labels=first.labels,
        )
        assert second.labels.shape == first.labels.shape

    def test_warm_start_converges_immediately(self, small_scene):
        first = slic(small_scene.image, n_superpixels=24, max_iterations=15,
                     convergence_threshold=0.0)
        resumed = slic(
            small_scene.image,
            n_superpixels=24,
            max_iterations=5,
            convergence_threshold=0.5,
            warm_centers=first.centers,
        )
        assert resumed.converged
        assert resumed.iterations == 1

    def test_warm_centers_shape_validated(self, small_scene):
        with pytest.raises(ConfigurationError):
            sslic(small_scene.image, n_superpixels=24,
                  warm_centers=np.zeros((3, 5)))

    def test_warm_centers_finite_validated(self, small_scene):
        """A NaN warm center is rejected before any kernel, on CPA and
        PPA alike: backends would otherwise disagree on NaN distances."""
        first = sslic(small_scene.image, n_superpixels=24, max_iterations=1)
        bad = first.centers.copy()
        bad[2, 0] = np.nan
        for run in (slic, sslic):
            with pytest.raises(ConfigurationError, match="finite"):
                run(small_scene.image, n_superpixels=24, warm_centers=bad)

    def test_warm_labels_range_validated(self, small_scene):
        bad = np.full(small_scene.image.shape[:2], 9999, dtype=np.int32)
        with pytest.raises(ConfigurationError):
            sslic(small_scene.image, n_superpixels=24, warm_labels=bad)

    def test_warm_start_independent_of_perturbation(self, small_scene):
        """Warm centers replace the grid seeds wholesale, so skipping
        initial-center derivation and gradient perturbation on warm
        frames must be invisible: results are bit-identical whatever
        perturb_centers says."""
        first = sslic(small_scene.image, n_superpixels=24, max_iterations=3)
        runs = [
            sslic(
                small_scene.image,
                n_superpixels=24,
                max_iterations=2,
                perturb_centers=flag,
                warm_centers=first.centers,
                warm_labels=first.labels,
            )
            for flag in (True, False)
        ]
        assert np.array_equal(runs[0].labels, runs[1].labels)
        assert np.array_equal(runs[0].centers, runs[1].centers)


class TestCenterUpdateMemory:
    """The CPA center update streams from the flat lab array; the old
    (H*W, 5) float64 values cache must not come back."""

    def test_no_lab5_sized_engine_allocation(self):
        import tracemalloc

        import repro.core.engine as engine_mod

        h, w = 120, 160
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        params = SlicParams(
            n_superpixels=40, max_iterations=2, architecture="cpa",
            convergence_threshold=0.0, kernel_backend="reference",
        )

        from repro.obs import MemorySink, Tracer

        stats = []

        class SweepSnapshotTracer(Tracer):
            """Snapshots live allocations at the end of each sweep —
            while every per-run buffer is still alive."""

            def end_span(self, span, status="ok"):
                if getattr(span, "name", "") == "sweep":
                    snap = tracemalloc.take_snapshot()
                    stats.append(
                        snap.filter_traces([
                            tracemalloc.Filter(True, engine_mod.__file__)
                        ]).statistics("lineno")
                    )
                super().end_span(span, status)

        tracer = SweepSnapshotTracer(MemorySink())
        tracemalloc.start()
        try:
            run_segmentation(image, params, tracer=tracer)
        finally:
            tracemalloc.stop()
            tracer.close()

        assert stats, "no sweep snapshots captured"
        lab5_bytes = h * w * 5 * 8
        for sweep_stats in stats:
            for stat in sweep_stats:
                # Largest legitimate engine buffer is the float64
                # distance buffer (h*w*8); the removed cache was 5x it.
                assert stat.size < lab5_bytes * 0.9, (
                    f"engine allocation of {stat.size} bytes at "
                    f"{stat.traceback} looks like a lab5 cache"
                )


class TestEquivalences:
    def test_ppa_ratio1_equals_modes(self, small_scene):
        """With no subsampling all center-update modes coincide per sweep."""
        a = sslic(small_scene.image, n_superpixels=24, subsample_ratio=1.0,
                  max_iterations=3, center_update_mode="accumulate",
                  convergence_threshold=0.0)
        b = sslic(small_scene.image, n_superpixels=24, subsample_ratio=1.0,
                  max_iterations=3, center_update_mode="subset",
                  convergence_threshold=0.0)
        assert np.array_equal(a.labels, b.labels)

    def test_run_segmentation_is_the_engine(self, small_scene):
        params = SlicParams(n_superpixels=24, max_iterations=2,
                            convergence_threshold=0.0, architecture="cpa")
        a = run_segmentation(small_scene.image, params)
        b = slic(small_scene.image, params)
        assert np.array_equal(a.labels, b.labels)

    def test_accumulate_final_sweep_equals_full_update(self, small_scene):
        """In accumulate mode the sweep-final center update averages every
        pixel — verified against a manual recomputation."""
        r = sslic(small_scene.image, n_superpixels=24, subsample_ratio=0.5,
                  max_iterations=2, convergence_threshold=0.0,
                  enforce_connectivity=False)
        from repro.color import rgb_to_lab

        lab = rgb_to_lab(small_scene.image)
        h, w = lab.shape[:2]
        yy, xx = np.mgrid[0:h, 0:w]
        manual = np.zeros((r.n_superpixels, 5))
        for k in range(r.n_superpixels):
            mask = r.labels == k
            if mask.any():
                manual[k, 0:3] = lab[mask].mean(axis=0)
                manual[k, 3] = xx[mask].mean()
                manual[k, 4] = yy[mask].mean()
            else:
                manual[k] = r.centers[k]
        # Labels from the final sub-iteration assignments produce centers;
        # the stored centers come from those same assignments.
        assert np.allclose(manual, r.centers, atol=1.5)
