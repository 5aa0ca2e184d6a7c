"""Unit tests for the GPU models, gSLIC, and Preemptive SLIC baselines."""

import numpy as np
import pytest

from repro.baselines import (
    CORE_I7_4600M,
    GpuSlicModel,
    TEGRA_K1,
    TESLA_K20,
    gslic,
    preemptive_slic,
    preemptive_sslic,
    table5_comparison,
)
from repro.errors import ConfigurationError
from repro.hw import AcceleratorModel, process_normalization_factor, table4_configs
from repro.kernels import available_backends
from repro.metrics import undersegmentation_error

N_1080P = 1920 * 1080


class TestGpuModel:
    def test_k20_latency_matches_measurement(self):
        model = GpuSlicModel(TESLA_K20)
        assert model.predict_latency_ms(N_1080P, 5000) == pytest.approx(22.3, rel=0.01)

    def test_tk1_latency_matches_measurement(self):
        model = GpuSlicModel(TEGRA_K1)
        assert model.predict_latency_ms(N_1080P, 5000) == pytest.approx(2713, rel=0.01)

    def test_both_gpus_memory_bound(self):
        for dev in (TESLA_K20, TEGRA_K1):
            assert GpuSlicModel(dev).bound_type(N_1080P, 5000) == "memory"

    def test_roofline_bound_below_prediction(self):
        model = GpuSlicModel(TESLA_K20)
        assert model.roofline_bound_ms(N_1080P, 5000) < model.predict_latency_ms(
            N_1080P, 5000
        )

    def test_normalization_factor(self):
        assert process_normalization_factor() == pytest.approx(2.1875)

    def test_k20_fast_but_power_hungry(self):
        row = GpuSlicModel(TESLA_K20).platform_row(N_1080P, 5000)
        assert row.real_time
        assert row.avg_power_w > 50

    def test_tk1_misses_real_time_badly(self):
        """Paper: TK1 'misses the real-time frame rate by a factor of 80'."""
        row = GpuSlicModel(TEGRA_K1).platform_row(N_1080P, 5000)
        assert row.latency_ms / (1000 / 30) == pytest.approx(81, rel=0.05)

    def test_iterations_validated(self):
        with pytest.raises(ConfigurationError):
            GpuSlicModel(TESLA_K20, iterations=0)

    def test_cpu_spec_present(self):
        assert CORE_I7_4600M.cores == 2


class TestTable5:
    @pytest.fixture(scope="class")
    def comparison(self):
        accel = AcceleratorModel(table4_configs()["1920x1080"]).report()
        return table5_comparison(accel)

    def test_headline_efficiency_vs_k20(self, comparison):
        assert comparison["efficiency_vs_k20"] > 500  # paper: "over 500x"

    def test_headline_efficiency_vs_tk1(self, comparison):
        assert comparison["efficiency_vs_tk1"] > 250  # paper: "over 250x"

    def test_normalized_powers(self, comparison):
        rows = comparison["rows"]
        assert rows["Tesla K20"].norm_power_w == pytest.approx(39.3, rel=0.02)
        assert rows["TK1"].norm_power_w * 1e3 == pytest.approx(152, rel=0.02)

    def test_energy_rows(self, comparison):
        rows = comparison["rows"]
        assert rows["Tesla K20"].energy_per_frame_mj_norm == pytest.approx(877, rel=0.02)
        assert rows["TK1"].energy_per_frame_mj_norm == pytest.approx(412, rel=0.02)
        assert rows["This Work"].energy_per_frame_mj_norm == pytest.approx(1.6, rel=0.05)

    def test_only_accelerator_and_k20_are_real_time(self, comparison):
        rows = comparison["rows"]
        assert rows["Tesla K20"].real_time
        assert not rows["TK1"].real_time
        assert rows["This Work"].real_time

    def test_on_chip_memory_ordering(self, comparison):
        rows = comparison["rows"]
        assert (
            rows["This Work"].on_chip_kb
            < rows["TK1"].on_chip_kb
            < rows["Tesla K20"].on_chip_kb
        )


class TestGslic:
    def test_is_full_image_ppa(self, small_scene):
        r = gslic(small_scene.image, n_superpixels=24, max_iterations=3,
                  convergence_threshold=0.0)
        assert r.subiterations == 3  # one sub-iteration per sweep
        assert r.params.architecture == "ppa"
        assert r.params.subsample_ratio == 1.0

    def test_quality_comparable_to_slic(self, small_scene):
        r = gslic(small_scene.image, n_superpixels=24)
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.08


class TestPreemptive:
    def test_activity_decreases(self, small_scene):
        r = preemptive_slic(small_scene.image, n_superpixels=24,
                            max_iterations=10, convergence_threshold=0.0)
        hist = r.active_history
        assert hist[0] == r.n_superpixels
        assert hist[-1] < hist[0]

    def test_quality_preserved(self, small_scene):
        r = preemptive_slic(small_scene.image, n_superpixels=24)
        # 0.1 bound: the corrected 2S x 2S CPA window (paper Section 2)
        # shifts a handful of boundary pixels on this 64x96 scene.
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.1

    def test_threshold_validated(self, small_scene):
        with pytest.raises(ConfigurationError):
            preemptive_slic(small_scene.image, preemption_threshold=-1.0)

    def test_combined_preemptive_sslic_runs(self, small_scene):
        r = preemptive_sslic(small_scene.image, n_superpixels=24,
                             max_iterations=6)
        assert r.labels.shape == small_scene.image.shape[:2]
        assert undersegmentation_error(r.labels, small_scene.gt_labels) < 0.1
        assert len(r.active_history) >= 1

    def test_combined_freezes_clusters(self, small_scene):
        r = preemptive_sslic(small_scene.image, n_superpixels=24,
                             max_iterations=10, preemption_threshold=0.5)
        assert r.active_history[-1] < r.n_superpixels

    @pytest.mark.parametrize("run", [preemptive_slic, preemptive_sslic])
    def test_runs_on_the_named_backend(self, small_scene, monkeypatch, run):
        """``kernel_backend="reference"`` calls no compiled kernel, and
        gives the labels ``native-mt`` gives."""
        if "native-mt" not in available_backends():
            pytest.skip("native-mt backend unavailable")
        from repro.kernels import native_mt

        kw = dict(n_superpixels=24, max_iterations=6)
        want = run(small_scene.image, kernel_backend="native-mt", **kw)

        def unreachable(*args, **kwargs):
            raise AssertionError("a native-mt kernel ran")

        for kernel in ("cpa_assign", "ppa_assign", "enforce_connectivity",
                       "lab_from_codes", "lab_from_rgb", "sigma_accumulate"):
            monkeypatch.setattr(native_mt, kernel, unreachable)
        got = run(small_scene.image, kernel_backend="reference", **kw)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.centers, want.centers)
        assert got.active_history == want.active_history
