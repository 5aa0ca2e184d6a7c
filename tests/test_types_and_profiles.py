"""Tests for shared types, validators, the phase timer, and results."""

import time

import numpy as np
import pytest

from repro.core import PHASES, PhaseTimer, SegmentationResult
from repro.errors import ImageError
from repro.types import (
    HD_1080,
    Resolution,
    as_float_rgb,
    as_uint8_rgb,
    validate_label_map,
    validate_rgb_image,
)


class TestResolution:
    def test_pixels_and_shape(self):
        r = Resolution(1920, 1080)
        assert r.pixels == 2_073_600
        assert r.shape == (1080, 1920)
        assert str(r) == "1920x1080"

    def test_rejects_nonpositive(self):
        with pytest.raises(ImageError):
            Resolution(0, 10)
        with pytest.raises(ImageError):
            Resolution(10, -1)

    def test_constants(self):
        assert HD_1080.width == 1920


class TestValidators:
    def test_uint8_passthrough(self, rgb_image):
        assert validate_rgb_image(rgb_image) is rgb_image

    def test_float_range_enforced(self):
        with pytest.raises(ImageError):
            validate_rgb_image(np.full((3, 3, 3), 1.5))

    def test_small_float_spill_tolerated(self):
        validate_rgb_image(np.full((2, 2, 3), 1.0 + 1e-8))

    def test_wrong_channel_count(self):
        with pytest.raises(ImageError):
            validate_rgb_image(np.zeros((4, 4, 4)))

    def test_int32_rejected(self):
        with pytest.raises(ImageError):
            validate_rgb_image(np.zeros((4, 4, 3), dtype=np.int32))

    def test_as_float_rgb(self, rgb_image):
        out = as_float_rgb(rgb_image)
        assert out.dtype == np.float64
        assert out.max() <= 1.0

    def test_as_uint8_rgb_roundtrip(self, rgb_image):
        assert np.array_equal(as_uint8_rgb(as_float_rgb(rgb_image)), rgb_image)

    def test_label_map_dtype(self):
        with pytest.raises(ImageError):
            validate_label_map(np.zeros((3, 3), dtype=np.float64))

    def test_label_map_negative(self):
        with pytest.raises(ImageError):
            validate_label_map(np.full((2, 2), -1, dtype=np.int32))

    def test_label_map_range_check(self):
        labels = np.array([[0, 5]], dtype=np.int32)
        validate_label_map(labels, n_labels=6)
        with pytest.raises(ImageError):
            validate_label_map(labels, n_labels=5)


class TestPhaseTimer:
    def test_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.002)
        with timer.phase("a"):
            time.sleep(0.002)
        with timer.phase("b"):
            pass
        assert timer.totals["a"] >= 0.004
        assert timer.total >= timer.totals["a"]

    def test_exception_still_recorded(self):
        # A phase aborted by an exception records its partial time in a
        # distinct "<name>!aborted" bucket, keeping the clean bucket pure.
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("fail"):
                raise RuntimeError("boom")
        assert "fail" not in timer.totals
        assert timer.totals["fail!aborted"] > 0.0
        assert timer.aborted() == {"fail": timer.totals["fail!aborted"]}
        assert timer.total >= timer.totals["fail!aborted"]

    def test_canonical_phase_names(self):
        assert "distance_min" in PHASES
        assert "color_conversion" in PHASES


class TestSegmentationResult:
    def _mk(self, timings):
        return SegmentationResult(
            labels=np.zeros((4, 4), dtype=np.int32),
            centers=np.zeros((2, 5)),
            n_superpixels=2,
            iterations=1,
            subiterations=1,
            converged=True,
            timings=timings,
        )

    def test_total_time(self):
        r = self._mk({"a": 1.0, "b": 2.0})
        assert r.total_time == 3.0

    def test_repr(self):
        assert "n_superpixels=2" in repr(self._mk({}))
