"""Unit tests for the float64 reference color conversion (Equations 1-4)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import (
    lab_to_rgb,
    lab_to_xyz,
    linear_rgb_to_xyz,
    rgb_to_lab,
    srgb_gamma_compress,
    srgb_gamma_expand,
    xyz_to_lab,
    xyz_to_linear_rgb,
    D65_WHITE,
)
from repro.color import reference
from repro.color.reference import BAND_PIXELS
from repro.errors import ImageError
from repro.kernels import available_backends, get_backend
from repro.types import as_float_rgb


class TestGamma:
    def test_zero_and_one_fixed(self):
        assert srgb_gamma_expand(0.0) == pytest.approx(0.0)
        assert srgb_gamma_expand(1.0) == pytest.approx(1.0)

    def test_linear_segment(self):
        # Below the 0.04045 threshold: x / 12.92 (Equation 1, first branch).
        assert srgb_gamma_expand(0.02) == pytest.approx(0.02 / 12.92)

    def test_power_segment(self):
        x = 0.5
        assert srgb_gamma_expand(x) == pytest.approx(((x + 0.055) / 1.055) ** 2.4)

    def test_continuous_at_threshold(self):
        lo = srgb_gamma_expand(0.04045 - 1e-9)
        hi = srgb_gamma_expand(0.04045 + 1e-9)
        assert abs(hi - lo) < 1e-5

    def test_monotone(self):
        xs = np.linspace(0, 1, 1001)
        assert (np.diff(srgb_gamma_expand(xs)) > 0).all()

    def test_compress_inverts_expand(self):
        xs = np.linspace(0, 1, 257)
        assert np.allclose(srgb_gamma_compress(srgb_gamma_expand(xs)), xs, atol=1e-9)


class TestXyz:
    def test_white_maps_to_reference_white(self):
        xyz = linear_rgb_to_xyz(np.array([1.0, 1.0, 1.0]))
        assert np.allclose(xyz, D65_WHITE, atol=1e-3)

    def test_black_maps_to_zero(self):
        assert np.allclose(linear_rgb_to_xyz(np.zeros(3)), 0.0)

    def test_matrix_roundtrip(self):
        rgb = np.random.default_rng(0).uniform(0, 1, (16, 3))
        assert np.allclose(xyz_to_linear_rgb(linear_rgb_to_xyz(rgb)), rgb, atol=1e-12)

    def test_green_dominates_luminance(self):
        # Y row of the sRGB matrix: green carries the largest weight.
        y_r = linear_rgb_to_xyz(np.array([1.0, 0, 0]))[1]
        y_g = linear_rgb_to_xyz(np.array([0, 1.0, 0]))[1]
        y_b = linear_rgb_to_xyz(np.array([0, 0, 1.0]))[1]
        assert y_g > y_r > y_b


class TestLab:
    def test_white_is_L100(self):
        lab = xyz_to_lab(D65_WHITE)
        assert lab[0] == pytest.approx(100.0, abs=1e-6)
        assert abs(lab[1]) < 1e-6
        assert abs(lab[2]) < 1e-6

    def test_black_is_L0(self):
        lab = xyz_to_lab(np.zeros(3))
        assert lab[0] == pytest.approx(0.0, abs=1e-9)

    def test_xyz_roundtrip(self):
        xyz = np.random.default_rng(1).uniform(0.01, 1.0, (32, 3))
        assert np.allclose(lab_to_xyz(xyz_to_lab(xyz)), xyz, atol=1e-10)

    def test_gray_axis_has_zero_chroma(self):
        grays = np.linspace(0.05, 1.0, 10)[:, None] * np.ones(3)
        lab = xyz_to_lab(linear_rgb_to_xyz(grays))
        assert np.abs(lab[:, 1:]).max() < 0.5

    def test_l_monotone_in_gray_level(self):
        grays = np.linspace(0, 1, 32)[:, None] * np.ones(3)[None, :]
        lab = xyz_to_lab(linear_rgb_to_xyz(grays))
        assert (np.diff(lab[:, 0]) > 0).all()


class TestFullPipeline:
    def test_uint8_and_float_agree(self, rgb_image):
        lab_u8 = rgb_to_lab(rgb_image)
        lab_f = rgb_to_lab(rgb_image.astype(np.float64) / 255.0)
        assert np.allclose(lab_u8, lab_f)

    def test_lab_ranges(self, rgb_image):
        lab = rgb_to_lab(rgb_image)
        assert lab[..., 0].min() >= -1e-9
        assert lab[..., 0].max() <= 100.0 + 1e-4
        assert np.abs(lab[..., 1:]).max() < 130.0

    def test_roundtrip_through_lab(self, rgb_image):
        rgb = rgb_image.astype(np.float64) / 255.0
        back = lab_to_rgb(rgb_to_lab(rgb))
        assert np.abs(back - rgb).max() < 1e-6

    def test_known_srgb_red(self):
        # sRGB pure red: L*a*b* ~ (53.24, 80.09, 67.20) — standard value.
        lab = rgb_to_lab(np.array([[[255, 0, 0]]], dtype=np.uint8))[0, 0]
        assert lab[0] == pytest.approx(53.24, abs=0.1)
        assert lab[1] == pytest.approx(80.09, abs=0.2)
        assert lab[2] == pytest.approx(67.20, abs=0.2)

    def test_known_srgb_blue(self):
        lab = rgb_to_lab(np.array([[[0, 0, 255]]], dtype=np.uint8))[0, 0]
        assert lab[0] == pytest.approx(32.30, abs=0.1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ImageError):
            rgb_to_lab(np.zeros((4, 4)))

    def test_rejects_out_of_range_float(self):
        with pytest.raises(ImageError):
            rgb_to_lab(np.full((2, 2, 3), 2.0))


class TestBandWalk:
    """``rgb_to_lab`` and every backend's ``lab_from_rgb`` walk row bands
    on up to ``n_threads`` threads and must equal the whole-frame chain
    bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 1920, BAND_PIXELS])
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.sampled_from(["1", "band-1", "band", "band+1", "2band+1"]),
        dtype=st.sampled_from(["uint8", "float"]),
        layout=st.sampled_from(["contiguous", "reversed", "strided"]),
    )
    def test_matches_whole_frame_chain(self, width, seed, height, dtype,
                                       layout):
        band = max(1, BAND_PIXELS // width)
        h = max(1, {
            "1": 1, "band-1": band - 1, "band": band, "band+1": band + 1,
            "2band+1": 2 * band + 1,
        }[height])
        strided = layout == "strided"
        shape = (h, 2 * width if strided else width, 3)
        rng = np.random.default_rng(seed)
        if dtype == "float":
            base = rng.uniform(0.0, 1.0, shape)
        else:
            base = rng.integers(0, 256, shape, dtype=np.uint8)
        # Reversed views run backwards over rows; strided views also
        # skip every other column.
        img = {
            "contiguous": base, "reversed": base[::-1],
            "strided": base[::-1, ::2],
        }[layout]
        # The W=1 frames pin why bands never flatten the image: numpy
        # multiplies an (H, 1, 3) frame one M=1 row at a time, which
        # rounds differently from the same pixels in a wider frame.
        want = xyz_to_lab(linear_rgb_to_xyz(srgb_gamma_expand(as_float_rgb(img))))
        # rgb_to_lab is the reference backend's lab_from_rgb.
        convert = {rgb_to_lab} | {
            get_backend(name).lab_from_rgb for name in available_backends()
        }
        for fn in convert:
            for nt in (1, 2, 3, 7):
                got = fn(img, n_threads=nt)
                assert got.shape == (h, width, 3)
                assert np.array_equal(
                    got.view(np.uint64), want.view(np.uint64)
                ), (fn.__module__, nt)

    def test_helper_exception_reaches_caller(self, monkeypatch):
        caller = threading.current_thread()
        real = reference.xyz_to_lab

        def fail_off_caller(xyz):
            if threading.current_thread() is not caller:
                raise RuntimeError("helper band failed")
            return real(xyz)

        monkeypatch.setattr(reference, "xyz_to_lab", fail_off_caller)
        before = threading.active_count()
        img = np.zeros((4 * BAND_PIXELS // 64, 64, 3), dtype=np.uint8)
        with pytest.raises(RuntimeError, match="helper band failed"):
            rgb_to_lab(img, n_threads=3)
        # Every helper was joined before the error surfaced.
        assert threading.active_count() == before

    def test_helper_that_cannot_start_leaves_its_slab_to_caller(
        self, monkeypatch
    ):
        """When a helper thread cannot start, the caller walks its slab:
        the split stays the requested one, as in the C pool, and every
        helper that did start is joined."""
        img = np.random.default_rng(4).integers(
            0, 256, (200, 1000, 3), dtype=np.uint8
        )
        want = rgb_to_lab(img, n_threads=1).view(np.uint64)
        convert = [rgb_to_lab]
        if "native-mt" in available_backends():
            convert.append(get_backend("native-mt").lab_from_rgb)
        real_start = threading.Thread.start
        for fn in convert:
            starts = []

            def start(thread):
                starts.append(thread)
                if len(starts) == 2:
                    raise RuntimeError("can't start new thread")
                real_start(thread)

            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", start)
                got = fn(img, n_threads=3)
            assert len(starts) == 2, fn.__module__
            assert not any(t.is_alive() for t in starts), fn.__module__
            assert np.array_equal(got.view(np.uint64), want), fn.__module__
