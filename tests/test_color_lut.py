"""Unit tests for the LUT primitives (gamma table, PWL cube root)."""

import numpy as np
import pytest

from repro.color import build_cbrt_pwl, build_gamma_lut
from repro.color.constants import LAB_EPSILON, LAB_KAPPA
from repro.color.lut import DEFAULT_CBRT_BREAKPOINTS, PiecewiseLinearLut
from repro.color.qformat import QFormat
from repro.color.reference import srgb_gamma_expand
from repro.errors import ConfigurationError


def _f_ref(t):
    return t ** (1.0 / 3.0) if t > LAB_EPSILON else (LAB_KAPPA * t + 16.0) / 116.0


class TestGammaLut:
    def test_length_256(self):
        assert len(build_gamma_lut()) == 256

    def test_endpoints(self):
        lut = build_gamma_lut(12)
        assert lut[0] == 0
        assert lut[255] == 1 << 12  # exactly 1.0

    def test_matches_reference_within_half_lsb(self):
        frac = 12
        lut = build_gamma_lut(frac)
        codes = np.arange(256) / 255.0
        exact = srgb_gamma_expand(codes) * (1 << frac)
        assert np.abs(lut - exact).max() <= 0.5 + 1e-9

    def test_monotone(self):
        assert (np.diff(build_gamma_lut()) >= 0).all()

    def test_rejects_bad_frac(self):
        with pytest.raises(ConfigurationError):
            build_gamma_lut(0)
        with pytest.raises(ConfigurationError):
            build_gamma_lut(40)


class TestPiecewiseLinearLut:
    def test_default_has_8_segments(self):
        assert build_cbrt_pwl().n_segments == 8
        assert len(DEFAULT_CBRT_BREAKPOINTS) == 9

    def test_linear_branch_is_near_exact(self):
        # The first segment covers Equation 4's linear branch exactly (a
        # line fits a line); only coefficient quantization remains.
        lut = build_cbrt_pwl()
        ts = np.linspace(0.0, LAB_EPSILON * 0.99, 64)
        exact = np.array([_f_ref(t) for t in ts])
        approx = lut.eval_float(ts)
        assert np.abs(approx - exact).max() < 2e-3

    def test_max_error_small(self):
        lut = build_cbrt_pwl()
        assert lut.max_abs_error(_f_ref) < 0.015

    def test_monotone_outputs(self):
        lut = build_cbrt_pwl()
        ts = np.linspace(0.0, 1.1, 512)
        out = lut.eval_float(ts)
        assert (np.diff(out) >= -1e-9).all()

    def test_clamps_above_range(self):
        lut = build_cbrt_pwl()
        # Inputs past the last breakpoint use the last segment.
        v_edge = lut.eval_float(1.1)
        v_past = lut.eval_float(1.5)
        assert v_past >= v_edge

    def test_fit_rejects_nonincreasing_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearLut.fit(
                lambda x: x, [0.0, 1.0, 1.0], QFormat(16, 12, signed=False),
                QFormat(16, 12, signed=False),
            )

    def test_fit_rejects_too_few_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearLut.fit(
                lambda x: x, [0.0], QFormat(16, 12, signed=False),
                QFormat(16, 12, signed=False),
            )

    def test_identity_function_fit(self):
        in_fmt = QFormat(16, 12, signed=False)
        out_fmt = QFormat(16, 12, signed=False)
        lut = PiecewiseLinearLut.fit(lambda x: x, [0.0, 0.5, 1.0], in_fmt, out_fmt)
        ts = np.linspace(0, 1, 33)
        assert np.abs(lut.eval_float(ts) - ts).max() < 1e-3

    def test_segment_count_vs_error_tradeoff(self):
        """More segments must not increase the max error (design check)."""
        in_fmt = QFormat(16, 12, signed=False)
        out_fmt = QFormat(16, 14, signed=False)
        coarse = PiecewiseLinearLut.fit(
            _f_ref, np.linspace(LAB_EPSILON, 1.1, 3), in_fmt, out_fmt
        )
        fine = PiecewiseLinearLut.fit(
            _f_ref, np.linspace(LAB_EPSILON, 1.1, 17), in_fmt, out_fmt
        )
        err = lambda lut: max(
            abs(float(lut.eval_float(t)) - _f_ref(t))
            for t in np.linspace(LAB_EPSILON, 1.1, 200)
        )
        assert err(fine) <= err(coarse)
