"""Unit and property tests for repro.color.qformat."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.color.qformat import QFormat
from repro.errors import FixedPointError


class TestQFormatConstruction:
    def test_basic_fields(self):
        q = QFormat(8, 4)
        assert q.total_bits == 8
        assert q.frac_bits == 4
        assert q.signed

    def test_int_bits_signed(self):
        assert QFormat(8, 4, signed=True).int_bits == 3

    def test_int_bits_unsigned(self):
        assert QFormat(8, 4, signed=False).int_bits == 4

    def test_rejects_tiny_width(self):
        with pytest.raises(FixedPointError):
            QFormat(1, 0)

    def test_rejects_huge_width(self):
        with pytest.raises(FixedPointError):
            QFormat(65, 0)

    def test_rejects_negative_frac(self):
        with pytest.raises(FixedPointError):
            QFormat(8, -1)

    def test_str_representation(self):
        assert str(QFormat(8, 4)) == "Qs3.4"
        assert str(QFormat(8, 4, signed=False)) == "Qu4.4"


class TestRanges:
    def test_signed_range(self):
        q = QFormat(8, 0)
        assert q.raw_min == -128
        assert q.raw_max == 127
        assert q.min_value == -128.0
        assert q.max_value == 127.0

    def test_unsigned_range(self):
        q = QFormat(8, 0, signed=False)
        assert q.raw_min == 0
        assert q.raw_max == 255

    def test_scale(self):
        assert QFormat(8, 4).scale == pytest.approx(1 / 16)

    def test_fractional_range(self):
        q = QFormat(8, 7, signed=True)  # ~[-1, 1)
        assert q.max_value == pytest.approx(127 / 128)
        assert q.min_value == pytest.approx(-1.0)


class TestQuantization:
    def test_exact_values_roundtrip(self):
        q = QFormat(8, 4)
        assert q.quantize(1.25) == 1.25
        assert q.quantize(-2.5) == -2.5

    def test_nearest_rounding(self):
        q = QFormat(8, 0)
        assert q.quantize(1.4) == 1.0
        assert q.quantize(1.6) == 2.0

    def test_half_away_from_zero(self):
        q = QFormat(8, 0)
        assert q.quantize(0.5) == 1.0
        assert q.quantize(-0.5) == -1.0

    def test_saturation_positive(self):
        q = QFormat(8, 0)
        assert q.quantize(1000.0) == 127.0

    def test_saturation_negative(self):
        q = QFormat(8, 0)
        assert q.quantize(-1000.0) == -128.0

    def test_unsigned_clamps_negative(self):
        q = QFormat(8, 0, signed=False)
        assert q.quantize(-5.0) == 0.0

    def test_nan_maps_to_zero(self):
        q = QFormat(8, 4)
        assert q.quantize(float("nan")) == 0.0

    def test_array_quantize_shape(self):
        q = QFormat(8, 4)
        arr = np.linspace(-10, 10, 37)
        out = q.quantize(arr)
        assert out.shape == arr.shape

    def test_quantization_error_bounded(self):
        q = QFormat(10, 5)
        xs = np.linspace(q.min_value, q.max_value, 1001)
        err = np.abs(q.quantize(xs) - xs)
        assert err.max() <= q.scale / 2 + 1e-12

    def test_to_raw_from_raw_identity(self):
        q = QFormat(12, 6)
        raw = np.arange(q.raw_min, q.raw_max + 1, 17)
        assert np.array_equal(q.to_raw(q.from_raw(raw)), raw)


# Properties a hardware quantizer must satisfy for every input, not just
# the examples above.

formats = st.builds(
    QFormat,
    total_bits=st.integers(min_value=4, max_value=16),
    frac_bits=st.integers(min_value=0, max_value=12),
    signed=st.booleans(),
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(fmt=formats, x=finite_floats)
def test_quantize_idempotent(fmt, x):
    """Quantizing twice equals quantizing once (projection property)."""
    once = fmt.quantize(x)
    assert fmt.quantize(once) == once


@given(fmt=formats, x=finite_floats)
def test_quantize_within_range(fmt, x):
    q = fmt.quantize(x)
    assert fmt.min_value - 1e-12 <= q <= fmt.max_value + 1e-12


@given(fmt=formats, x=finite_floats)
def test_quantize_error_bound_inside_range(fmt, x):
    """Inside the representable range, error is at most half an LSB."""
    if fmt.min_value <= x <= fmt.max_value:
        assert abs(fmt.quantize(x) - x) <= fmt.scale / 2 + 1e-12


@given(fmt=formats, x=finite_floats, y=finite_floats)
def test_quantize_monotone(fmt, x, y):
    if x <= y:
        assert fmt.quantize(x) <= fmt.quantize(y)
