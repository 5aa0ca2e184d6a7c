"""Look-up-table primitives for the hardware color-conversion unit.

Section 6.1 of the paper: "We adopt a 256-entry LUT for the power function
used in the 8-bit RGB to XYZ conversion (Equation 1), and an 8 component
piecewise linear LUT approximation of the power function used in the XYZ to
LAB conversion (Equation 4)."

Two structures implement that:

* :func:`build_gamma_lut` — a direct 256-entry table from 8-bit sRGB code to
  the linear-light value, quantized to an internal fixed-point precision.
  A direct table is exact for an 8-bit input, which is why the hardware can
  afford it.
* :class:`PiecewiseLinearLut` — a generic N-segment piecewise-linear
  approximation of a scalar function, with fixed-point slopes/intercepts.
  Equation 4's input (W/Wr) is not 8-bit — it is an intermediate with more
  precision — so a direct table would be large; 8 linear segments suffice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .constants import LAB_EPSILON, LAB_KAPPA
from .qformat import QFormat
from .reference import srgb_gamma_expand

__all__ = [
    "build_gamma_lut",
    "PiecewiseLinearLut",
    "build_cbrt_pwl",
    "DEFAULT_CBRT_BREAKPOINTS",
]


@functools.cache
def build_gamma_lut(frac_bits: int = 12) -> np.ndarray:
    """Build the 256-entry inverse-gamma LUT (memoized per process).

    Maps each 8-bit sRGB code (0..255) to the Equation 1 linear-light value
    quantized to an unsigned fixed-point code with ``frac_bits`` fraction
    bits. Returned as a read-only int64 array of length 256 with values in
    ``[0, 2**frac_bits]``; repeat calls with the same ``frac_bits`` share
    one table.
    """
    if not (1 <= frac_bits <= 30):
        raise ConfigurationError(f"gamma LUT frac_bits must be in [1,30], got {frac_bits}")
    codes = np.arange(256, dtype=np.float64) / 255.0
    linear = srgb_gamma_expand(codes)
    scale = float(1 << frac_bits)
    lut = np.rint(linear * scale).astype(np.int64)
    lut.flags.writeable = False  # shared across converters
    return lut


@dataclass(frozen=True)
class PiecewiseLinearLut:
    """An N-segment piecewise-linear approximation ``y ~= a_i * x + b_i``.

    Segment boundaries, slopes, and intercepts are stored as fixed-point
    codes, modeling the small ROM + multiplier the hardware uses. Evaluation
    is vectorized: a searchsorted picks the segment, then one multiply and
    one add produce the output — exactly the datapath the accelerator
    implements.

    Attributes
    ----------
    breakpoints:
        Segment boundaries as real values, length ``n_segments + 1``,
        strictly increasing. Inputs outside the range clamp to the first or
        last segment.
    slopes_raw, intercepts_raw:
        Per-segment coefficients as raw fixed-point codes in ``coeff_fmt``.
    in_fmt, out_fmt, coeff_fmt:
        Q-formats of the input codes, output codes, and coefficients.
    """

    breakpoints: np.ndarray
    slopes_raw: np.ndarray
    intercepts_raw: np.ndarray
    in_fmt: QFormat
    out_fmt: QFormat
    coeff_fmt: QFormat
    #: Raw-code breakpoints (in in_fmt), derived once for fast evaluation.
    breaks_raw: np.ndarray = field(repr=False, default=None)

    @property
    def n_segments(self) -> int:
        return len(self.slopes_raw)

    @classmethod
    def fit(
        cls,
        fn,
        breakpoints,
        in_fmt: QFormat,
        out_fmt: QFormat,
        coeff_fmt: QFormat = None,
    ) -> "PiecewiseLinearLut":
        """Fit a PWL LUT to scalar function ``fn`` over ``breakpoints``.

        Each segment interpolates ``fn`` between consecutive breakpoints
        (endpoint interpolation — what a designer tabulates by hand). The
        coefficients are then quantized to ``coeff_fmt`` (default: 16-bit
        with 12 fraction bits, a typical ROM word).
        """
        bp = np.asarray(breakpoints, dtype=np.float64)
        if bp.ndim != 1 or len(bp) < 2:
            raise ConfigurationError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if coeff_fmt is None:
            coeff_fmt = QFormat(16, 12, signed=True)
        x0, x1 = bp[:-1], bp[1:]
        y0 = np.asarray([fn(x) for x in x0], dtype=np.float64)
        y1 = np.asarray([fn(x) for x in x1], dtype=np.float64)
        slopes = (y1 - y0) / (x1 - x0)
        intercepts = y0 - slopes * x0
        return cls(
            breakpoints=bp,
            slopes_raw=coeff_fmt.to_raw(slopes),
            intercepts_raw=coeff_fmt.to_raw(intercepts),
            in_fmt=in_fmt,
            out_fmt=out_fmt,
            coeff_fmt=coeff_fmt,
            breaks_raw=in_fmt.to_raw(bp),
        )

    def eval_raw(self, x_raw) -> np.ndarray:
        """Evaluate on raw input codes, returning raw output codes.

        Models the hardware: segment select (comparators), one multiply,
        one add, one rounding shift, saturation to the output format.
        """
        x_raw = np.asarray(x_raw, dtype=np.int64)
        # Segment index: count of interior breakpoints <= x, clamped.
        seg = np.searchsorted(self.breaks_raw[1:-1], x_raw, side="right")
        seg = np.clip(seg, 0, self.n_segments - 1)
        a = self.slopes_raw[seg]
        b = self.intercepts_raw[seg]
        # y = a*x + b with a,b in coeff_fmt, x in in_fmt.
        # Product fraction bits: coeff.frac + in.frac; intercept aligned up.
        prod = a * x_raw
        prod_frac = self.coeff_fmt.frac_bits + self.in_fmt.frac_bits
        b_aligned = b << (prod_frac - self.coeff_fmt.frac_bits)
        y_wide = prod + b_aligned
        # Round to out_fmt.
        shift = prod_frac - self.out_fmt.frac_bits
        if shift > 0:
            half = np.int64(1) << (shift - 1)
            y = np.where(y_wide >= 0, (y_wide + half) >> shift, -((-y_wide + half) >> shift))
        else:
            y = y_wide << (-shift)
        return self.out_fmt.saturate_raw(y)

    def eval_float(self, x) -> np.ndarray:
        """Evaluate on real inputs, returning real outputs (for testing)."""
        x_raw = self.in_fmt.to_raw(x)
        return self.out_fmt.from_raw(self.eval_raw(x_raw))

    def max_abs_error(self, fn, n_samples: int = 4096) -> float:
        """Worst-case |LUT - fn| over the breakpoint range (for validation)."""
        xs = np.linspace(self.breakpoints[0], self.breakpoints[-1], n_samples)
        approx = self.eval_float(xs)
        exact = np.asarray([fn(x) for x in xs])
        return float(np.max(np.abs(approx - exact)))


#: Default 8-segment breakpoints for Equation 4's f() over W/Wr in [0, 1.1].
#: Denser near zero where the cube root is steep; the first knot sits at the
#: CIE epsilon so the linear branch is represented exactly by one segment.
DEFAULT_CBRT_BREAKPOINTS = (
    0.0,
    LAB_EPSILON,  # end of the exact linear branch
    0.030,
    0.074,
    0.155,
    0.300,
    0.520,
    0.800,
    1.100,
)


def _f_scalar(t: float) -> float:
    """Equation 4's f() on a scalar (shared with the reference path)."""
    if t > LAB_EPSILON:
        return float(t) ** (1.0 / 3.0)
    return (LAB_KAPPA * float(t) + 16.0) / 116.0


def build_cbrt_pwl(
    in_fmt: QFormat = None,
    out_fmt: QFormat = None,
    breakpoints=DEFAULT_CBRT_BREAKPOINTS,
) -> PiecewiseLinearLut:
    """Build the paper's 8-segment PWL LUT for Equation 4's f().

    Defaults model the accelerator's internal precision: 16-bit input codes
    with 12 fraction bits (covering W/Wr up to ~8, far beyond the needed
    1.1) and 16-bit output codes with 14 fraction bits (f() is in [0.1379,
    1.04]). Memoized per process: the fit is a pure function of the
    formats and breakpoints, and the LUT is immutable, so converters
    sharing a configuration share one instance.
    """
    if in_fmt is None:
        in_fmt = QFormat(16, 12, signed=False)
    if out_fmt is None:
        out_fmt = QFormat(16, 14, signed=False)
    return _fit_cbrt_pwl(in_fmt, out_fmt, tuple(float(b) for b in breakpoints))


@functools.cache
def _fit_cbrt_pwl(in_fmt, out_fmt, breakpoints) -> PiecewiseLinearLut:
    """:func:`build_cbrt_pwl`'s memoized fit (``breakpoints`` a tuple of
    floats, so equal configurations share one cache entry)."""
    pwl = PiecewiseLinearLut.fit(_f_scalar, breakpoints, in_fmt, out_fmt)
    for arr in (
        pwl.breakpoints, pwl.slopes_raw, pwl.intercepts_raw, pwl.breaks_raw
    ):
        arr.flags.writeable = False  # shared across converters
    return pwl
