"""Integer (hardware) RGB -> CIELAB conversion pipeline.

This module models the accelerator's Color Conversion Unit bit-by-bit:

1. a 256-entry LUT replaces the Equation 1 power function (exact for 8-bit
   inputs up to the internal quantization),
2. an integer 3x3 matrix multiply computes W/Wr directly (the 1/white
   normalization is folded into the matrix coefficients, as hardware would),
3. an 8-segment piecewise-linear LUT replaces Equation 4's cube root,
4. integer scale-and-offset encodes L, a, b into ``bits``-wide channel codes
   destined for the three channel scratchpad memories.

The output codes are what the Cluster Update Unit's distance calculators
consume; :class:`LabEncoding` defines their meaning so quality metrics can
decode them back to real Lab values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ImageError
from ..fixedpoint import QFormat
from ..types import as_uint8_rgb
from .constants import D65_WHITE, SRGB_TO_XYZ
from .lut import PiecewiseLinearLut, build_cbrt_pwl, build_gamma_lut

__all__ = [
    "LabEncoding",
    "HwColorConverter",
    "convert_codes_reference",
    "lab_from_codes_reference",
]


@dataclass(frozen=True)
class LabEncoding:
    """How L, a, b are packed into ``bits``-wide unsigned channel codes.

    * a and b in [-128, 128) map offset-binary: for ``bits == 8`` this is
      exactly ``code = value + 128``, the natural hardware choice; narrower
      widths scale down proportionally.
    * L in [0, 100]: with ``uniform=True`` (default) L uses the *same*
      codes-per-unit scale as a/b, so code-domain distances weight the
      three channels like the reference Equation 5 (at 8 bits, codes are
      literally integer Lab values). With ``uniform=False`` L stretches
      over the full code range for maximum luma resolution, at the cost of
      an implicit ~6.5x L weight in code-domain distances.
    """

    bits: int = 8
    uniform: bool = True

    def __post_init__(self) -> None:
        if not (2 <= self.bits <= 16):
            raise ConfigurationError(f"Lab encoding bits must be in [2,16], got {self.bits}")

    @property
    def code_max(self) -> int:
        return (1 << self.bits) - 1

    @property
    def l_scale(self) -> float:
        """Codes per unit L."""
        if self.uniform:
            return self.ab_scale
        return self.code_max / 100.0

    @property
    def ab_scale(self) -> float:
        """Codes per unit a/b."""
        return (1 << self.bits) / 256.0

    @property
    def ab_offset(self) -> int:
        return 1 << (self.bits - 1)

    def encode(self, lab: np.ndarray) -> np.ndarray:
        """Real Lab (..., 3) -> integer channel codes (..., 3), clipped."""
        lab = np.asarray(lab, dtype=np.float64)
        if lab.shape[-1] != 3:
            raise ImageError(f"expected (..., 3) Lab array, got {lab.shape}")
        codes = np.empty(lab.shape, dtype=np.int64)
        codes[..., 0] = np.rint(lab[..., 0] * self.l_scale)
        codes[..., 1] = np.rint(lab[..., 1] * self.ab_scale) + self.ab_offset
        codes[..., 2] = np.rint(lab[..., 2] * self.ab_scale) + self.ab_offset
        return np.clip(codes, 0, self.code_max)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Integer channel codes (..., 3) -> real Lab (..., 3)."""
        codes = np.asarray(codes, dtype=np.float64)
        lab = np.empty(codes.shape, dtype=np.float64)
        lab[..., 0] = codes[..., 0] / self.l_scale
        lab[..., 1] = (codes[..., 1] - self.ab_offset) / self.ab_scale
        lab[..., 2] = (codes[..., 2] - self.ab_offset) / self.ab_scale
        return lab


class HwColorConverter:
    """The LUT-based integer color conversion pipeline.

    Parameters
    ----------
    encoding:
        Output :class:`LabEncoding` (defaults to the paper's 8-bit codes).
    gamma_frac_bits:
        Fraction bits of the 256-entry gamma LUT entries (internal
        precision of the linear-light values). 12 by default.
    pwl:
        The Equation 4 piecewise-linear LUT; defaults to the 8-segment
        :func:`~repro.color.lut.build_cbrt_pwl`.
    """

    def __init__(
        self,
        encoding: LabEncoding = None,
        gamma_frac_bits: int = 12,
        pwl: PiecewiseLinearLut = None,
    ):
        self.encoding = encoding if encoding is not None else LabEncoding(8)
        self.gamma_frac_bits = gamma_frac_bits
        self.gamma_lut = build_gamma_lut(gamma_frac_bits)
        self.pwl = pwl if pwl is not None else build_cbrt_pwl()
        # Fold the white-point normalization into the matrix: rows of M
        # divided by [Xr, Yr, Zr] give W/Wr directly from linear RGB.
        folded = SRGB_TO_XYZ / D65_WHITE[:, None]
        self._matrix_fmt = QFormat(16, 14, signed=True)
        self.matrix_raw = self._matrix_fmt.to_raw(folded)

    # ------------------------------------------------------------------
    def convert_codes(self, rgb: np.ndarray, backend: str | None = None) -> np.ndarray:
        """uint8 RGB image -> integer Lab channel codes (H, W, 3), int64.

        Every step is integer arithmetic mirroring the fixed-point
        datapath. ``backend`` selects the :mod:`repro.kernels`
        implementation (``None``/"auto" picks the best available); all
        backends are bit-identical to :func:`convert_codes_reference`.
        The codes come from :meth:`convert_fused`, the one conversion
        kernel.
        """
        return self.convert_fused(rgb, backend=backend)[1]

    def convert_fused(
        self, rgb: np.ndarray, backend: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """uint8 RGB image -> ``(lab, codes)`` in one backend traversal.

        ``decode(codes)`` plus the codes themselves; native backends
        produce both outputs in a single pass over the pixels. Every
        backend is bit-identical to :func:`lab_from_codes_reference`.
        """
        from ..kernels import get_backend  # local import: kernels ↔ color

        rgb = as_uint8_rgb(rgb)
        return get_backend(backend).lab_from_codes(self, rgb)

    def convert(self, rgb: np.ndarray) -> np.ndarray:
        """uint8 RGB image -> real Lab values *as the hardware sees them*.

        Convenience wrapper: the decoded half of :meth:`convert_fused`.
        The result differs from the float64 reference by the LUT and
        quantization error — exactly the error the bit-width exploration of
        Section 6.1 studies.
        """
        return self.convert_fused(rgb)[0]


def convert_codes_reference(converter: HwColorConverter, rgb: np.ndarray) -> np.ndarray:
    """The scalar-semantics reference pipeline for :meth:`convert_codes`.

    uint8 RGB image -> integer Lab channel codes (H, W, 3), int64. Every
    step is integer arithmetic on numpy int64 arrays; the vectorized and
    native kernel backends must reproduce this bit for bit.
    """
    rgb = as_uint8_rgb(rgb)
    # Step 1: gamma LUT. linear codes have gamma_frac_bits fraction.
    linear = converter.gamma_lut[rgb.astype(np.intp)]  # (H, W, 3) int64
    # Step 2: integer matrix multiply -> W/Wr codes.
    # product fraction = gamma_frac + matrix_frac.
    t_wide = np.einsum("hwc,kc->hwk", linear, converter.matrix_raw, dtype=np.int64)
    prod_frac = converter.gamma_frac_bits + converter._matrix_fmt.frac_bits
    # Round to the PWL input format.
    shift = prod_frac - converter.pwl.in_fmt.frac_bits
    half = np.int64(1) << (shift - 1)
    t_raw = (t_wide + half) >> shift
    t_raw = converter.pwl.in_fmt.saturate_raw(np.maximum(t_raw, 0))
    # Step 3: PWL cube root.
    f_raw = converter.pwl.eval_raw(t_raw)  # frac = out_fmt.frac_bits
    fx = f_raw[..., 0]
    fy = f_raw[..., 1]
    fz = f_raw[..., 2]
    f_frac = converter.pwl.out_fmt.frac_bits
    one = np.int64(1) << f_frac
    # Step 4: Equation 3 with integer constants, then encode.
    l_raw = 116 * fy - 16 * one  # frac = f_frac, range [0, 100]
    a_raw = 500 * (fx - fy)
    b_raw = 200 * (fy - fz)
    enc = converter.encoding
    codes = np.empty(rgb.shape, dtype=np.int64)
    codes[..., 0] = _scale_round(l_raw, enc.l_scale, f_frac)
    codes[..., 1] = _scale_round(a_raw, enc.ab_scale, f_frac) + enc.ab_offset
    codes[..., 2] = _scale_round(b_raw, enc.ab_scale, f_frac) + enc.ab_offset
    return np.clip(codes, 0, enc.code_max)


def lab_from_codes_reference(
    converter: HwColorConverter, rgb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical fused conversion: ``(decoded lab, codes)``.

    The reference simply composes :func:`convert_codes_reference` with
    :meth:`LabEncoding.decode`; optimized backends fuse the decode into
    the conversion traversal and must match both arrays bit for bit.
    """
    codes = convert_codes_reference(converter, rgb)
    return converter.encoding.decode(codes), codes


def _scale_round(raw: np.ndarray, scale: float, frac_bits: int) -> np.ndarray:
    """Multiply raw fixed-point codes by a real scale and round to integer.

    Hardware implements this as one constant multiplier and a rounding
    shift; we model it with a quantized scale constant (14 fraction bits).
    """
    scale_raw = np.int64(round(scale * (1 << 14)))
    wide = raw * scale_raw
    shift = frac_bits + 14
    half = np.int64(1) << (shift - 1)
    return np.where(wide >= 0, (wide + half) >> shift, -((-wide + half) >> shift))
