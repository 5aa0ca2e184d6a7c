"""Color-space substrate: reference CIELAB and the LUT hardware pipeline.

Two conversion paths are provided:

* :func:`rgb_to_lab` / :func:`lab_to_rgb` — the float64 reference
  implementation of the paper's Equations 1-4 (what the software SLIC
  baseline uses).
* :class:`HwColorConverter` — the integer, LUT-based pipeline of the
  accelerator's Color Conversion Unit (256-entry gamma LUT + 8-segment
  piecewise-linear cube root), producing ``bits``-wide Lab channel codes.

:class:`QFormat` names the unit's fixed-point formats: the cube-root
PWL's input, output and coefficients, and the folded 3x3 matrix.
"""

from .constants import D65_WHITE, SRGB_TO_XYZ, XYZ_TO_SRGB
from .reference import (
    lab_to_rgb,
    lab_to_xyz,
    linear_rgb_to_xyz,
    rgb_to_lab,
    srgb_gamma_compress,
    srgb_gamma_expand,
    xyz_to_lab,
    xyz_to_linear_rgb,
)
from .lut import (
    DEFAULT_CBRT_BREAKPOINTS,
    PiecewiseLinearLut,
    build_cbrt_pwl,
    build_gamma_lut,
)
from .hw_convert import HwColorConverter, LabEncoding
from .qformat import QFormat

__all__ = [
    "D65_WHITE",
    "SRGB_TO_XYZ",
    "XYZ_TO_SRGB",
    "rgb_to_lab",
    "lab_to_rgb",
    "xyz_to_lab",
    "lab_to_xyz",
    "linear_rgb_to_xyz",
    "xyz_to_linear_rgb",
    "srgb_gamma_expand",
    "srgb_gamma_compress",
    "PiecewiseLinearLut",
    "build_gamma_lut",
    "build_cbrt_pwl",
    "DEFAULT_CBRT_BREAKPOINTS",
    "HwColorConverter",
    "LabEncoding",
    "QFormat",
]
