"""Reference (float64) sRGB <-> CIELAB conversion, Equations 1-4 of the paper.

This is the "golden" software path: SLIC and S-SLIC run on top of it in
float mode, and the LUT-based hardware conversion in
:mod:`repro.color.hw_convert` is validated against it.

The forward chain is:

1. inverse sRGB gamma (Equation 1)::

       x' = x / 12.92                      if x <= 0.04045
       x' = ((x + 0.055) / 1.055) ** 2.4   otherwise

   (The paper's text prints the offset as 0.05; 0.055 is the sRGB standard
   and what every SLIC implementation, including the authors' baseline,
   uses. We follow the standard.)

2. linear RGB -> XYZ via the 3x3 matrix M (Equation 2).

3. XYZ -> LAB via the cube-root / linear-branch function f (Equations 3-4).
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from ..types import as_float_rgb, validate_rgb_image
from .constants import (
    D65_WHITE,
    GAMMA_THRESHOLD,
    LAB_EPSILON,
    LAB_KAPPA,
    SRGB_TO_XYZ,
    XYZ_TO_SRGB,
)

__all__ = [
    "srgb_gamma_expand",
    "srgb_gamma_compress",
    "linear_rgb_to_xyz",
    "xyz_to_linear_rgb",
    "xyz_to_lab",
    "lab_to_xyz",
    "rgb_to_lab",
    "lab_to_rgb",
    "band_walk",
]


def srgb_gamma_expand(rgb: np.ndarray) -> np.ndarray:
    """Equation 1: sRGB [0,1] -> linear-light RGB [0,1].

    The power branch is evaluated full-size and the (rare) linear branch
    patched in by mask — elementwise identical to the two-branch select,
    without materializing both branches for every pixel.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim == 0:
        return np.where(
            rgb <= GAMMA_THRESHOLD, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4
        )
    linear = ((rgb + 0.055) / 1.055) ** 2.4
    low = rgb <= GAMMA_THRESHOLD
    if low.any():
        linear[low] = rgb[low] / 12.92
    return linear


def srgb_gamma_compress(linear: np.ndarray) -> np.ndarray:
    """Inverse of Equation 1: linear-light RGB -> sRGB [0,1]."""
    linear = np.clip(np.asarray(linear, dtype=np.float64), 0.0, 1.0)
    if linear.ndim == 0:
        return np.where(
            linear <= GAMMA_THRESHOLD / 12.92,
            linear * 12.92,
            1.055 * linear ** (1.0 / 2.4) - 0.055,
        )
    out = 1.055 * linear ** (1.0 / 2.4) - 0.055
    low = linear <= GAMMA_THRESHOLD / 12.92
    if low.any():
        out[low] = linear[low] * 12.92
    return out


def linear_rgb_to_xyz(linear: np.ndarray) -> np.ndarray:
    """Equation 2: linear RGB -> XYZ. Works on any (..., 3) array."""
    linear = np.asarray(linear, dtype=np.float64)
    return linear @ SRGB_TO_XYZ.T


def xyz_to_linear_rgb(xyz: np.ndarray) -> np.ndarray:
    """Inverse of Equation 2."""
    xyz = np.asarray(xyz, dtype=np.float64)
    return xyz @ XYZ_TO_SRGB.T


def _f(w_over_wr: np.ndarray) -> np.ndarray:
    """Equation 4's f(): cube root with a linear branch near zero."""
    t = np.asarray(w_over_wr, dtype=np.float64)
    if t.ndim == 0:
        return np.where(
            t > LAB_EPSILON, np.cbrt(t), (LAB_KAPPA * t + 16.0) / 116.0
        )
    out = np.cbrt(t)
    small = ~(t > LAB_EPSILON)
    if small.any():
        ts = t[small]
        out[small] = (LAB_KAPPA * ts + 16.0) / 116.0
    return out


def _f_inv(f: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_f`."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 0:
        cubed = f ** 3
        return np.where(
            cubed > LAB_EPSILON, cubed, (116.0 * f - 16.0) / LAB_KAPPA
        )
    out = f ** 3
    small = ~(out > LAB_EPSILON)
    if small.any():
        out[small] = (116.0 * f[small] - 16.0) / LAB_KAPPA
    return out


def xyz_to_lab(xyz: np.ndarray, white: np.ndarray = D65_WHITE) -> np.ndarray:
    """Equations 3-4: XYZ -> CIELAB relative to ``white``."""
    xyz = np.asarray(xyz, dtype=np.float64)
    fxyz = _f(xyz / white)
    fx, fy, fz = fxyz[..., 0], fxyz[..., 1], fxyz[..., 2]
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * fy - 16.0
    lab[..., 1] = 500.0 * (fx - fy)
    lab[..., 2] = 200.0 * (fy - fz)
    return lab


def lab_to_xyz(lab: np.ndarray, white: np.ndarray = D65_WHITE) -> np.ndarray:
    """Inverse of :func:`xyz_to_lab`."""
    lab = np.asarray(lab, dtype=np.float64)
    fy = (lab[..., 0] + 16.0) / 116.0
    fxyz = np.empty_like(lab)
    fxyz[..., 0] = fy + lab[..., 1] / 500.0
    fxyz[..., 1] = fy
    fxyz[..., 2] = fy - lab[..., 2] / 200.0
    return _f_inv(fxyz) * white


#: Pixels per band of :func:`rgb_to_lab`'s walk: 17 rows at 1080p, 102
#: at QVGA. A band's float64 temporaries (24 bytes per pixel each) then
#: fit in a per-core L2 instead of streaming whole-frame planes through
#: memory between numpy passes.
BAND_PIXELS = 32768


@functools.cache
def _gamma_lut_u8() -> np.ndarray:
    """256-entry table of ``srgb_gamma_expand(v / 255.0)`` for uint8 v.

    Gamma expansion is elementwise, so gathering from this table is
    bit-identical to ``srgb_gamma_expand(as_float_rgb(rgb))`` on uint8
    input — each entry is the literal float64 the full-image expression
    would compute for that code value. Built once per process and
    read-only.
    """
    lut = srgb_gamma_expand(np.arange(256, dtype=np.float64) / 255.0)
    lut.flags.writeable = False
    return lut


def rgb_to_lab(rgb: np.ndarray, n_threads: int = 1) -> np.ndarray:
    """Full reference pipeline: sRGB image (uint8 or float [0,1]) -> CIELAB.

    This is the color-conversion step at the top of both SLIC flowcharts
    (Figure 1). Returns float64 with L in [0, 100].

    uint8 input takes a gamma-LUT gather instead of evaluating the power
    function per pixel; the downstream matrix multiply and Lab transform
    run on the same float64 values either way, so the result is
    bit-identical to the float path fed ``as_float_rgb(rgb)``.

    The frame is converted by :func:`band_walk` in row bands of
    :data:`BAND_PIXELS` pixels on up to ``n_threads`` threads, each band
    running the numpy chain below. The result equals the whole-frame
    chain ``xyz_to_lab(linear_rgb_to_xyz(...))`` bit for bit at any
    thread count: every step is elementwise except the matrix multiply,
    which numpy issues one image row at a time, and a band never splits
    a row.
    """
    return band_walk(rgb, _chain_band, n_threads)


def _chain_band(band: np.ndarray, out: np.ndarray) -> None:
    """:func:`rgb_to_lab`'s band body: the numpy chain into ``out``."""
    if band.dtype == np.uint8:
        linear = _gamma_lut_u8()[band]
    else:
        linear = srgb_gamma_expand(as_float_rgb(band))
    out[...] = xyz_to_lab(linear_rgb_to_xyz(linear))


def band_walk(rgb: np.ndarray, body, n_threads: int = 1) -> np.ndarray:
    """Convert ``rgb`` to Lab one row band at a time with ``body``.

    ``body(band, out)`` converts ``band``, a view of whole image rows,
    into ``out``, the matching rows of one preallocated C-contiguous
    ``(H, W, 3)`` float64 result. Bands hold :data:`BAND_PIXELS` pixels
    (at least one row), so each band's float64 temporaries stay
    cache-resident. The bands are split into ``min(n_threads, n_bands)``
    contiguous slabs; the caller walks the first and a helper thread
    started for this call walks each other one. The numpy steps (and
    ctypes calls) release the GIL, so the slabs run in parallel. The
    request fixes the split, as in the C pool: a helper that cannot
    start leaves its slab to the caller, which walks it after its own.
    An exception in a helper is re-raised here after every started
    thread has finished.
    """
    rgb_arr = validate_rgb_image(rgb)
    h, w = rgb_arr.shape[:2]
    lab = np.empty((h, w, 3), dtype=np.float64)
    band_rows = max(1, BAND_PIXELS // w)
    n_bands = -(-h // band_rows)
    n_slabs = max(1, min(int(n_threads), n_bands))
    cuts = [
        min(h, band_rows * (i * n_bands // n_slabs))
        for i in range(n_slabs + 1)
    ]

    def walk(start, stop):
        for r0 in range(start, stop, band_rows):
            rows = slice(r0, r0 + band_rows)
            body(rgb_arr[rows], lab[rows])

    errors = []

    def helper(start, stop):
        try:
            walk(start, stop)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    mine = [cuts[0:2]]
    helpers = []
    try:
        for i in range(1, n_slabs):
            t = threading.Thread(
                target=helper, args=cuts[i:i + 2], daemon=True
            )
            try:
                t.start()
            except RuntimeError:  # no thread to spare: walk it here
                mine.append(cuts[i:i + 2])
            else:
                helpers.append(t)
        for start, stop in mine:
            walk(start, stop)
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return lab


def lab_to_rgb(lab: np.ndarray) -> np.ndarray:
    """Inverse pipeline: CIELAB -> sRGB float image clipped to [0, 1]."""
    linear = xyz_to_linear_rgb(lab_to_xyz(np.asarray(lab, dtype=np.float64)))
    return np.clip(srgb_gamma_compress(np.clip(linear, 0.0, 1.0)), 0.0, 1.0)
