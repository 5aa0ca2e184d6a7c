"""Shared types and validation helpers used across the repro package.

The library passes images around as plain numpy arrays rather than a custom
image class; these helpers centralize the shape/dtype contracts so every
entry point validates inputs the same way.

Conventions
-----------
* RGB images are ``(H, W, 3)`` arrays, either ``uint8`` in [0, 255] or
  floating point in [0, 1].
* Lab images are ``(H, W, 3)`` float arrays in the CIELAB range
  (L in [0, 100], a/b roughly in [-128, 127]).
* Label maps are ``(H, W)`` integer arrays; labels are superpixel indices in
  ``[0, K)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ImageError

__all__ = [
    "Resolution",
    "HD_1080",
    "HD_720",
    "VGA",
    "as_float_rgb",
    "as_uint8_rgb",
    "validate_rgb_image",
    "validate_label_map",
    "check_index_range",
]


@dataclass(frozen=True)
class Resolution:
    """An image resolution, ``width`` x ``height`` in pixels.

    The paper evaluates three: 1920x1080 (HD), 1280x768, and 640x480 (VGA).
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ImageError(
                f"resolution must be positive, got {self.width}x{self.height}"
            )

    @property
    def pixels(self) -> int:
        """Total number of pixels N = width * height."""
        return self.width * self.height

    @property
    def shape(self) -> tuple:
        """Numpy array shape ``(height, width)``."""
        return (self.height, self.width)

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


#: The three resolutions evaluated in Table 4 of the paper.
HD_1080 = Resolution(1920, 1080)
HD_720 = Resolution(1280, 768)
VGA = Resolution(640, 480)


def validate_rgb_image(image: np.ndarray) -> np.ndarray:
    """Check that ``image`` is a valid RGB image and return it unchanged.

    Raises :class:`ImageError` if the array is not ``(H, W, 3)`` with a
    supported dtype, or if float values fall outside [0, 1].
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"expected (H, W, 3) RGB image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ImageError(f"image has empty spatial dimensions: {arr.shape}")
    if arr.dtype == np.uint8:
        return arr
    if np.issubdtype(arr.dtype, np.floating):
        if arr.size and not np.isfinite(arr).all():
            # NaN/Inf sails through min/max range checks (comparisons
            # with NaN are False) and detonates deep in the engine;
            # reject it here with a clear message instead.
            raise ImageError(
                "float RGB image contains non-finite values (NaN/Inf)"
            )
        # Tolerate tiny numeric spill from prior processing.
        if arr.size and (arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6):
            raise ImageError(
                "float RGB image must be in [0, 1]; got range "
                f"[{arr.min():.4f}, {arr.max():.4f}]"
            )
        return arr
    raise ImageError(f"unsupported RGB dtype {arr.dtype}; use uint8 or float")


def as_float_rgb(image: np.ndarray) -> np.ndarray:
    """Return ``image`` as float64 RGB in [0, 1], validating on the way."""
    arr = validate_rgb_image(image)
    if arr.dtype == np.uint8:
        return arr.astype(np.float64) / 255.0
    return np.clip(arr.astype(np.float64), 0.0, 1.0)


def as_uint8_rgb(image: np.ndarray) -> np.ndarray:
    """Return ``image`` as uint8 RGB in [0, 255], validating on the way."""
    arr = validate_rgb_image(image)
    if arr.dtype == np.uint8:
        return arr
    return np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)


def validate_label_map(labels: np.ndarray, n_labels: int | None = None) -> np.ndarray:
    """Check that ``labels`` is a valid (H, W) integer label map.

    If ``n_labels`` is given, also check every label is in ``[0, n_labels)``.
    Returns the array unchanged.
    """
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ImageError(f"expected (H, W) label map, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ImageError(f"label map must be integer typed, got {arr.dtype}")
    if arr.size == 0:
        raise ImageError("label map is empty")
    if arr.min() < 0:
        raise ImageError(f"label map contains negative label {arr.min()}")
    if n_labels is not None and arr.max() >= n_labels:
        raise ImageError(
            f"label map contains label {arr.max()} >= n_labels {n_labels}"
        )
    return arr


def check_index_range(values, upper: int, what: str) -> np.ndarray:
    """Check that every entry of integer array ``values`` is in ``[0, upper)``.

    Kernel entry points call this on labels, candidates and pixel indices
    before compiled code dereferences them, so every backend rejects an
    out-of-range index with the same typed error instead of reading or
    writing out of bounds. One pass: viewed as unsigned, a negative entry
    wraps above any bound, so a single ``max`` checks both ends. Raises
    :class:`ConfigurationError`; returns the array (native byte order).
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(
            f"{what} must be integer-typed, got dtype {arr.dtype}"
        )
    if not arr.dtype.isnative:
        arr = arr.astype(arr.dtype.newbyteorder("="))
    if arr.size == 0:
        return arr
    unsigned = arr
    if arr.dtype.kind == "i":
        unsigned = arr.view(f"u{arr.dtype.itemsize}")
    if int(unsigned.max()) >= upper:
        raise ConfigurationError(
            f"{what} must be in [0, {upper}), got [{arr.min()}, {arr.max()}]"
        )
    return arr
