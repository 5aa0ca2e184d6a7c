"""Boundary-map utilities shared by the segmentation metrics.

A *boundary pixel* is one whose label differs from its right or lower
neighbor (inner-boundary convention on the 4-neighborhood, symmetric by
construction: both sides of an edge are marked).
"""

from __future__ import annotations

import numpy as np

from ..types import validate_label_map

__all__ = [
    "boundary_map",
    "dilate_mask",
    "chamfer_distance",
    "perimeter_counts",
    "contingency_table",
]


def boundary_map(labels: np.ndarray) -> np.ndarray:
    """Return a bool (H, W) map marking label-transition pixels.

    Both pixels across each 4-neighborhood label change are marked, so the
    map is independent of which side "owns" the edge.
    """
    labels = validate_label_map(labels)
    edges = np.zeros(labels.shape, dtype=bool)
    horiz = labels[:, 1:] != labels[:, :-1]
    vert = labels[1:, :] != labels[:-1, :]
    edges[:, 1:] |= horiz
    edges[:, :-1] |= horiz
    edges[1:, :] |= vert
    edges[:-1, :] |= vert
    return edges


def dilate_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilate a bool mask by ``radius`` in Chebyshev (8-neighbor) distance.

    Implemented as ``radius`` rounds of 3x3 max-filtering with numpy shifts
    — no scipy dependency. ``radius == 0`` returns a copy.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    out = np.asarray(mask, dtype=bool).copy()
    for _ in range(radius):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        grown[1:, 1:] |= out[:-1, :-1]
        grown[1:, :-1] |= out[:-1, 1:]
        grown[:-1, 1:] |= out[1:, :-1]
        grown[:-1, :-1] |= out[1:, 1:]
        out = grown
    return out


#: Chamfer 3-4 mask weights approximate Euclidean distance with unit cost
#: 3 for axial steps and 4 for diagonal ones (divide by 3 to de-normalize).
_CHAMFER_AXIAL = 3
_CHAMFER_DIAG = 4

#: Unreachable-distance sentinel for the integer chamfer grid.
_CHAMFER_BIG = np.iinfo(np.int64).max // 4


def chamfer_distance(mask: np.ndarray) -> np.ndarray:
    """Approximate Euclidean distance (pixels) to the nearest True pixel.

    Two-pass 3-4 chamfer transform — the classical scipy-free distance
    transform. Error versus exact Euclidean distance is bounded by ~8%,
    far below the 1-2 px tolerances boundary metrics use. An all-False
    mask returns +inf everywhere.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected 2-D mask, got shape {mask.shape}")
    h, w = mask.shape
    dist = np.where(mask, 0, _CHAMFER_BIG).astype(np.int64)
    xs = np.arange(w, dtype=np.int64) * _CHAMFER_AXIAL

    def sweep_left(row: np.ndarray) -> np.ndarray:
        # d[x] = min_{k<=x} (row[k] + 3*(x-k)) as a prefix-min.
        return np.minimum.accumulate(row - xs) + xs

    def sweep_right(row: np.ndarray) -> np.ndarray:
        return (np.minimum.accumulate((row + xs)[::-1]))[::-1] - xs

    # Forward pass (top-left to bottom-right): upper neighbors vectorized
    # per row, then the in-row left propagation as a prefix-min.
    for y in range(h):
        if y > 0:
            dist[y] = np.minimum(dist[y], dist[y - 1] + _CHAMFER_AXIAL)
            dist[y, 1:] = np.minimum(dist[y, 1:], dist[y - 1, :-1] + _CHAMFER_DIAG)
            dist[y, :-1] = np.minimum(dist[y, :-1], dist[y - 1, 1:] + _CHAMFER_DIAG)
        dist[y] = np.minimum(dist[y], sweep_left(dist[y]))
    # Backward pass (bottom-right to top-left).
    for y in range(h - 1, -1, -1):
        if y < h - 1:
            dist[y] = np.minimum(dist[y], dist[y + 1] + _CHAMFER_AXIAL)
            dist[y, 1:] = np.minimum(dist[y, 1:], dist[y + 1, :-1] + _CHAMFER_DIAG)
            dist[y, :-1] = np.minimum(dist[y, :-1], dist[y + 1, 1:] + _CHAMFER_DIAG)
        dist[y] = np.minimum(dist[y], sweep_right(dist[y]))
    out = dist.astype(np.float64) / _CHAMFER_AXIAL
    out[dist >= _CHAMFER_BIG // 2] = np.inf
    return out


def perimeter_counts(labels: np.ndarray) -> np.ndarray:
    """Per-label perimeter: count of 4-neighbor edges to a different label
    or to the image border. Returns an array of length ``max_label + 1``."""
    labels = validate_label_map(labels)
    n = int(labels.max()) + 1
    perim = np.zeros(n, dtype=np.int64)
    horiz = labels[:, 1:] != labels[:, :-1]
    vert = labels[1:, :] != labels[:-1, :]
    # Each differing adjacency contributes one unit to both labels.
    np.add.at(perim, labels[:, 1:][horiz], 1)
    np.add.at(perim, labels[:, :-1][horiz], 1)
    np.add.at(perim, labels[1:, :][vert], 1)
    np.add.at(perim, labels[:-1, :][vert], 1)
    # Image border contributes to the touching label.
    for border in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        np.add.at(perim, border, 1)
    return perim


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Joint histogram: ``table[i, j]`` = pixels with label_a i and label_b j.

    The workhorse of USE / ASA: one bincount over fused indices.
    """
    labels_a = validate_label_map(labels_a)
    labels_b = validate_label_map(labels_b)
    if labels_a.shape != labels_b.shape:
        raise ValueError(
            f"label map shapes differ: {labels_a.shape} vs {labels_b.shape}"
        )
    n_a = int(labels_a.max()) + 1
    n_b = int(labels_b.max()) + 1
    a = labels_a.ravel().astype(np.int64)
    b = labels_b.ravel().astype(np.int64)
    return np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b)
