"""The PPA's 9-candidate structure: tiles and nearest-center maps.

Section 4.3: "the accelerator performs the initial assignment of the 9
closest SP centers for a given pixel. [...] our S-SLIC implementation
precomputes these values. [...] The image is statically split into tiled
regions based on the initial 9 closest SPs."

Because centers initialize on a regular grid, each pixel's 9 closest
candidates are simply the 3x3 grid-cell neighborhood of the tile containing
it. This module builds:

* ``tile_map`` — (H, W) tile index per pixel (which grid cell owns it),
* ``candidate_map`` — (T, 9) candidate cluster indices per tile,
* a dynamic variant that recomputes candidates from *current* center
  positions (for the static-vs-dynamic ablation), and
* ``ppa_geometry`` — the tile map, the static candidate map and the
  subset schedule of one frame geometry, built once per process (the
  accelerator likewise precomputes them once, not per frame).

Edge tiles clamp their out-of-range neighbors, producing duplicate
candidates; the hardware always evaluates 9 distances, so duplicates model
it exactly (a duplicate can never win over itself).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .subsampling import SubsetSchedule

__all__ = [
    "PpaGeometry",
    "tile_map",
    "candidate_map",
    "dynamic_candidate_map",
    "ppa_geometry",
    "clear_geometry_cache",
]

#: Geometries the process-wide memo keeps (least recently used evicted).
#: A 1080p entry holds ~25 MB: the int32 tile map and the int64 subsets.
GEOMETRY_CACHE_SLOTS = 4


class PpaGeometry(NamedTuple):
    """The PPA structures that depend only on the frame geometry."""

    #: (H, W) int32 tile map, read-only.
    tiles: np.ndarray
    #: (T, 9) int32 static candidate map, read-only.
    candidates: np.ndarray
    #: Subset schedule whose index arrays are read-only.
    schedule: SubsetSchedule


def tile_map(shape, grid_h: int, grid_w: int) -> np.ndarray:
    """(H, W) int map: which grid tile each pixel falls in.

    Tiles are the uniform regions of the initialization grid; tile index is
    ``gy * grid_w + gx``, matching the center ordering of
    :func:`~repro.core.initialization.initial_centers`.
    """
    h, w = shape[:2]
    gy = np.minimum((np.arange(h) * grid_h) // h, grid_h - 1)
    gx = np.minimum((np.arange(w) * grid_w) // w, grid_w - 1)
    return (gy[:, None] * grid_w + gx[None, :]).astype(np.int32)


def candidate_map(grid_h: int, grid_w: int) -> np.ndarray:
    """(T, 9) candidate cluster indices for each tile (3x3 neighborhood).

    Out-of-grid neighbors clamp to the edge, so every tile has exactly 9
    entries (with duplicates at the borders) — the hardware's fixed-size
    center register file.
    """
    gy, gx = np.mgrid[0:grid_h, 0:grid_w]
    cands = np.empty((grid_h * grid_w, 9), dtype=np.int32)
    k = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ny = np.clip(gy + dy, 0, grid_h - 1)
            nx = np.clip(gx + dx, 0, grid_w - 1)
            cands[:, k] = (ny * grid_w + nx).ravel()
            k += 1
    return cands


def dynamic_candidate_map(
    centers: np.ndarray, grid_h: int, grid_w: int, shape
) -> np.ndarray:
    """(T, 9) candidates recomputed from current center positions.

    For each tile, the 9 centers spatially closest to the tile's geometric
    middle. This is what "Set list of 9 spatially closest SP cluster
    centers for each pixel" (Figure 1b) does when evaluated per iteration;
    the ablation compares it against the static map.
    """
    h, w = shape[:2]
    ty = (np.arange(grid_h) + 0.5) * h / grid_h
    tx = (np.arange(grid_w) + 0.5) * w / grid_w
    tyy, txx = np.meshgrid(ty, tx, indexing="ij")
    tile_xy = np.stack([txx.ravel(), tyy.ravel()], axis=1)  # (T, 2) as (x, y)
    cxy = centers[:, 3:5]  # (K, 2)
    # (T, K) squared distances; T and K are both ~ the superpixel count, so
    # this stays small (K^2) even for thousands of superpixels.
    d2 = ((tile_xy[:, None, :] - cxy[None, :, :]) ** 2).sum(axis=2)
    k = min(9, d2.shape[1])
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    if k < 9:
        # Fewer than 9 clusters exist; pad with the nearest one.
        pad = nearest[:, [0]] if k > 0 else np.zeros((len(tile_xy), 1), dtype=np.intp)
        nearest = np.concatenate([nearest] + [pad] * (9 - k), axis=1)
    # Sort each row by actual distance so index 0 is the closest center
    # (deterministic tie behaviour for the 9:1 minimum unit).
    row = np.arange(len(tile_xy))[:, None]
    order = np.argsort(d2[row, nearest], axis=1, kind="stable")
    return nearest[row, order].astype(np.int32)


def ppa_geometry(
    shape,
    grid_h: int,
    grid_w: int,
    n_subsets: int,
    strategy: str,
    seed: int = 0,
) -> PpaGeometry:
    """Tile map, static candidate map and subset schedule, once per process.

    A small bounded memo (:data:`GEOMETRY_CACHE_SLOTS` entries, least
    recently used evicted) keyed on everything the three structures
    depend on: frame size, grid, subset count, strategy, and the seed
    when the strategy is ``random``. Every frame of every engine in the
    process shares the entry — stream frames, pool workers and serve
    sessions alike — so its arrays are read-only. The memo is a pure
    cache: :func:`clear_geometry_cache` never changes a label.
    """
    h, w = shape[:2]
    return _build_geometry(
        h, w, grid_h, grid_w, n_subsets, strategy,
        seed if strategy == "random" else 0,
    )


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SLOTS)
def _build_geometry(h, w, grid_h, grid_w, n_subsets, strategy, seed):
    tiles = tile_map((h, w), grid_h, grid_w)
    cands = candidate_map(grid_h, grid_w)
    tiles.flags.writeable = False
    cands.flags.writeable = False
    schedule = SubsetSchedule((h, w), n_subsets, strategy=strategy, seed=seed)
    return PpaGeometry(tiles, cands, schedule)


#: Drop every memoized geometry (the next frame rebuilds its own).
clear_geometry_cache = _build_geometry.cache_clear
