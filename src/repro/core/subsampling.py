"""Pixel-subset schedules for S-SLIC.

Section 3: "The image pixels are split into subsets of equal size. At each
iteration, a different subset is used to update the SPs. The subsets are
traversed in a round-robin fashion to guarantee that all image pixels are
considered. Choosing the proper subsampling strategy is fundamental to
guaranteeing the convergence of the iterative algorithm."

Each schedule partitions the pixel grid into ``n_subsets`` equal classes and
exposes the class members as flat pixel indices. Interleaved schedules
(strided, checkerboard, rows) keep every subset spatially uniform — each
superpixel sees ~1/n of its pixels every sub-iteration, which is what makes
the OS-EM-style center update unbiased. The ``blocks`` schedule is
deliberately *bad* (contiguous stripes starve most superpixels each
sub-iteration) and exists for the schedule ablation.

A schedule for centers (the CPA variant of S-SLIC, which subsets the
superpixels instead of the pixels) is also provided.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SubsetSchedule", "make_schedule", "center_subsets"]


class SubsetSchedule:
    """Partition of an (H, W) pixel grid into ``n_subsets`` index sets.

    Parameters
    ----------
    shape:
        Image shape (H, W).
    n_subsets:
        Number of equal subsets (1 = no subsampling).
    strategy:
        One of ``strided``, ``checkerboard``, ``rows``, ``blocks``,
        ``random``.
    seed:
        Used only by the ``random`` strategy.

    The subsets are materialized once as read-only, ascending flat index
    arrays; ``subset(p)`` returns the indices of phase ``p mod n_subsets``,
    so round-robin traversal is just ``subset(0), subset(1), ...``.
    """

    def __init__(self, shape, n_subsets: int, strategy: str = "strided", seed: int = 0):
        h, w = shape[:2]
        if n_subsets < 1:
            raise ConfigurationError(f"n_subsets must be >= 1, got {n_subsets}")
        if n_subsets > h * w:
            raise ConfigurationError(
                f"n_subsets {n_subsets} exceeds pixel count {h * w}"
            )
        self.shape = (h, w)
        self.n_subsets = n_subsets
        self.strategy = strategy
        n = h * w
        if n_subsets == 1:
            phase = np.zeros(n, dtype=np.int32)
        elif strategy == "strided":
            # Raster-order interleave: adjacent pixels land in different
            # subsets; each subset is a uniform sparse lattice.
            phase = (np.arange(n, dtype=np.int64) % n_subsets).astype(np.int32)
        elif strategy == "checkerboard":
            yy, xx = np.mgrid[0:h, 0:w]
            if n_subsets == 2:
                phase = ((xx + yy) % 2).astype(np.int32).ravel()
            elif n_subsets == 4:
                phase = ((yy % 2) * 2 + (xx % 2)).astype(np.int32).ravel()
            else:
                # Generalized 2D interleave for other counts.
                phase = ((xx + yy * 2) % n_subsets).astype(np.int32).ravel()
        elif strategy == "rows":
            yy = np.repeat(np.arange(h), w)
            phase = (yy % n_subsets).astype(np.int32)
        elif strategy == "blocks":
            # Contiguous horizontal bands — the pathological schedule.
            yy = np.repeat(np.arange(h), w)
            phase = np.minimum(yy * n_subsets // h, n_subsets - 1).astype(np.int32)
        elif strategy == "random":
            rng = np.random.default_rng(seed)
            perm = rng.permutation(n)
            phase = np.empty(n, dtype=np.int32)
            phase[perm] = (np.arange(n) % n_subsets).astype(np.int32)
        else:
            raise ConfigurationError(f"unknown subset strategy {strategy!r}")
        subsets = []
        for p in range(n_subsets):
            idx = np.flatnonzero(phase == p).astype(np.int64)
            idx.flags.writeable = False  # shared by every frame of a geometry
            subsets.append(idx)
        self._subsets = tuple(subsets)

    def subset(self, phase: int) -> np.ndarray:
        """Flat pixel indices of subset ``phase mod n_subsets``."""
        return self._subsets[phase % self.n_subsets]

    def subset_mask(self, phase: int) -> np.ndarray:
        """Boolean (H, W) mask of subset ``phase mod n_subsets``."""
        mask = np.zeros(self.shape[0] * self.shape[1], dtype=bool)
        mask[self.subset(phase)] = True
        return mask.reshape(self.shape)

    @property
    def sizes(self) -> list:
        """Subset sizes (balanced to within one pixel for grid schedules)."""
        return [len(s) for s in self._subsets]


def make_schedule(shape, subsample_ratio: float, strategy: str, seed: int = 0) -> SubsetSchedule:
    """Build the schedule for a subsample ratio of ``1/n``."""
    n = int(round(1.0 / subsample_ratio))
    if abs(n * subsample_ratio - 1.0) > 1e-9:
        raise ConfigurationError(
            f"subsample_ratio must be 1/n for integer n, got {subsample_ratio}"
        )
    return SubsetSchedule(shape, n, strategy=strategy, seed=seed)


def center_subsets(n_centers: int, n_subsets: int) -> list:
    """Round-robin partition of center indices — the CPA S-SLIC variant.

    "We also examined a SP Center Perspective Architecture in which the SPs
    are split into subsets of equal size" (Section 3). Interleaving by
    index keeps each subset spatially spread out, since grid order maps
    index to position.
    """
    if n_subsets < 1:
        raise ConfigurationError(f"n_subsets must be >= 1, got {n_subsets}")
    idx = np.arange(n_centers)
    return [idx[idx % n_subsets == p] for p in range(n_subsets)]
