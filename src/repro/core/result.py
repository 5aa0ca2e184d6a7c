"""Result objects returned by the SLIC / S-SLIC drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SegmentationResult"]


@dataclass
class SegmentationResult:
    """Everything a segmentation run produced.

    Attributes
    ----------
    labels:
        ``(H, W)`` int32 superpixel label map (dense range ``[0, K')``
        after connectivity enforcement).
    centers:
        ``(K, 5)`` float array of final cluster centers
        ``[L, a, b, x, y]`` (x is the column, y the row — the paper's
        coordinate order).
    n_superpixels:
        Realized superpixel count (grid-feasible K, before connectivity
        merging).
    iterations:
        Full-image-equivalent sweeps executed.
    subiterations:
        Sub-iterations executed (equals ``iterations`` for plain SLIC).
    converged:
        Whether the center-movement threshold stopped the run before the
        iteration cap.
    movement_history:
        Mean spatial center movement (pixels) after each full sweep.
    timings:
        Phase-name -> seconds dict from the built-in profiler. Keys:
        ``color_conversion``, ``initialization``, ``distance_min``,
        ``center_update``, ``connectivity``, ``other``.
    params:
        The :class:`~repro.core.params.SlicParams` used.
    """

    labels: np.ndarray
    centers: np.ndarray
    n_superpixels: int
    iterations: int
    subiterations: int
    converged: bool
    movement_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    params: object = None

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across all recorded phases."""
        return float(sum(self.timings.values()))

    def __repr__(self) -> str:
        return (
            f"SegmentationResult(n_superpixels={self.n_superpixels}, "
            f"iterations={self.iterations}, subiterations={self.subiterations}, "
            f"converged={self.converged}, shape={self.labels.shape})"
        )
