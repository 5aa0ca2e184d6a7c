"""Streaming segmentation: S-SLIC over a video with temporal warm starts.

The accelerator keeps its centers and label map in external memory between
frames (Section 4.3), so a video pipeline gets frame-to-frame warm starting
for free. :class:`StreamSegmenter` is the software embodiment:

* each frame starts from the previous frame's centers and labels;
* because the PPA's 9-candidate map is *static* (tile-based), warm starts
  are only valid while centers remain near their home tiles — the
  segmenter measures center drift each frame and re-anchors (cold-starts)
  when the mean drift exceeds a fraction of the grid interval S;
* per-frame convergence typically drops from ~6 sweeps to ~3-4 on
  coherent streams (see ``examples/mobile_vision_pipeline.py``).

The warm-start decision and the state update are exposed separately as
:meth:`StreamSegmenter.plan` and :meth:`StreamSegmenter.commit` so that
drivers which execute the segmentation elsewhere — notably the
:class:`repro.parallel.ParallelRunner`, which ships frames to worker
processes — share *exactly* the warm chain :meth:`process` would produce.
``process(image)`` is plan + run + commit, and stays the one-call API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, StreamError
from .engine import expected_cluster_count, run_segmentation
from .params import SlicParams
from .result import SegmentationResult

__all__ = ["StreamSegmenter", "StreamFrameStats", "FramePlan"]


@dataclass(frozen=True)
class StreamFrameStats:
    """Bookkeeping for one processed frame."""

    frame_index: int
    sweeps: int
    subiterations: int
    warm_started: bool
    reanchored: bool
    mean_drift_px: float


@dataclass(frozen=True)
class FramePlan:
    """The warm-start decision for one frame, made before it runs.

    Produced by :meth:`StreamSegmenter.plan`; carries everything the
    engine call needs (``warm_centers`` / ``warm_labels`` are ``None``
    on a cold start) plus the bookkeeping :meth:`StreamSegmenter.commit`
    records afterwards.
    """

    frame_index: int
    shape: tuple
    warm: bool
    reanchor: bool
    mean_drift_px: float
    warm_centers: np.ndarray | None = None
    warm_labels: np.ndarray | None = None


class StreamSegmenter:
    """Segment a stream of equally-sized frames with temporal coherence.

    Parameters
    ----------
    params:
        Algorithm parameters (a convergence threshold > 0 is what converts
        warm starts into saved sweeps). Defaults to S-SLIC(0.5) with a
        0.3 px threshold. The params are used *verbatim* (the frame runs
        through :func:`repro.core.engine.run_segmentation` directly), so
        ``subsample_ratio=1.0`` really means no subsampling.
    drift_limit:
        Re-anchor when the mean distance of centers from their home grid
        positions exceeds ``drift_limit * S`` (the static candidate map's
        validity radius is one tile, so 1.0 is the hard ceiling; 0.6
        leaves margin).
    strict_shape:
        If True, a frame whose resolution differs from the previous
        frame's raises :class:`repro.errors.StreamError` instead of
        silently re-anchoring. Stream drivers that promise warm-start
        continuity (``repro.parallel``) enable this so a mixed-resolution
        stream fails loudly per frame rather than degrading.
    """

    def __init__(
        self,
        params: SlicParams = None,
        drift_limit: float = 0.6,
        strict_shape: bool = False,
    ):
        if params is None:
            params = SlicParams(
                subsample_ratio=0.5, architecture="ppa", convergence_threshold=0.3
            )
        if not isinstance(params, SlicParams):
            raise ConfigurationError("params must be a SlicParams")
        if not (0.0 < drift_limit <= 1.5):
            raise ConfigurationError(
                f"drift_limit must be in (0, 1.5], got {drift_limit}"
            )
        self.params = params
        self.drift_limit = drift_limit
        self.strict_shape = bool(strict_shape)
        self._centers = None
        self._labels = None
        self._home_xy = None
        self._shape = None
        self._frame_index = 0
        self.history = []

    # ------------------------------------------------------------------
    @property
    def has_state(self) -> bool:
        """Whether the segmenter holds warm state a next frame could use."""
        return self._centers is not None

    def reset(self) -> None:
        """Drop all temporal state (next frame cold-starts)."""
        self._centers = None
        self._labels = None
        self._home_xy = None
        self._shape = None

    def _mean_drift(self) -> float:
        if self._centers is None or self._home_xy is None:
            return 0.0
        d = self._centers[:, 3:5] - self._home_xy
        return float(np.mean(np.hypot(d[:, 0], d[:, 1])))

    # ------------------------------------------------------------------
    def plan(self, shape) -> FramePlan:
        """Decide warm vs. cold for a frame of ``shape`` (H, W).

        Pure read of the segmenter state — call :meth:`commit` with the
        frame's result to advance it. A warm start requires stored state,
        an unchanged resolution, drift within ``drift_limit * S``, *and*
        a stored center count matching the new frame's grid-realized K
        (the K-mismatch guard: a resolution change alters the realized
        grid, and stale centers would otherwise hit a shape error deep in
        the engine).
        """
        shape = tuple(shape[:2])
        s = self.params.grid_interval(shape)
        drift = self._mean_drift()
        shape_changed = self._shape is not None and self._shape != shape
        if shape_changed and self.strict_shape:
            raise StreamError(
                f"frame {self._frame_index} resolution {shape} differs from "
                f"the stream's established resolution {self._shape}; "
                f"warm-start chains require equally-sized frames "
                f"(reset() the segmenter or disable strict_shape to "
                f"re-anchor instead)"
            )
        k_expected = expected_cluster_count(shape, self.params.n_superpixels)
        k_mismatch = (
            self._centers is not None and len(self._centers) != k_expected
        )
        reanchor = shape_changed or k_mismatch or drift > self.drift_limit * s
        warm = self._centers is not None and not reanchor
        return FramePlan(
            frame_index=self._frame_index,
            shape=shape,
            warm=warm,
            reanchor=reanchor,
            mean_drift_px=drift,
            warm_centers=self._centers if warm else None,
            warm_labels=self._labels if warm else None,
        )

    def commit(self, plan: FramePlan, result: SegmentationResult) -> None:
        """Record ``result`` as the outcome of ``plan`` and advance state."""
        if plan.reanchor or self._home_xy is None or plan.shape != self._shape:
            # Home positions are the *initial grid* of this cold start;
            # they depend only on shape and K, so recover them from the
            # grid geometry alone — no image allocation, no segmentation.
            from .initialization import initial_grid_xy

            self._home_xy = initial_grid_xy(
                plan.shape, self.params.n_superpixels
            )
        self._centers = result.centers
        self._labels = result.labels
        self._shape = plan.shape
        self.history.append(
            StreamFrameStats(
                frame_index=plan.frame_index,
                sweeps=result.iterations,
                subiterations=result.subiterations,
                warm_started=plan.warm,
                reanchored=bool(plan.reanchor and plan.frame_index > 0),
                mean_drift_px=plan.mean_drift_px,
            )
        )
        self._frame_index = plan.frame_index + 1

    def process(self, image: np.ndarray, tracer=None) -> SegmentationResult:
        """Segment the next frame; warm-starts when state is valid."""
        plan = self.plan(image.shape)
        result = run_segmentation(
            image,
            self.params,
            warm_centers=plan.warm_centers,
            warm_labels=plan.warm_labels,
            tracer=tracer,
        )
        self.commit(plan, result)
        return result

    # ------------------------------------------------------------------
    @property
    def mean_sweeps(self) -> float:
        """Average sweeps per processed frame."""
        if not self.history:
            return 0.0
        return float(np.mean([h.sweeps for h in self.history]))

    @property
    def reanchor_count(self) -> int:
        return sum(1 for h in self.history if h.reanchored)
