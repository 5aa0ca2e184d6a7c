"""The segmentation engine driving both SLIC and S-SLIC.

One engine implements the two flowcharts of Figure 1:

* CPA (Figure 1a): per sweep, scan a 2S x 2S window per center and keep
  image-sized running-minimum buffers; with ``subsample_ratio < 1`` the
  centers are processed in round-robin subsets (the CPA flavour of S-SLIC).
* PPA (Figure 1b): per sub-iteration, (re)assign a pixel subset against its
  9 candidate centers and update the centers from the subset's sigma
  accumulations (the accelerator's algorithm).

``subsample_ratio == 1`` with PPA reproduces the gSLIC-style full-image
pixel-perspective SLIC; with CPA it reproduces the original algorithm.

The engine is instrumented with :class:`~repro.core.profiles.PhaseTimer`
buckets that map onto Table 1's columns, and — when a
:class:`repro.obs.Tracer` is passed — emits a full span tree
(``segmentation`` > ``sweep`` > ``subiteration`` > ``phase:*``) plus
pixels-touched / centers-updated counters and the per-sweep
center-movement residual, so convergence dynamics are observable from
the JSONL telemetry alone.
"""

from __future__ import annotations

import time

import numpy as np

from ..color.hw_convert import HwColorConverter
from ..errors import ConfigurationError
from ..kernels import get_backend, resolve_name
from ..obs.tracer import NULL_TRACER
from ..types import as_uint8_rgb, check_index_range, validate_rgb_image
from .accumulators import SigmaAccumulator, center_movement
from .assignment import PixelArrays
from .distance import spatial_weight
from .initialization import grid_geometry, initial_centers, perturb_centers
from .neighbors import dynamic_candidate_map, ppa_geometry, tile_map
from .params import ARCH_CPA, ARCH_PPA, SlicParams
from .profiles import PhaseTimer
from .result import SegmentationResult
from .subsampling import center_subsets

__all__ = ["run_segmentation", "expected_cluster_count"]

#: Sentinel for "not yet assigned" in the CPA distance buffer.
_INF = np.inf

#: Histogram buckets (seconds) for per-sweep latency. Spans 1 ms tile
#: sweeps on thumbnails up to multi-second 1080p software sweeps; the
#: exporter adds the +Inf overflow bucket.
SWEEP_SECONDS_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)


def expected_cluster_count(shape, n_superpixels: int) -> int:
    """Grid-realized cluster count K' for an (H, W) image and requested K.

    This is the number of rows ``initial_centers`` will produce — and
    therefore the K the engine validates ``warm_centers`` against. Stream
    drivers use it to detect K mismatches (e.g. after a resolution
    change) *before* shipping a frame to a worker process.
    """
    grid_h, grid_w, _, _ = grid_geometry(shape, n_superpixels)
    return grid_h * grid_w


def _check_warm_labels(warm_labels, shape, n_clusters) -> np.ndarray:
    """Validate a warm-start label map and return an int32 copy."""
    arr = np.asarray(warm_labels)
    if arr.ndim != 2 or arr.size == 0:
        raise ConfigurationError(
            f"warm_labels must be a non-empty 2-D label map, got shape "
            f"{arr.shape}"
        )
    if arr.shape != shape:
        raise ConfigurationError(
            f"warm_labels must have shape {shape}, got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(
            f"warm_labels must be integer-typed, got dtype {arr.dtype}"
        )
    check_index_range(arr, n_clusters, "warm_labels values")
    return arr.astype(np.int32, order="C")


def run_segmentation(
    image: np.ndarray,
    params: SlicParams,
    warm_centers: np.ndarray | None = None,
    warm_labels: np.ndarray | None = None,
    tracer=None,
) -> SegmentationResult:
    """Segment ``image`` according to ``params``; see module docstring.

    ``warm_centers`` (K', 5) and/or ``warm_labels`` (H, W) warm-start the
    run from a previous result — used for video streams (frame-to-frame
    temporal coherence) and for sweep-at-a-time drivers like Preemptive
    S-SLIC. The warm centers must match the grid-realized cluster count.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when given, the
    run emits the span tree and counters described in the module
    docstring. When ``None`` the shared disabled tracer is used and the
    instrumentation cost is a handful of attribute checks per sweep.
    """
    validate_rgb_image(image)
    tracer = tracer if tracer is not None else NULL_TRACER
    timer = PhaseTimer(tracer=tracer)
    kernel_name = resolve_name(params.kernel_backend)
    if kernel_name == "native-mt":
        # One thread count for the whole run, passed to every kernel call.
        from ..kernels.native import ppa_lanes
        from ..kernels.native_mt import resolve_threads

        n_threads = resolve_threads(params.n_threads)
        lanes = ppa_lanes()
    else:
        n_threads = lanes = None
    with tracer.span(
        "segmentation",
        architecture=params.architecture,
        n_superpixels=params.n_superpixels,
        subsample_ratio=params.subsample_ratio,
        height=image.shape[0],
        width=image.shape[1],
        kernel_backend=kernel_name,
        n_threads=n_threads,
        ppa_lanes=lanes,
    ) as root:
        result = _run_instrumented(
            image, params, warm_centers, warm_labels, tracer, timer,
            kernel_name, n_threads or 1,
        )
        root.set(
            sweeps=result.iterations,
            subiterations=result.subiterations,
            converged=result.converged,
            realized_superpixels=result.n_superpixels,
        )
    return result


def _run_instrumented(
    image, params, warm_centers, warm_labels, tracer, timer, kernel_name,
    n_threads,
):
    """The engine body; always runs inside the root ``segmentation`` span.

    ``n_threads`` is the run's kernel thread count (1 unless the backend
    is ``native-mt``). Every kernel call is an attribute of the backend
    module and passes it.
    """
    kernels = get_backend(kernel_name)

    # ------------------------------------------------------------------
    # Color conversion (the float path, or the LUT hardware path when a
    # fixed datapath is configured).
    # ------------------------------------------------------------------
    datapath = params.datapath
    with timer.phase("color_conversion"):
        if datapath is not None:
            converter = HwColorConverter(encoding=datapath.encoding)
            # One traversal produces the codes and their float decode.
            lab, codes = kernels.lab_from_codes(
                converter, as_uint8_rgb(image), n_threads=n_threads
            )
        else:
            codes = None
            lab = kernels.lab_from_rgb(image, n_threads=n_threads)

    h, w = lab.shape[:2]

    # ------------------------------------------------------------------
    # Initialization: grid centers, gradient perturbation, PPA structures.
    # ------------------------------------------------------------------
    with timer.phase("initialization"):
        grid_h, grid_w, _, _ = grid_geometry((h, w), params.n_superpixels)
        n_clusters = grid_h * grid_w
        if warm_centers is not None:
            # Warm-started frames never read the grid seeds: the warm
            # centers replace them wholesale, so deriving (and gradient-
            # perturbing) initial centers would be dead work.
            warm_centers = np.asarray(warm_centers, dtype=np.float64)
            if warm_centers.shape != (n_clusters, 5):
                raise ConfigurationError(
                    f"warm_centers must be ({n_clusters}, 5) — the "
                    f"grid-realized cluster count for this image/K (see "
                    f"expected_cluster_count) — got {warm_centers.shape}"
                )
            if not np.isfinite(warm_centers).all():
                raise ConfigurationError(
                    "warm_centers must be finite (NaN or inf found)"
                )
            centers = warm_centers.copy()
        else:
            centers = initial_centers(lab, params.n_superpixels)
            if params.perturb_centers:
                centers = perturb_centers(centers, lab)
        s = float(np.sqrt(h * w / n_clusters))
        weight = spatial_weight(params.compactness, s)
        n_subsets = params.n_subsets

        if params.architecture == ARCH_PPA:
            # Geometry-only structures come from the process-wide memo
            # (read-only, built on the first frame of this geometry).
            tiles, cands, schedule = ppa_geometry(
                (h, w), grid_h, grid_w, n_subsets, params.subset_strategy,
                params.seed,
            )
            pixels = PixelArrays(lab, tiles, datapath=datapath, codes=codes)
            if warm_labels is not None:
                labels_flat = _check_warm_labels(
                    warm_labels, (h, w), n_clusters
                ).ravel()
            else:
                labels_flat = tiles.ravel().astype(np.int32)
        else:
            dist_buf = np.full((h, w), _INF, dtype=np.float64)
            if warm_labels is not None:
                labels_buf = _check_warm_labels(warm_labels, (h, w), n_clusters)
            else:
                labels_buf = tile_map((h, w), grid_h, grid_w).astype(np.int32)
            c_subsets = center_subsets(n_clusters, n_subsets)
            # Center updates accumulate straight from the flat lab array
            # via the sigma_accumulate kernel — no (H*W, 5) cache.
            lab_rows = lab.reshape(-1, 3)

    acc = SigmaAccumulator(n_clusters)
    movement_history = []
    converged = False
    max_sub = (
        params.max_subiterations
        if params.max_subiterations is not None
        else params.max_iterations * n_subsets
    )

    # ------------------------------------------------------------------
    # Main iteration loop.
    # ------------------------------------------------------------------
    sub = 0
    sweeps = 0
    while sub < max_sub:
        sweep_t0 = time.perf_counter()
        with tracer.span("sweep", index=sweeps) as sweep_span:
            sweep_start = centers.copy()
            for _ in range(n_subsets):
                if sub >= max_sub:
                    break
                if params.architecture == ARCH_PPA:
                    idx = schedule.subset(sub)
                    subit = tracer.span(
                        "subiteration",
                        sub=sub,
                        subset=sub % n_subsets,
                        architecture=ARCH_PPA,
                        pixels=len(idx),
                    )
                    mode = params.center_update_mode
                    with subit:
                        with timer.phase("distance_min"):
                            # One fused pass: assign the subset, write its
                            # labels into labels_flat, and return its
                            # sigma partials.
                            _, sums, counts = kernels.ppa_assign(
                                pixels,
                                idx,
                                cands,
                                centers,
                                weight,
                                compactness=params.compactness,
                                grid_s=s,
                                labels_out=labels_flat,
                                n_threads=n_threads,
                            )
                            if mode == "accumulate":
                                # Sigma registers persist across the sweep's
                                # subset passes and reset at sweep boundaries
                                # (hardware behaviour; see
                                # SlicParams.center_update_mode).
                                if sub % n_subsets == 0:
                                    acc.reset()
                                acc.fold(sums, counts)
                            elif mode == "subset":
                                acc.reset()
                                acc.fold(sums, counts)
                        with timer.phase("center_update"):
                            if mode == "all_assigned":
                                acc.reset()
                                acc.fold(*kernels.sigma_accumulate(
                                    labels_flat, n_clusters, w,
                                    **pixels.sigma_source,
                                    n_threads=n_threads,
                                ))
                            centers = acc.compute_centers(fallback=centers)
                    tracer.count("engine.pixels_assigned", len(idx))
                    if tracer is not NULL_TRACER:
                        # Centers actually refreshed from data this pass:
                        # those with at least one accumulated pixel.
                        tracer.count(
                            "engine.centers_updated",
                            int(np.count_nonzero(acc.counts)),
                        )
                else:
                    subset_k = c_subsets[sub % n_subsets]
                    # Reset the running minima at sweep boundaries (with a
                    # single subset, every sub-iteration is a boundary).
                    if sub % n_subsets == 0:
                        dist_buf.fill(_INF)
                    subit = tracer.span(
                        "subiteration",
                        sub=sub,
                        subset=sub % n_subsets,
                        architecture=ARCH_CPA,
                        centers=len(subset_k),
                    )
                    with subit:
                        with timer.phase("distance_min"):
                            n_touched = kernels.cpa_assign(
                                lab,
                                centers,
                                weight,
                                s,
                                dist_buf,
                                labels_buf,
                                cluster_indices=subset_k,
                                datapath=datapath,
                                compactness=params.compactness,
                                codes=codes,
                                n_threads=n_threads,
                            )
                        with timer.phase("center_update"):
                            acc.reset()
                            acc.fold(*kernels.sigma_accumulate(
                                labels_buf.ravel(), n_clusters, w,
                                lab_flat=lab_rows, n_threads=n_threads,
                            ))
                            new_centers = acc.compute_centers(fallback=centers)
                            if n_subsets > 1:
                                # Only the scanned subset's centers move this
                                # sub-iteration (the others' pixel sets are
                                # stale).
                                merged = centers.copy()
                                merged[subset_k] = new_centers[subset_k]
                                centers = merged
                            else:
                                centers = new_centers
                    # Distinct pixels scanned this pass (windows overlap,
                    # so this is the deduplicated count, never > h*w).
                    tracer.count("engine.pixels_assigned", n_touched)
                    tracer.count("engine.centers_updated", len(subset_k))
                sub += 1
                tracer.count("engine.subiterations")
            sweeps += 1
            tracer.count("engine.sweeps")
            movement = center_movement(sweep_start, centers)
            movement_history.append(movement)
            sweep_span.set(movement=movement, subiterations_done=sub)
            tracer.gauge("engine.center_movement", movement)
        tracer.observe(
            "engine.sweep_seconds",
            time.perf_counter() - sweep_t0,
            buckets=SWEEP_SECONDS_BUCKETS,
        )
        if params.convergence_threshold > 0 and movement < params.convergence_threshold:
            converged = True
            break
        if params.architecture == ARCH_PPA and not params.static_neighbors:
            with timer.phase("initialization"):
                cands = dynamic_candidate_map(centers, grid_h, grid_w, (h, w))

    # ------------------------------------------------------------------
    # Connectivity enforcement.
    # ------------------------------------------------------------------
    if params.architecture == ARCH_PPA:
        labels = labels_flat.reshape(h, w)
    else:
        labels = labels_buf
    if params.enforce_connectivity:
        with timer.phase("connectivity"):
            min_size = max(1, int(params.min_size_factor * s * s))
            labels = kernels.enforce_connectivity(
                labels, min_size, n_threads=n_threads
            )

    return SegmentationResult(
        # Every label map above is allocated by this run (warm labels
        # are copied on entry), so an int32 map is returned as is.
        labels=labels.astype(np.int32, copy=False),
        centers=centers,
        n_superpixels=n_clusters,
        iterations=sweeps,
        subiterations=sub,
        converged=converged,
        movement_history=movement_history,
        timings=timer.as_dict(),
        params=params,
    )
