"""Preemptive SLIC (Neubert & Protzel, ICPR 2014) — related-work baseline.

Section 8: "Preemptive SLIC optimizes computation by halting the update of
individual clusters when there is little to no difference in the cluster
center location. [...] The optimization of Preemptive SLIC is orthogonal to
those performed by S-SLIC. While the two techniques could be combined, the
analysis of this combined algorithm is beyond the scope of this work."

This module implements both the baseline and that "beyond scope"
combination (the library's extension experiment):

* :func:`preemptive_slic` — CPA SLIC where a cluster whose center moved
  less than ``preemption_threshold`` pixels in the previous iteration is
  *frozen*: its window is not rescanned and its center not recomputed.
  A frozen cluster thaws if any neighbor-ish activity is irrelevant here —
  following the original paper we keep freezing monotone per iteration
  (a cluster may re-activate if its center is moved by losing pixels to an
  active neighbor's scan).
* :func:`preemptive_sslic` — the same preemption test applied per full
  sweep on top of S-SLIC's pixel subsampling.

Both run the CPA window scan, sigma accumulation and connectivity on
the kernel backend ``params.kernel_backend`` names, at
``params.n_threads``, as the S-SLIC engine does.
"""

from __future__ import annotations

import numpy as np

from ..color import rgb_to_lab
from ..core import SegmentationResult, SlicParams, sslic
from ..core.accumulators import SigmaAccumulator
from ..core.distance import spatial_weight
from ..core.initialization import grid_geometry, initial_centers, perturb_centers
from ..core.neighbors import tile_map
from ..core.profiles import PhaseTimer
from ..errors import ConfigurationError
from ..kernels import get_backend
from ..types import validate_rgb_image

__all__ = ["preemptive_slic", "preemptive_sslic"]


def preemptive_slic(
    image: np.ndarray,
    params: SlicParams = None,
    preemption_threshold: float = 0.25,
    **overrides,
) -> SegmentationResult:
    """CPA SLIC with per-cluster preemption.

    Returns a normal :class:`SegmentationResult`; the number of
    window-scan operations actually performed is recorded in
    ``result.timings["scans_performed"]``-style bookkeeping via the
    ``movement_history`` (one entry per iteration) and the
    ``active_history`` attribute attached to the result.
    """
    if params is None:
        params = SlicParams()
    if overrides:
        params = params.with_(**overrides)
    if preemption_threshold < 0:
        raise ConfigurationError("preemption_threshold must be >= 0")
    validate_rgb_image(image)
    kernels = get_backend(params.kernel_backend)
    n_threads = params.n_threads
    timer = PhaseTimer()

    with timer.phase("color_conversion"):
        lab = rgb_to_lab(image)
    h, w = lab.shape[:2]
    lab_flat = lab.reshape(-1, 3)

    with timer.phase("initialization"):
        centers = initial_centers(lab, params.n_superpixels)
        if params.perturb_centers:
            centers = perturb_centers(centers, lab)
        n_clusters = len(centers)
        grid_h, grid_w, _, _ = grid_geometry((h, w), params.n_superpixels)
        s = float(np.sqrt(h * w / n_clusters))
        weight = spatial_weight(params.compactness, s)
        labels_buf = tile_map((h, w), grid_h, grid_w).astype(np.int32)
        dist_buf = np.full((h, w), np.inf, dtype=np.float64)

    acc = SigmaAccumulator(n_clusters)
    active = np.ones(n_clusters, dtype=bool)
    movement_history = []
    active_history = []
    converged = False
    iterations = 0
    for _ in range(params.max_iterations):
        active_idx = np.flatnonzero(active)
        if len(active_idx) == 0:
            converged = True
            break
        iterations += 1
        active_history.append(len(active_idx))
        with timer.phase("distance_min"):
            # The preemption invariant: a frozen cluster's center has not
            # moved, so the distances stored for its pixels are still
            # valid — only pixels owned by *active* clusters need their
            # running minima invalidated before the rescan. An active
            # cluster can still legitimately steal a frozen cluster's
            # pixel by beating its stored (valid) distance.
            owned_by_active = active[labels_buf]
            dist_buf[owned_by_active] = np.inf
            kernels.cpa_assign(
                lab,
                centers,
                weight,
                s,
                dist_buf,
                labels_buf,
                cluster_indices=active_idx,
                n_threads=n_threads,
            )
        with timer.phase("center_update"):
            acc.reset()
            acc.fold(*kernels.sigma_accumulate(
                labels_buf.ravel(), n_clusters, w, lab_flat=lab_flat,
                n_threads=n_threads,
            ))
            new_centers = acc.compute_centers(fallback=centers)
        per_cluster_move = np.sqrt(
            ((new_centers[:, 3:5] - centers[:, 3:5]) ** 2).sum(axis=1)
        )
        active_move = float(per_cluster_move[active].mean())
        movement_history.append(active_move)
        # Only active clusters update; freezing is monotone (the original
        # Preemptive SLIC never thaws a halted cluster).
        centers[active] = new_centers[active]
        newly_frozen = active & (per_cluster_move < preemption_threshold)
        active = active & ~newly_frozen
        if not active.any():
            converged = True
            break
        if (
            params.convergence_threshold > 0
            and active_move < params.convergence_threshold
        ):
            converged = True
            break

    labels = labels_buf
    if params.enforce_connectivity:
        with timer.phase("connectivity"):
            min_size = max(1, int(params.min_size_factor * s * s))
            labels = kernels.enforce_connectivity(
                labels, min_size, n_threads=n_threads
            )

    result = SegmentationResult(
        labels=labels.astype(np.int32),
        centers=centers,
        n_superpixels=n_clusters,
        iterations=iterations,
        subiterations=iterations,
        converged=converged,
        movement_history=movement_history,
        timings=timer.as_dict(),
        params=params,
    )
    # Extension bookkeeping: window scans per iteration (K for plain SLIC).
    result.active_history = active_history
    return result


def preemptive_sslic(
    image: np.ndarray,
    params: SlicParams = None,
    preemption_threshold: float = 0.25,
    **overrides,
) -> SegmentationResult:
    """The paper's "beyond scope" combination: subsampling + preemption.

    Runs S-SLIC sweep by sweep; after each full sweep, clusters whose
    centers moved less than ``preemption_threshold`` stop being updated
    (their members keep their labels). Implemented by running S-SLIC with
    one-sweep granularity and masking center updates of frozen clusters.
    """
    if params is None:
        params = SlicParams(subsample_ratio=0.5)
    if overrides:
        params = params.with_(**overrides)
    if preemption_threshold < 0:
        raise ConfigurationError("preemption_threshold must be >= 0")
    # Sweep-at-a-time driver: run S-SLIC one full sweep at a time,
    # warm-starting each sweep from the previous state. After every sweep,
    # frozen clusters (spatial movement below the threshold) have their
    # centers pinned back, so the next sweep's distance comparisons see
    # them unchanged — the compute a real implementation would skip.
    image = np.asarray(image)
    sweeps_budget = params.max_iterations
    one_sweep = params.with_(
        max_iterations=1, convergence_threshold=0.0, enforce_connectivity=False
    )
    centers = None
    labels = None
    frozen = None
    total_subs = 0
    active_history = []
    result = None
    for _ in range(sweeps_budget):
        result = sslic(image, one_sweep, warm_centers=centers, warm_labels=labels)
        total_subs += result.subiterations
        new_centers = result.centers
        if centers is not None:
            move = np.sqrt(
                ((new_centers[:, 3:5] - centers[:, 3:5]) ** 2).sum(axis=1)
            )
            newly_frozen = move < preemption_threshold
            frozen = newly_frozen if frozen is None else (frozen | newly_frozen)
            # Pin frozen centers to their pre-sweep values.
            new_centers[frozen] = centers[frozen]
            active_history.append(int((~frozen).sum()))
            if frozen.all():
                centers = new_centers
                labels = result.labels
                break
        else:
            active_history.append(result.n_superpixels)
        centers = new_centers
        labels = result.labels
    # Final connectivity pass on the converged labels.
    final_labels = result.labels
    if params.enforce_connectivity:
        h, w = final_labels.shape
        s = float(np.sqrt(h * w / result.n_superpixels))
        min_size = max(1, int(params.min_size_factor * s * s))
        final_labels = get_backend(params.kernel_backend).enforce_connectivity(
            final_labels, min_size, n_threads=params.n_threads
        )
    out = SegmentationResult(
        labels=final_labels.astype(np.int32),
        centers=centers,
        n_superpixels=result.n_superpixels,
        iterations=len(active_history),
        subiterations=total_subs,
        converged=bool(frozen is not None and frozen.all()),
        movement_history=result.movement_history,
        timings=result.timings,
        params=params,
    )
    out.active_history = active_history
    return out
