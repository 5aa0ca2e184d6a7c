"""The ``vectorized`` backend: batched pure-numpy kernels.

Portable optimized backend — no compiler required. The kernels:

* :func:`cpa_assign` — processes a whole center subset per call. Window
  pixels for a chunk of centers are gathered with clipped index arrays,
  distances computed in one batch, and the per-pixel winner selected with
  a two-pass ``np.minimum.at`` scatter-argmin that reproduces the
  reference's sequential tie rule exactly (first center in scan order to
  reach the minimum keeps the pixel). Scratch buffers are preallocated
  per process and reused across sweeps.
* :func:`ppa_assign` — the 9-candidate evaluation fused over candidate
  slots: per-slot ``(M,)`` temporaries and a running minimum instead of
  the reference's ``(M, 9, 3)`` intermediates.
* :func:`connected_components` — union-find replaced by iterative
  min-label propagation with pointer jumping; no Python edge loop.
* :func:`lab_from_codes` — the fixed-point RGB->Lab pipeline and its
  decode run once per *unique* 24-bit color and gathered back,
  exploiting that real frames use a small fraction of the color cube.
* :func:`merge_small` — the greedy small-component merge walk with the
  per-component neighbor scan batched (vectorized root resolution and
  ``np.lexsort`` best-neighbor selection).
* ``contingency_table`` / ``chamfer_distance`` — the numpy reference
  implementations are already batched; aliased as-is.

Every arithmetic expression mirrors the reference implementations
operation for operation (same dtypes, same reduction order), so labels
*and* distance buffers come out bit-identical — the property tests in
``tests/test_kernels.py`` and ``benchmarks/bench_kernels.py`` enforce it.
"""

from __future__ import annotations

import numpy as np

from ..color.hw_convert import convert_codes_reference
from ..core.assignment import _PPA_CHUNK, PixelArrays
from ..core.connectivity import (
    _min_propagate,
    _resolve_roots,
    _run_ids,
    _UnionFind,
)
from ..core.distance import WEIGHT_FRAC_BITS, FixedDatapath
from ..metrics.boundaries import (  # noqa: F401 — numpy-bound, reference is optimal
    chamfer_distance_reference as chamfer_distance,
)
from ..metrics.boundaries import (  # noqa: F401
    contingency_table_reference as contingency_table,
)
from ..types import validate_label_map

__all__ = [
    "cpa_assign",
    "ppa_assign",
    "connected_components",
    "lab_from_codes",
    "sigma_accumulate",
    "merge_small",
    "contingency_table",
    "chamfer_distance",
    "is_available",
]

#: Cap on window entries materialized per CPA chunk (entry = one
#: center/pixel pair); bounds peak memory at ~160 MB of temporaries.
_MAX_ENTRIES = 1 << 22

#: Scan-position sentinel, larger than any entry index.
_POS_SENTINEL = np.int64(1) << 62


def is_available() -> bool:
    return True


#: Per-process reusable CPA scratch, keyed by ``(n_pixels, fixed)``.
#: Checkout/checkin protocol: buffers are popped at sweep start and only
#: stored back after a clean finish, so an exception mid-sweep can never
#: leave a dirty buffer for the next sweep to trust. The chunk loop
#: restores ``gmin``/``first`` to their sentinel state as it goes, so
#: checkin needs no re-initialization; only ``touched`` is cleared on
#: checkout.
_CPA_SCRATCH: dict = {}


def _cpa_scratch_checkout(n: int, fixed: bool, sentinel):
    bufs = _CPA_SCRATCH.pop((n, fixed), None)
    if bufs is None:
        gmin = np.full(n, sentinel, dtype=np.int64 if fixed else np.float64)
        first = np.full(n, _POS_SENTINEL, dtype=np.int64)
        touched = np.zeros(n, dtype=bool)
        return gmin, first, touched
    bufs[2].fill(False)
    return bufs


def _cpa_scratch_checkin(n: int, fixed: bool, bufs) -> None:
    if len(_CPA_SCRATCH) >= 4:  # bound growth across geometries
        _CPA_SCRATCH.clear()
    _CPA_SCRATCH[(n, fixed)] = bufs


def cpa_assign(
    lab: np.ndarray,
    centers: np.ndarray,
    weight: float,
    grid_s: float,
    dist_buf: np.ndarray,
    labels_buf: np.ndarray,
    cluster_indices: np.ndarray | None = None,
    datapath: FixedDatapath = None,
    compactness: float | None = None,
    codes: np.ndarray | None = None,
) -> int:
    """Batched CPA window scan; same contract as ``assign_cpa``.

    Returns the number of distinct pixels scanned at least once.
    """
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    if cluster_indices is None:
        cluster_indices = np.arange(len(centers))
    ks = np.asarray(cluster_indices, dtype=np.int64)
    if len(ks) == 0:
        return 0
    if datapath is not None:
        c_all = datapath.encode_centers(centers)
        weight_raw = datapath.weight_raw(compactness, grid_s)
        sf = datapath.spatial_frac_bits
        codes_flat = np.asarray(codes, dtype=np.int64).reshape(-1, 3)
        sentinel = np.iinfo(np.int64).max
    else:
        lab_flat = lab.reshape(-1, 3)
        sentinel = np.inf
    gmin, first, touched = _cpa_scratch_checkout(
        h * w, datapath is not None, sentinel
    )
    dist_flat = dist_buf.reshape(-1)
    labels_flat = labels_buf.reshape(-1)
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    win = 2 * half + 1
    chunk = max(1, _MAX_ENTRIES // (win * win))
    for c0 in range(0, len(ks), chunk):
        kk = ks[c0 : c0 + chunk]
        cx = centers[kk, 3]
        cy = centers[kk, 4]
        fx = np.floor(cx).astype(np.int64)
        fy = np.floor(cy).astype(np.int64)
        xs = fx[:, None] + offsets[None, :]  # (C, win)
        ys = fy[:, None] + offsets[None, :]
        vx = (xs >= 0) & (xs < w)
        vy = (ys >= 0) & (ys < h)
        xc = np.clip(xs, 0, w - 1)
        yc = np.clip(ys, 0, h - 1)
        flat = yc[:, :, None] * w + xc[:, None, :]  # (C, win, win)
        valid = (vy[:, :, None] & vx[:, None, :]).ravel()
        if datapath is None:
            window = lab_flat[flat]  # (C, win, win, 3)
            dc2 = ((window - centers[kk, 0:3][:, None, None, :]) ** 2).sum(
                axis=-1
            )
            dx2 = (xs - cx[:, None]) ** 2
            dy2 = (ys - cy[:, None]) ** 2
            d2 = dc2 + weight * (dy2[:, :, None] + dx2[:, None, :])
        else:
            window = codes_flat[flat]
            dlab = window - c_all[kk, 0:3][:, None, None, :]
            dc2 = (dlab * dlab).sum(axis=-1)
            dxy_x = (xs << sf) - c_all[kk, 3][:, None]
            dxy_y = (ys << sf) - c_all[kk, 4][:, None]
            ds2 = (
                dxy_x[:, None, :] * dxy_x[:, None, :]
                + dxy_y[:, :, None] * dxy_y[:, :, None]
            ) >> (2 * sf)
            d2 = dc2 + ((weight_raw * ds2) >> WEIGHT_FRAC_BITS)
            if datapath.quantize_distance:
                d2 = np.minimum(
                    d2 >> datapath.effective_distance_shift,
                    datapath.distance_max_code,
                )
        flatv = flat.ravel()
        d2v = d2.ravel()
        kv = np.broadcast_to(kk[:, None, None], flat.shape).ravel()
        if not valid.all():
            flatv = flatv[valid]
            d2v = d2v[valid]
            kv = kv[valid]
        # Two-pass scatter-argmin. Entries are in center scan order, so
        # the minimal entry position among the per-pixel minima is the
        # first center to reach that minimum — the reference tie rule.
        np.minimum.at(gmin, flatv, d2v)
        pos = np.where(
            d2v == gmin[flatv],
            np.arange(len(d2v), dtype=np.int64),
            _POS_SENTINEL,
        )
        np.minimum.at(first, flatv, pos)
        pix = np.nonzero(first != _POS_SENTINEL)[0]
        wsel = first[pix]
        bd = d2v[wsel]
        bk = kv[wsel]
        improve = bd < dist_flat[pix]
        upix = pix[improve]
        dist_flat[upix] = bd[improve]
        labels_flat[upix] = bk[improve]
        touched[pix] = True
        # Reset only the entries this chunk dirtied.
        gmin[pix] = sentinel
        first[pix] = _POS_SENTINEL
    n_touched = int(np.count_nonzero(touched))
    _cpa_scratch_checkin(h * w, datapath is not None, (gmin, first, touched))
    return n_touched


def ppa_assign(
    pixels: PixelArrays,
    subset_idx: np.ndarray,
    candidates: np.ndarray,
    centers: np.ndarray,
    weight: float,
    compactness: float | None = None,
    grid_s: float | None = None,
) -> np.ndarray:
    """Fused PPA evaluation; same contract as ``assign_ppa``."""
    dp = pixels.datapath
    if dp is not None:
        c_codes_all = dp.encode_centers(centers)
        weight_raw = dp.weight_raw(compactness, grid_s)
        sf = dp.spatial_frac_bits
    out = np.empty(len(subset_idx), dtype=np.int32)
    for start in range(0, len(subset_idx), _PPA_CHUNK):
        idx = subset_idx[start : start + _PPA_CHUNK]
        cand = candidates[pixels.tile_flat[idx]]  # (M, 9)
        if dp is None:
            px_lab = pixels.lab_flat[idx]
            px_x = pixels.x_flat[idx].astype(np.float64)
            px_y = pixels.y_flat[idx].astype(np.float64)
        else:
            px_codes = pixels.codes_flat[idx]
            px_xr = pixels.x_flat[idx] << sf
            px_yr = pixels.y_flat[idx] << sf
        best_d = None
        best_k = None
        for s in range(9):
            ck = cand[:, s]
            if dp is None:
                c = centers[ck]
                dl = px_lab[:, 0] - c[:, 0]
                da = px_lab[:, 1] - c[:, 1]
                db = px_lab[:, 2] - c[:, 2]
                dc2 = (dl * dl + da * da) + db * db
                dx = px_x - c[:, 3]
                dy = px_y - c[:, 4]
                d2 = dc2 + weight * (dx * dx + dy * dy)
            else:
                c = c_codes_all[ck]
                dl = px_codes[:, 0] - c[:, 0]
                da = px_codes[:, 1] - c[:, 1]
                db = px_codes[:, 2] - c[:, 2]
                dc2 = (dl * dl + da * da) + db * db
                dxv = px_xr - c[:, 3]
                dyv = px_yr - c[:, 4]
                ds2 = (dxv * dxv + dyv * dyv) >> (2 * sf)
                d2 = dc2 + ((weight_raw * ds2) >> WEIGHT_FRAC_BITS)
                if dp.quantize_distance:
                    d2 = np.minimum(
                        d2 >> dp.effective_distance_shift, dp.distance_max_code
                    )
            if best_d is None:
                best_d = d2
                best_k = ck.astype(np.int32)
            else:
                # Strict < keeps the lowest winning slot, like np.argmin.
                better = d2 < best_d
                best_d[better] = d2[better]
                best_k[better] = ck[better]
        out[start : start + len(idx)] = best_k
    return out


def connected_components(labels: np.ndarray):
    """4-connected components via iterative min-label propagation.

    Same run decomposition and dense first-appearance renumbering as the
    reference; the union-find edge loop is replaced by repeated
    minimum-scatter plus pointer jumping, which converges in
    O(log n_runs) rounds.
    """
    labels = validate_label_map(labels)
    run_id, n_runs = _run_ids(labels)
    parent = np.arange(n_runs, dtype=np.int64)
    same_up = labels[1:, :] == labels[:-1, :]
    if same_up.any():
        a = run_id[1:, :][same_up].astype(np.int64)
        b = run_id[:-1, :][same_up].astype(np.int64)
        parent = _min_propagate(parent, a, b)
    # parent[i] is now each run's minimal component run id — the same
    # canonical representative the reference renumbers by.
    uniq, dense = np.unique(parent, return_inverse=True)
    components = dense[run_id]
    return components.astype(np.int32), int(len(uniq))


def lab_from_codes(converter, rgb: np.ndarray):
    """Fused RGB->Lab ``(lab, codes)`` via the unique-color gather.

    The conversion is a pure per-pixel function of the RGB triple, so it
    is run once per *unique* 24-bit color (typically a few thousand for
    a frame, vs. hundreds of thousands of pixels) and gathered back.
    Decoding is elementwise, so decoding the unique codes and gathering
    is bit-identical to decoding the gathered full-frame codes.
    """
    rgb = np.asarray(rgb)
    h, w = rgb.shape[:2]
    packed = (
        (rgb[..., 0].astype(np.int64) << 16)
        | (rgb[..., 1].astype(np.int64) << 8)
        | rgb[..., 2].astype(np.int64)
    ).ravel()
    uniq, inverse = np.unique(packed, return_inverse=True)
    uc = np.empty((1, len(uniq), 3), dtype=np.uint8)
    uc[0, :, 0] = (uniq >> 16) & 0xFF
    uc[0, :, 1] = (uniq >> 8) & 0xFF
    uc[0, :, 2] = uniq & 0xFF
    codes_u = convert_codes_reference(converter, uc)[0]  # (U, 3) int64
    lab_u = converter.encoding.decode(codes_u)
    return (
        lab_u[inverse].reshape(h, w, 3),
        codes_u[inverse].reshape(h, w, 3),
    )


def sigma_accumulate(
    labels,
    n_clusters,
    width,
    lab_flat=None,
    codes_flat=None,
    encoding=None,
    idx=None,
):
    """Sigma partials via per-column bincounts.

    Same contract and results as ``sigma_accumulate_reference``, but the
    (M, 5) values matrix is never materialized: each field's weights go
    straight into its own ``np.bincount`` (the same fold the reference
    performs column by column), and x/y weights come directly from the
    flat indices.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_clusters).astype(
        np.int64, copy=False
    )
    if idx is None:
        # Full-frame batch: read the source rows in place (no gather
        # copy — identical values, so identical bincount folds).
        flat = np.arange(len(labels), dtype=np.int64)
        if codes_flat is not None:
            c = np.asarray(codes_flat)[: len(labels)].astype(np.float64)
        else:
            lf = np.asarray(lab_flat, dtype=np.float64)[: len(labels)]
    else:
        flat = np.asarray(idx, dtype=np.int64)
        if codes_flat is not None:
            c = np.asarray(codes_flat)[flat].astype(np.float64)
        else:
            lf = np.asarray(lab_flat, dtype=np.float64)[flat]
    if codes_flat is not None:
        cols = (
            c[:, 0] / encoding.l_scale,
            (c[:, 1] - encoding.ab_offset) / encoding.ab_scale,
            (c[:, 2] - encoding.ab_offset) / encoding.ab_scale,
        )
    else:
        cols = (lf[:, 0], lf[:, 1], lf[:, 2])
    cols = cols + (
        (flat % width).astype(np.float64),
        (flat // width).astype(np.float64),
    )
    sums = np.empty((n_clusters, 5), dtype=np.float64)
    for f, col in enumerate(cols):
        sums[:, f] = np.bincount(labels, weights=col, minlength=n_clusters)
    return sums, counts


def merge_small(
    sizes: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    dst: np.ndarray,
    border_len: np.ndarray,
    min_size: int,
    order: np.ndarray,
) -> np.ndarray:
    """Greedy small-component merge walk; same contract as the reference.

    The per-component neighbor scan is batched: root resolution via
    vectorized pointer jumping and best-neighbor selection via
    ``np.lexsort`` (longest border, ties to lowest component id — the
    reference tie rule exactly).
    """
    n_comps = len(sizes)
    uf = _UnionFind(n_comps)
    merged_size = sizes.astype(np.int64).copy()
    for c in order:
        c = int(c)
        root_c = uf.find(c)
        if merged_size[root_c] >= min_size:
            continue
        lo, hi = int(starts[c]), int(ends[c])
        if lo == hi:
            continue  # isolated (whole image is one label)
        neigh = dst[lo:hi]
        weights = border_len[lo:hi]
        # Exclude neighbors already merged into the same root.
        roots = _resolve_roots(uf.parent, neigh)
        valid = roots != root_c
        if not valid.any():
            continue
        vneigh = neigh[valid]
        vweights = weights[valid]
        vroots = roots[valid]
        best = np.lexsort((vneigh, -vweights))[0]
        target_root = int(vroots[best])
        uf.union_into(root_c, target_root)
        new_root = uf.find(target_root)
        merged_size[new_root] = merged_size[root_c] + merged_size[target_root]
    return _resolve_roots(uf.parent, np.arange(n_comps, dtype=np.int64))
