"""Assignment passes: CPA window scan and PPA 9-candidate evaluation.

Two iteration orders compute the same k-means-style assignment:

* :func:`assign_cpa` — the original SLIC order (Figure 1a): for each
  center, scan a 2S x 2S window and keep per-pixel running minima in two
  image-sized buffers ("Two memory buffers (as large as the image) are
  required to store the minimum distance and the corresponding SP").
* :func:`assign_ppa` — the accelerator order (Figure 1b): for each pixel,
  evaluate the 9 statically-assigned candidate centers and take the 9:1
  minimum. No distance buffer is needed, and any pixel subset can be
  processed independently — which is what makes S-SLIC subsampling cheap.

Both support the float64 reference datapath and the quantized
:class:`~repro.core.distance.FixedDatapath`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import ConfigurationError
from ..types import check_index_range
from .accumulators import sigma_accumulate_reference
from .distance import FixedDatapath, pairwise_d2_float

__all__ = [
    "PixelArrays",
    "assign_ppa",
    "assign_cpa",
    "check_cpa_args",
    "check_ppa_args",
    "ppa_assign_reference",
]

#: Chunk size (pixels) for the PPA vectorized pass; bounds peak memory at
#: roughly chunk * 9 * 5 float64s (~95 MB at the default).
_PPA_CHUNK = 1 << 18


class PixelArrays:
    """Flat per-pixel views of one frame for the PPA kernels.

    Holds the Lab image (float and, when a fixed datapath is configured,
    code domain) and the frame's int32 tile map. ``lab_flat`` and
    ``codes_flat`` are views, not copies, when the inputs are already
    C-contiguous float64 / int64, and an int32 tile map is kept as given,
    so preparing a frame costs one pass (the tile-range check). The
    integer coordinate arrays ``x_flat``/``y_flat`` and the int64
    ``tile_flat`` are built on first use: only the reference reads
    them, the compiled kernels derive x/y from the flat pixel index.
    """

    def __init__(
        self,
        lab: np.ndarray,
        tile_of_pixel: np.ndarray,
        datapath: FixedDatapath = None,
        codes: np.ndarray | None = None,
    ):
        h, w = lab.shape[:2]
        self.shape = (h, w)
        self.lab_flat = np.ascontiguousarray(lab, dtype=np.float64).reshape(
            -1, 3
        )
        tiles = np.ascontiguousarray(tile_of_pixel, dtype=np.int32)
        if tiles.size != h * w:
            raise ConfigurationError(
                f"tile map must have {h * w} entries for a {h}x{w} frame, "
                f"got shape {tiles.shape}"
            )
        self.tiles = tiles.reshape(-1)
        # Upper bound on the tile ids, for the per-call candidate-row
        # check; a negative id reads as a huge unsigned one.
        self.tile_bound = (
            int(self.tiles.view(np.uint32).max()) + 1 if h * w else 0
        )
        self.datapath = datapath
        if datapath is not None:
            if codes is None:
                codes = datapath.encode_image(lab)
            self.codes_flat = np.ascontiguousarray(
                codes, dtype=np.int64
            ).reshape(-1, 3)
        else:
            self.codes_flat = None

    @property
    def n_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    @cached_property
    def x_flat(self) -> np.ndarray:
        h, w = self.shape
        return np.tile(np.arange(w, dtype=np.int64), h)

    @cached_property
    def y_flat(self) -> np.ndarray:
        h, w = self.shape
        return np.repeat(np.arange(h, dtype=np.int64), w)

    @cached_property
    def tile_flat(self) -> np.ndarray:
        return self.tiles.astype(np.int64)

    @property
    def sigma_source(self) -> dict:
        """The ``sigma_accumulate`` source arguments for this frame.

        The fixed datapath accumulates decoded codes (the codes plus
        their encoding); the float path accumulates the Lab rows
        directly.
        """
        if self.datapath is not None:
            return {
                "codes_flat": self.codes_flat,
                "encoding": self.datapath.encoding,
            }
        return {"lab_flat": self.lab_flat}


def _check_centers(centers) -> np.ndarray:
    """Centers must be a finite (K, 5) array; returns it as an array."""
    centers = np.asarray(centers)
    if centers.ndim != 2 or centers.shape[1] != 5:
        raise ConfigurationError(
            f"centers must be (K, 5), got shape {centers.shape}"
        )
    if not np.isfinite(centers).all():
        raise ConfigurationError("centers must be finite (NaN or inf found)")
    return centers


def check_cpa_args(lab, centers, dist_buf, labels_buf, cluster_indices=None):
    """Validate one ``cpa_assign`` call before any backend scans with it.

    Every backend runs this first, so all of them reject the same bad
    input with :class:`ConfigurationError`, and the compiled scan never
    reads a center it was not given or writes outside the frame: ``lab``
    must be an (H, W, 3) image, centers a finite (K, 5) array (a NaN
    position has no window), cluster indices a 1-D vector in ``[0, K)``,
    and ``dist_buf`` and ``labels_buf`` writable (H, W) arrays, the
    labels integer-typed.

    Returns the cluster indices to scan: all K in order when
    ``cluster_indices`` is ``None``.
    """
    if lab.ndim != 3 or lab.shape[2] != 3:
        raise ConfigurationError(f"lab must be (H, W, 3), got shape {lab.shape}")
    h, w = lab.shape[:2]
    centers = _check_centers(centers)
    for what, buf in (("dist_buf", dist_buf), ("labels_buf", labels_buf)):
        if not (
            isinstance(buf, np.ndarray)
            and buf.shape == (h, w)
            and buf.flags.writeable
        ):
            raise ConfigurationError(
                f"{what} must be a writable ({h}, {w}) array, got shape "
                f"{np.shape(buf)}"
            )
    if not np.issubdtype(labels_buf.dtype, np.integer):
        raise ConfigurationError(
            f"labels_buf must be integer-typed, got dtype {labels_buf.dtype}"
        )
    if cluster_indices is None:
        return np.arange(len(centers))
    ks = check_index_range(cluster_indices, len(centers), "cluster indices")
    if ks.ndim != 1:
        raise ConfigurationError(
            f"cluster indices must be 1-D, got shape {ks.shape}"
        )
    return ks


def check_ppa_args(pixels, subset_idx, candidates, centers, labels_out=None):
    """Validate one ``ppa_assign`` call before any backend indexes with it.

    Every backend runs this first, so all of them reject the same bad
    input with :class:`ConfigurationError` — and the compiled kernels
    never see an index they would dereference out of bounds: subset
    indices must lie in ``[0, H*W)``, candidates in ``[0, K)``, the tile
    map in ``[0, T)`` for ``T`` candidate rows, and ``labels_out``, when
    given, must be a C-contiguous int32 map of ``H*W`` entries (it is
    written in place). Centers must be finite: a NaN distance is the
    first minimum for ``np.argmin`` but never wins a strict ``<``, so the
    backends would disagree on it.

    Returns ``(subset, candidates, labels_flat)``: the subset as a
    contiguous int64 vector, the (T, 9) candidates as contiguous int32,
    and a flat view of ``labels_out`` (or ``None``).
    """
    n_pixels = pixels.n_pixels
    centers = _check_centers(centers)
    subset = check_index_range(subset_idx, n_pixels, "subset indices")
    if subset.ndim != 1:
        raise ConfigurationError(
            f"subset indices must be 1-D, got shape {subset.shape}"
        )
    subset = np.ascontiguousarray(subset, dtype=np.int64)
    cands = check_index_range(candidates, len(centers), "candidates")
    if cands.ndim != 2 or cands.shape[1] != 9:
        raise ConfigurationError(
            f"candidates must be (T, 9), got shape {cands.shape}"
        )
    if pixels.tile_bound > len(cands):
        raise ConfigurationError(
            f"tile map ids must be in [0, {len(cands)}): one candidate row "
            f"per tile"
        )
    cands = np.ascontiguousarray(cands, dtype=np.int32)
    labels_flat = None
    if labels_out is not None:
        if not (
            isinstance(labels_out, np.ndarray)
            and labels_out.dtype == np.int32
            and labels_out.flags.c_contiguous
            and labels_out.flags.writeable
            and labels_out.size == n_pixels
        ):
            raise ConfigurationError(
                f"labels_out must be a writable C-contiguous int32 array of "
                f"{n_pixels} entries"
            )
        labels_flat = labels_out.reshape(-1)
    return subset, cands, labels_flat


def ppa_assign_reference(
    pixels: PixelArrays,
    subset_idx: np.ndarray,
    candidates: np.ndarray,
    centers: np.ndarray,
    weight: float,
    compactness: float | None = None,
    grid_s: float | None = None,
    labels_out: np.ndarray | None = None,
    n_threads=None,
):
    """Canonical form of the fused ``ppa_assign`` kernel contract entry.

    One PPA sub-iteration as the Cluster Update Unit runs it: assign the
    subset (:func:`assign_ppa`), write the chosen labels into
    ``labels_out`` (the frame's label map, when given), and accumulate the
    subset's sigma partials (:func:`sigma_accumulate_reference` over the
    chosen labels, in subset order). The spec runs serially;
    ``n_threads`` is accepted for the kernel contract and ignored.

    Returns ``(chosen, sums, counts)``: the (M,) int32 chosen clusters in
    subset order and the zero-based (K, 5) float64 / (K,) int64 partials
    that :meth:`SigmaAccumulator.fold` adds to the registers.
    """
    subset, cands, labels_flat = check_ppa_args(
        pixels, subset_idx, candidates, centers, labels_out
    )
    chosen = assign_ppa(
        pixels, subset, cands, centers, weight, compactness, grid_s
    )
    if labels_flat is not None:
        labels_flat[subset] = chosen
    sums, counts = sigma_accumulate_reference(
        chosen, len(centers), pixels.shape[1], idx=subset,
        **pixels.sigma_source,
    )
    return chosen, sums, counts


def assign_ppa(
    pixels: PixelArrays,
    subset_idx: np.ndarray,
    candidates: np.ndarray,
    centers: np.ndarray,
    weight: float,
    compactness: float | None = None,
    grid_s: float | None = None,
) -> np.ndarray:
    """PPA assignment for the pixels in ``subset_idx``.

    Parameters
    ----------
    pixels:
        Prepared :class:`PixelArrays`.
    subset_idx:
        Flat indices of the pixels to (re)assign this sub-iteration.
    candidates:
        (T, 9) candidate cluster indices per tile.
    centers:
        (K, 5) float centers.
    weight:
        Float spatial weight ``m^2/S^2`` (reference datapath).
    compactness, grid_s:
        Needed to derive the fixed-point weight when a
        :class:`FixedDatapath` is configured.

    Returns the chosen cluster index for each subset pixel, in subset
    order. Ties resolve to the lowest candidate slot — the deterministic
    behaviour of the hardware 9:1 minimum tree.
    """
    dp = pixels.datapath
    if dp is not None:
        c_codes_all = dp.encode_centers(centers)
        weight_raw = dp.weight_raw(compactness, grid_s)
    out = np.empty(len(subset_idx), dtype=np.int32)
    for start in range(0, len(subset_idx), _PPA_CHUNK):
        idx = subset_idx[start : start + _PPA_CHUNK]
        cand = candidates[pixels.tile_flat[idx]]  # (M, 9)
        if dp is None:
            px_lab = pixels.lab_flat[idx][:, None, :]  # (M, 1, 3)
            px_xy = np.stack([pixels.x_flat[idx], pixels.y_flat[idx]], axis=1)[
                :, None, :
            ].astype(np.float64)
            c_lab = centers[cand, 0:3]  # (M, 9, 3)
            c_xy = centers[cand, 3:5]
            d2 = pairwise_d2_float(px_lab, px_xy, c_lab, c_xy, weight)
        else:
            px_codes = pixels.codes_flat[idx][:, None, :]
            px_xy = np.stack([pixels.x_flat[idx], pixels.y_flat[idx]], axis=1)[
                :, None, :
            ]
            c_codes = c_codes_all[cand, 0:3]
            c_xy_raw = c_codes_all[cand, 3:5]
            d2 = dp.pairwise_d2(px_codes, px_xy, c_codes, c_xy_raw, weight_raw)
        best = np.argmin(d2, axis=1)  # first minimum wins, like the hw tree
        out[start : start + len(idx)] = cand[np.arange(len(idx)), best]
    return out


def assign_cpa(
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
    n_threads=None,
) -> int:
    """CPA assignment: scan a 2S x 2S window per center, updating the
    running-minimum buffers in place.

    The window is the paper's 2S x 2S region: ``ceil(S)`` pixels each
    side of the center's integer position.

    ``dist_buf`` (float64 or int64 (H, W), pre-filled with +inf / a large
    sentinel) and ``labels_buf`` (int32 (H, W)) are the paper's two
    image-sized memory buffers. ``cluster_indices`` restricts the scan to a
    subset of centers — the CPA flavour of S-SLIC; ``None`` scans all.

    In fixed mode pass ``codes`` (the encoded image) and ``compactness``.

    Returns the number of distinct pixels scanned at least once (windows
    overlap, so this is less than the summed window areas).

    This is the ``cpa_assign`` spec. It runs serially; ``n_threads`` is
    accepted for the kernel contract and ignored. Bad arguments raise
    :class:`ConfigurationError` (:func:`check_cpa_args`).
    """
    cluster_indices = check_cpa_args(
        lab, centers, dist_buf, labels_buf, cluster_indices
    )
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    if datapath is not None:
        c_all = datapath.encode_centers(centers)
        weight_raw = datapath.weight_raw(compactness, grid_s)
        sf = datapath.spatial_frac_bits
    touched = np.zeros((h, w), dtype=bool)
    for k in cluster_indices:
        cx, cy = centers[k, 3], centers[k, 4]
        x0 = max(0, int(np.floor(cx)) - half)
        x1 = min(w, int(np.floor(cx)) + half + 1)
        y0 = max(0, int(np.floor(cy)) - half)
        y1 = min(h, int(np.floor(cy)) + half + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        if datapath is None:
            window = lab[y0:y1, x0:x1, :]
            dc2 = ((window - centers[k, 0:3]) ** 2).sum(axis=-1)
            ds2 = (xx - cx) ** 2 + (yy - cy) ** 2
            d2 = dc2 + weight * ds2
        else:
            window = codes[y0:y1, x0:x1, :]
            dlab = window - c_all[k, 0:3]
            dc2 = (dlab * dlab).sum(axis=-1)
            dxy_x = (xx.astype(np.int64) << sf) - c_all[k, 3]
            dxy_y = (yy.astype(np.int64) << sf) - c_all[k, 4]
            ds2 = (dxy_x * dxy_x + dxy_y * dxy_y) >> (2 * sf)
            d2 = dc2 + ((weight_raw * ds2) >> 12)
            if datapath.quantize_distance:
                d2 = np.minimum(
                    d2 >> datapath.effective_distance_shift, datapath.distance_max_code
                )
        sub_d = dist_buf[y0:y1, x0:x1]
        sub_l = labels_buf[y0:y1, x0:x1]
        better = d2 < sub_d
        sub_d[better] = d2[better]
        sub_l[better] = k
        touched[y0:y1, x0:x1] = True
    return int(np.count_nonzero(touched))
