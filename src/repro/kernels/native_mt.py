"""The ``native-mt`` backend: the compiled kernels at any thread count.

Loads the ``_native.c`` library through :mod:`repro.kernels.native` and
calls its ``*_mt`` entry points, which split each kernel over a small
persistent pthread pool inside the shared object. One thread is the
serial case: the C side runs a width-1 call inline on the calling
thread, without touching the pool, so concurrent one-thread callers
overlap instead of taking turns. Wider calls run truly parallel in one
address space — ctypes releases the GIL for the duration of the call —
with no pickling, no shared-memory slabs and no per-frame process
overhead.

The backend keeps the name ``native-mt`` although it is the only
compiled backend: benchmark configurations and recorded runs key on it.

Bit-identity at any thread count comes from *ownership partitioning*
(see the ``_native.c`` header): each thread owns a contiguous slice of
the output — row bands for CPA, index ranges for ``lab_from_codes``
and the PPA pass, cluster ranges for ``sigma_accumulate`` — and visits
its slice in exactly the one-thread order. ``lab_from_rgb`` is the
exception to the pool: it runs ``rgb_to_lab``'s own row-band walk,
whose helper threads call single-thread C loops. Every output element is
written by exactly one thread, so no boundary ties can arise; the
cross-tile combines (the connected-components band seams and renumber,
the PPA pass's clusters that straddle two index ranges) run
sequentially. ``enforce_connectivity`` threads its component labeling
and its final relabel only: the labeling tiles row bands with per-band
run decomposition and union-by-minimal-root, so component roots — and
the canonical first-appearance renumbering — are independent of thread
count (see the CCL section in ``_native.c``), while its adjacency build
and greedy merge walk run serially.

The library compiles only what the engine runs on a clock. The
fixed-point CPA scan (``cpa_assign`` with a ``datapath``) and
code-domain sigma accumulation (``sigma_accumulate`` with
``codes_flat``) run the reference. No benchmark workload or paper
experiment reaches either: every one that uses the fixed datapath runs
it through the fused PPA pass.

Every entry takes ``n_threads``; :func:`resolve_threads` turns it into
the call's width, first match wins:

1. the ``n_threads`` argument (the engine passes the run's count,
   resolved once from ``SlicParams.n_threads``),
2. the ``REPRO_KERNEL_THREADS`` environment variable,
3. :func:`repro.kernels.usable_cores` (the CPU affinity mask, so a
   pinned process is not oversubscribed).

The result is clamped to [1, MAX_THREADS]. The width fixes how a call
splits its work, whatever threads exist: a slice whose pool worker (or
``band_walk`` helper) cannot be started runs on the calling thread.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..color.constants import D65_WHITE, LAB_EPSILON, LAB_KAPPA
from ..color.reference import (
    _gamma_lut_u8,
    band_walk,
    linear_rgb_to_xyz,
    srgb_gamma_expand,
)
from ..core.accumulators import check_sigma_args
from ..core.assignment import assign_cpa, check_cpa_args, check_ppa_args
from ..core.connectivity import check_connectivity_args
from ..core.distance import WEIGHT_FRAC_BITS
from ..types import as_float_rgb
from . import reference
from .dispatch import usable_cores
from .native import is_available, load  # noqa: F401

__all__ = [
    "is_available",
    "load",
    "resolve_threads",
    "cpa_assign",
    "ppa_assign",
    "enforce_connectivity",
    "lab_from_codes",
    "lab_from_rgb",
    "sigma_accumulate",
]

#: Hard cap, mirroring MT_MAX_THREADS in ``_native.c``.
MAX_THREADS = 64

ENV_THREADS = "REPRO_KERNEL_THREADS"


def resolve_threads(n_threads=None) -> int:
    """Resolve the effective thread count for one kernel call."""
    if n_threads is None:
        env = os.environ.get(ENV_THREADS)
        if env:
            try:
                n_threads = int(env)
            except ValueError:
                n_threads = None
    if n_threads is None:
        n_threads = usable_cores()
    return max(1, min(int(n_threads), MAX_THREADS))


# ----------------------------------------------------------------------
# Kernel entry points (KernelBackend interface)
# ----------------------------------------------------------------------

def cpa_assign(
    lab,
    centers,
    weight,
    grid_s,
    dist_buf,
    labels_buf,
    cluster_indices=None,
    datapath=None,
    compactness=None,
    codes=None,
    n_threads=None,
) -> int:
    """Row-banded CPA window scan; see ``assign_cpa`` for semantics.

    Returns the number of distinct pixels scanned. Runs the reference
    loop for the fixed datapath and for buffers other than contiguous
    float64 distances and int32 labels (the engine always passes those;
    only direct callers pass others).
    """
    ks = check_cpa_args(lab, centers, dist_buf, labels_buf, cluster_indices)
    if (
        datapath is not None
        or dist_buf.dtype != np.float64
        or labels_buf.dtype != np.int32
        or not (dist_buf.flags.c_contiguous and labels_buf.flags.c_contiguous)
    ):
        return assign_cpa(
            lab, centers, weight, grid_s, dist_buf, labels_buf,
            cluster_indices=ks, datapath=datapath,
            compactness=compactness, codes=codes,
        )
    lib = load()
    nt = resolve_threads(n_threads)
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if len(ks) == 0:
        return 0
    centers_c = np.ascontiguousarray(centers, dtype=np.float64)
    lab_c = np.ascontiguousarray(lab, dtype=np.float64)
    touched = np.zeros(h * w, dtype=np.uint8)
    lib.cpa_assign_f64_mt(
        lab_c.reshape(-1), centers_c.reshape(-1), ks, len(ks),
        float(weight), half, h, w, dist_buf.reshape(-1),
        labels_buf.reshape(-1), touched, nt,
    )
    return int(np.count_nonzero(touched))


def ppa_assign(
    pixels,
    subset_idx,
    candidates,
    centers,
    weight,
    compactness=None,
    grid_s=None,
    labels_out=None,
    n_threads=None,
):
    """One fused C pass per subiteration; see ``ppa_assign_reference``.

    Each thread takes a contiguous range of the subset and, per entry,
    picks the 9-candidate minimum, writes ``chosen`` (and ``labels_out``
    in place, when given) and adds the pixel to private sigma registers.
    Clusters whose entries straddle two ranges are then continued
    serially in entry order, so the partials are bit-identical to the
    reference at any thread count (see the PPA section in
    ``_native.c``). Returns ``(chosen, sums, counts)``.
    """
    subset, cands, labels_flat = check_ppa_args(
        pixels, subset_idx, candidates, centers, labels_out
    )
    n_clusters = len(centers)
    m = len(subset)
    chosen = np.empty(m, dtype=np.int32)
    sums = np.zeros((n_clusters, 5), dtype=np.float64)
    counts = np.zeros(n_clusters, dtype=np.int64)
    if m == 0:
        return chosen, sums, counts
    lib = load()
    nt = resolve_threads(n_threads)
    w = pixels.shape[1]
    labels_ptr = None
    if labels_flat is not None:
        labels_ptr = labels_flat.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))
    dp = pixels.datapath
    if dp is None:
        lib.ppa_assign_f64_mt(
            pixels.lab_flat.reshape(-1), pixels.tiles, subset, m, w,
            cands.reshape(-1),
            np.ascontiguousarray(centers, dtype=np.float64).reshape(-1),
            float(weight), n_clusters, chosen, labels_ptr,
            sums.reshape(-1), counts, nt,
        )
    else:
        enc = dp.encoding
        c_codes = np.ascontiguousarray(dp.encode_centers(centers))
        lib.ppa_assign_fixed_mt(
            pixels.codes_flat.reshape(-1), pixels.tiles, subset, m, w,
            cands.reshape(-1), c_codes.reshape(-1),
            dp.weight_raw(compactness, grid_s), WEIGHT_FRAC_BITS,
            dp.spatial_frac_bits, int(dp.quantize_distance),
            dp.effective_distance_shift, dp.distance_max_code,
            float(enc.l_scale), float(enc.ab_scale), float(enc.ab_offset),
            n_clusters, chosen, labels_ptr, sums.reshape(-1), counts, nt,
        )
    return chosen, sums, counts


def lab_from_codes(converter, rgb, n_threads=None):
    """Fused RGB->Lab ``(lab, codes)`` over pixel-range chunks.

    Produces both the channel codes and the decoded float64 Lab plane in
    one frame traversal — bit-identical to ``convert_codes_reference``
    followed by ``LabEncoding.decode``. Ships the converter's LUTs and
    formats into the C pixel loop.
    """
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    pwl = converter.pwl
    mat_shift = (
        converter.gamma_frac_bits + converter._matrix_fmt.frac_bits
    ) - pwl.in_fmt.frac_bits
    out_shift = (
        pwl.coeff_fmt.frac_bits + pwl.in_fmt.frac_bits
    ) - pwl.out_fmt.frac_bits
    lib = load()
    nt = resolve_threads(n_threads)
    h, w = rgb.shape[:2]
    enc = converter.encoding
    codes = np.empty((h, w, 3), dtype=np.int64)
    lab = np.empty((h, w, 3), dtype=np.float64)
    lib.lab_from_codes_u8_mt(
        rgb.reshape(-1),
        h * w,
        np.ascontiguousarray(converter.gamma_lut, dtype=np.int64),
        np.ascontiguousarray(converter.matrix_raw, dtype=np.int64).reshape(-1),
        mat_shift,
        pwl.in_fmt.raw_min, pwl.in_fmt.raw_max,
        np.ascontiguousarray(pwl.breaks_raw, dtype=np.int64),
        pwl.n_segments,
        np.ascontiguousarray(pwl.slopes_raw, dtype=np.int64),
        np.ascontiguousarray(pwl.intercepts_raw, dtype=np.int64),
        pwl.in_fmt.frac_bits,
        out_shift,
        pwl.out_fmt.raw_min, pwl.out_fmt.raw_max,
        pwl.out_fmt.frac_bits,
        int(round(enc.l_scale * (1 << 14))),
        int(round(enc.ab_scale * (1 << 14))),
        enc.ab_offset,
        enc.code_max,
        codes.reshape(-1),
        float(enc.l_scale),
        float(enc.ab_scale),
        float(enc.ab_offset),
        lab.reshape(-1),
        nt,
    )
    return lab, codes


def lab_from_rgb(rgb, n_threads=None):
    """Float sRGB -> Lab; bit-identical to ``repro.color.rgb_to_lab``.

    Runs ``rgb_to_lab``'s row-band walk on ``n_threads`` threads with a
    band body that keeps the chain's two host-dependent steps in numpy,
    with the spec's shapes — ``linear_rgb_to_xyz`` on the ``(rows, W,
    3)`` band (one BLAS product per image row) and ``np.cbrt`` on the
    contiguous XYZ/white band — and does the rest in three single-thread
    C loops: the uint8 gamma gather (float input keeps
    ``srgb_gamma_expand``), the division by the white point, and f's
    linear branch with the Lab assembly, written into the output rows.
    """
    return band_walk(rgb, _lab_band, resolve_threads(n_threads))


def _lab_band(band, out):
    lib = load()
    rows, w = band.shape[:2]
    n = rows * w
    if band.dtype == np.uint8:
        linear = np.empty((rows, w, 3), dtype=np.float64)
        lib.gamma_gather_u8(
            np.ascontiguousarray(band), n, _gamma_lut_u8(), linear
        )
    else:
        linear = srgb_gamma_expand(as_float_rgb(band))
    t = linear_rgb_to_xyz(linear)
    lib.xyz_over_white_f64(t, n, D65_WHITE)
    lib.lab_assemble_f64(t, np.cbrt(t), n, LAB_EPSILON, LAB_KAPPA, out)


def sigma_accumulate(
    labels,
    n_clusters,
    width,
    lab_flat=None,
    codes_flat=None,
    encoding=None,
    idx=None,
    n_threads=None,
):
    """Cluster-ownership-partitioned sigma accumulation.

    Returns partial ``(sums, counts)`` accumulated from zero — the
    caller folds them into its registers with ``SigmaAccumulator.fold``.
    x/y come from the flat pixel index, so no (M, 5) values matrix is
    ever materialized. Each thread owns a contiguous cluster
    range and scans every entry, accumulating only the labels it owns —
    the full one-thread addition order per register, so sums are
    bit-identical at any thread count (see the sigma section in
    ``_native.c``). Code-domain input (``codes_flat``) runs the
    reference.
    """
    if codes_flat is not None:
        return reference.sigma_accumulate(
            labels, n_clusters, width, lab_flat=lab_flat,
            codes_flat=codes_flat, encoding=encoding, idx=idx,
        )
    labels, idx = check_sigma_args(
        labels, n_clusters, width, idx, lab_flat, codes_flat
    )
    lib = load()
    nt = resolve_threads(n_threads)
    labels_c = np.ascontiguousarray(labels, dtype=np.int32)
    m = len(labels_c)
    sums = np.zeros((n_clusters, 5), dtype=np.float64)
    counts = np.zeros(n_clusters, dtype=np.int64)
    if m == 0 or n_clusters == 0:
        return sums, counts
    idx_ptr = None
    if idx is not None:
        idx_c = np.ascontiguousarray(idx, dtype=np.int64)
        idx_ptr = idx_c.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))
    lab_c = np.ascontiguousarray(lab_flat, dtype=np.float64)
    lib.sigma_acc_f64_mt(
        lab_c.reshape(-1), idx_ptr, labels_c, m, width,
        n_clusters, sums.reshape(-1), counts, nt,
    )
    return sums, counts


def enforce_connectivity(labels, min_size, n_threads=None):
    """The whole connectivity pass in one C call; see
    ``enforce_connectivity_reference``.

    ``_native.c`` labels the components (row-banded over the pool),
    takes their sizes and first-pixel labels, builds the small
    components' border-weighted adjacency, sorts them by size, runs the
    greedy merge walk and relabels every pixel (row-banded) — no numpy
    between the steps. Bit-identical to the reference at any thread
    count. Maps of 2^31 pixels or more, beyond the int32 component ids,
    fall back to the reference.
    """
    labels, min_size = check_connectivity_args(labels, min_size)
    if min_size <= 1:
        return labels.copy()
    h, w = labels.shape
    if h * w >= 2**31:
        return reference.enforce_connectivity(labels, min_size)
    lib = load()
    nt = resolve_threads(n_threads)
    out = np.empty((h, w), dtype=np.int32)
    comps = np.empty(h * w, dtype=np.int32)
    parent = np.empty(h * w, dtype=np.int64)
    status = lib.enforce_connectivity_i32_mt(
        labels.reshape(-1), h, w, min_size, out.reshape(-1), comps, parent,
        nt,
    )
    if status != 0:
        raise MemoryError(
            f"enforce_connectivity: allocation failed on a {h}x{w} map"
        )
    return out

