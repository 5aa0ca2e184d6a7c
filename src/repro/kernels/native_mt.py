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
the output — row bands for CPA, index ranges for PPA and
``lab_from_codes``, cluster ranges for ``sigma_accumulate``, a private
histogram for ``contingency_table`` — and visits its slice in exactly
the one-thread order. Every output element is written by exactly one
thread, so no boundary ties can arise; the cross-tile combines (the
contingency stitch, the connected-components band seams and renumber)
run sequentially. ``connected_components`` tiles row bands with
per-band run decomposition and union-by-minimal-root, so component
roots — and the canonical first-appearance renumbering — are
independent of thread count (see the CCL section in ``_native.c``).
The inherently sequential kernels (``merge_small``'s greedy walk, the
raster-ordered chamfer sweeps) have no threaded form and come from
:mod:`repro.kernels.native`.

Thread-count resolution, per call site, first match wins:

1. an explicit ``n_threads=`` keyword (direct callers),
2. the ambient :func:`thread_context` (how ``SlicParams.n_threads``
   reaches kernels dispatched by backend *name* deep in the engine —
   a :class:`contextvars.ContextVar`, so concurrent engines in one
   process each see their own setting),
3. the ``REPRO_KERNEL_THREADS`` environment variable,
4. :func:`repro.kernels.usable_cores` (the CPU affinity mask, so a
   pinned process is not oversubscribed).

The result is clamped to [1, MAX_THREADS]; the C pool degrades
gracefully if thread spawn fails (kernels see the width that exists).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os

import numpy as np

from ..core.distance import WEIGHT_FRAC_BITS
from ..types import validate_label_map
from .dispatch import usable_cores
from .native import chamfer_distance, is_available, load, merge_small  # noqa: F401

__all__ = [
    "is_available",
    "load",
    "resolve_threads",
    "thread_context",
    "cpa_assign",
    "ppa_assign",
    "connected_components",
    "lab_from_codes",
    "sigma_accumulate",
    "merge_small",
    "contingency_table",
    "chamfer_distance",
]

#: Hard cap, mirroring MT_MAX_THREADS in ``_native.c``.
MAX_THREADS = 64

ENV_THREADS = "REPRO_KERNEL_THREADS"

#: Ambient per-context thread count (None = fall through to env/cores).
_ambient: contextvars.ContextVar = contextvars.ContextVar(
    "repro_kernel_threads", default=None
)


def resolve_threads(n_threads=None) -> int:
    """Resolve the effective thread count for one kernel call."""
    if n_threads is None:
        n_threads = _ambient.get()
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


@contextlib.contextmanager
def thread_context(n_threads):
    """Pin the ambient thread count for the calling context.

    Context-local, not process-global: two engines running concurrently
    in different threads (or asyncio tasks) each keep their own value.
    ``None`` simply defers to the env/core-count fallbacks.
    """
    token = _ambient.set(None if n_threads is None else int(n_threads))
    try:
        yield
    finally:
        _ambient.reset(token)


# ----------------------------------------------------------------------
# Kernel entry points (KernelBackend interface)
# ----------------------------------------------------------------------

#: Per-process reusable ``touched`` masks for the CPA kernels, keyed by
#: pixel count — the same checkout/checkin protocol as the vectorized
#: backend's CPA scratch (buffers are popped while in use, so concurrent
#: engines race harmlessly to fresh allocations).
_TOUCHED_POOL: dict = {}


def _touched_checkout(n: int):
    buf = _TOUCHED_POOL.pop(n, None)
    if buf is None:
        return np.zeros(n, dtype=np.uint8)
    buf.fill(0)
    return buf


def _touched_checkin(n: int, buf) -> None:
    if len(_TOUCHED_POOL) >= 4:  # bound growth across geometries
        _TOUCHED_POOL.clear()
    _TOUCHED_POOL[n] = buf


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

    Returns the number of distinct pixels scanned. Falls back to the
    vectorized backend for non-float64 distance buffers (the engine
    always passes float64; only direct callers pass int64 buffers).
    """
    if dist_buf.dtype != np.float64 or not (
        dist_buf.flags.c_contiguous and labels_buf.flags.c_contiguous
    ):
        from . import vectorized

        return vectorized.cpa_assign(
            lab, centers, weight, grid_s, dist_buf, labels_buf,
            cluster_indices=cluster_indices, datapath=datapath,
            compactness=compactness, codes=codes,
        )
    lib = load()
    nt = resolve_threads(n_threads)
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    if cluster_indices is None:
        cluster_indices = np.arange(len(centers))
    ks = np.ascontiguousarray(cluster_indices, dtype=np.int64)
    if len(ks) == 0:
        return 0
    centers_c = np.ascontiguousarray(centers, dtype=np.float64)
    labels_v = labels_buf.reshape(-1)
    dist_v = dist_buf.reshape(-1)
    touched = _touched_checkout(h * w)
    if datapath is None:
        lab_c = np.ascontiguousarray(lab, dtype=np.float64)
        lib.cpa_assign_f64_mt(
            lab_c.reshape(-1), centers_c.reshape(-1), ks, len(ks),
            float(weight), half, h, w, dist_v, labels_v, touched, nt,
        )
    else:
        codes_c = np.ascontiguousarray(codes, dtype=np.int64)
        c_codes = np.ascontiguousarray(datapath.encode_centers(centers))
        weight_raw = datapath.weight_raw(compactness, grid_s)
        lib.cpa_assign_fixed_mt(
            codes_c.reshape(-1), c_codes.reshape(-1), centers_c.reshape(-1),
            ks, len(ks), weight_raw, WEIGHT_FRAC_BITS,
            datapath.spatial_frac_bits, int(datapath.quantize_distance),
            datapath.effective_distance_shift, datapath.distance_max_code,
            half, h, w, dist_v, labels_v, touched, nt,
        )
    n_touched = int(np.count_nonzero(touched))
    _touched_checkin(h * w, touched)
    return n_touched


def ppa_assign(
    pixels,
    subset_idx,
    candidates,
    centers,
    weight,
    compactness=None,
    grid_s=None,
    n_threads=None,
):
    """Range-partitioned PPA 9-candidate argmin; see ``assign_ppa``."""
    lib = load()
    nt = resolve_threads(n_threads)
    subset = np.ascontiguousarray(subset_idx, dtype=np.int64)
    out = np.empty(len(subset), dtype=np.int32)
    if len(subset) == 0:
        return out
    cands = np.ascontiguousarray(candidates, dtype=np.int32)
    dp = pixels.datapath
    if dp is None:
        lib.ppa_assign_f64_mt(
            np.ascontiguousarray(pixels.lab_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1),
            np.ascontiguousarray(centers, dtype=np.float64).reshape(-1),
            float(weight), out, nt,
        )
    else:
        c_codes = np.ascontiguousarray(dp.encode_centers(centers))
        lib.ppa_assign_fixed_mt(
            np.ascontiguousarray(pixels.codes_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1), c_codes.reshape(-1),
            dp.weight_raw(compactness, grid_s), WEIGHT_FRAC_BITS,
            dp.spatial_frac_bits, int(dp.quantize_distance),
            dp.effective_distance_shift, dp.distance_max_code, out, nt,
        )
    return out


def lab_from_codes(converter, rgb, n_threads=None):
    """Fused RGB->Lab ``(lab, codes)`` over pixel-range chunks.

    Produces both the channel codes and the decoded float64 Lab plane in
    one frame traversal — bit-identical to ``convert_codes_reference``
    followed by ``LabEncoding.decode``. Ships the converter's LUTs and
    formats into the C pixel loop; falls back to the vectorized backend
    for exotic PWL configurations whose rounding shifts are not strictly
    positive (the C loop assumes the default Q-format layout, where both
    are).
    """
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    pwl = converter.pwl
    mat_shift = (
        converter.gamma_frac_bits + converter._matrix_fmt.frac_bits
    ) - pwl.in_fmt.frac_bits
    out_shift = (
        pwl.coeff_fmt.frac_bits + pwl.in_fmt.frac_bits
    ) - pwl.out_fmt.frac_bits
    if mat_shift <= 0 or out_shift <= 0:
        from . import vectorized

        return vectorized.lab_from_codes(converter, rgb)
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
    caller (``SigmaAccumulator.accumulate``) folds them into its
    registers. x/y come from the flat pixel index, so no (M, 5) values
    matrix is ever materialized. Each thread owns a contiguous cluster
    range and scans every entry, accumulating only the labels it owns —
    the full one-thread addition order per register, so sums are
    bit-identical at any thread count (see the sigma section in
    ``_native.c``).
    """
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
    if codes_flat is not None:
        codes_c = np.ascontiguousarray(codes_flat, dtype=np.int64)
        lib.sigma_acc_codes_mt(
            codes_c.reshape(-1), idx_ptr, labels_c, m, width,
            float(encoding.l_scale), float(encoding.ab_scale),
            float(encoding.ab_offset), n_clusters,
            sums.reshape(-1), counts, nt,
        )
    else:
        lab_c = np.ascontiguousarray(lab_flat, dtype=np.float64)
        lib.sigma_acc_f64_mt(
            lab_c.reshape(-1), idx_ptr, labels_c, m, width,
            n_clusters, sums.reshape(-1), counts, nt,
        )
    return sums, counts


def connected_components(labels, n_threads=None):
    """Row-banded two-pass union-find CCL; see ``connected_components``.

    Each thread decomposes its own row band into runs (offset by a
    serial prefix sum) and unions within the band's disjoint parent
    range; the band seams and the ascending renumber run serially.
    Union-by-minimal-root makes the component roots independent of the
    union order, so labels are bit-identical at any thread count, and
    component ids come out in the reference's canonical first-appearance
    order. Maps too large for the int32 run-id scratch fall back to the
    vectorized backend.
    """
    labels = validate_label_map(labels)
    h, w = labels.shape
    if h * w >= 2**31:
        from . import vectorized

        return vectorized.connected_components(labels)
    lib = load()
    nt = resolve_threads(n_threads)
    lab_c = np.ascontiguousarray(labels, dtype=np.int32)
    comps = np.empty((h, w), dtype=np.int32)
    parent = np.empty(h * w, dtype=np.int64)
    n = lib.ccl_i32_mt(
        lab_c.reshape(-1), h, w, comps.reshape(-1), parent, nt
    )
    return comps, int(n)


def contingency_table(a_flat, b_flat, n_a, n_b, n_threads=None):
    """Joint label histogram via per-thread private tables.

    Each thread histograms a contiguous index range into its own table;
    the tables fold into the result sequentially in ascending tile id —
    int64 addition, so the stitch is exact at any thread count.
    """
    lib = load()
    nt = resolve_threads(n_threads)
    a_flat = np.ascontiguousarray(a_flat, dtype=np.int64)
    b_flat = np.ascontiguousarray(b_flat, dtype=np.int64)
    n_cells = n_a * n_b
    scratch = np.zeros(nt * n_cells, dtype=np.int64)
    table = np.zeros(n_cells, dtype=np.int64)
    lib.contingency_i64_mt(
        a_flat, b_flat, len(a_flat), n_b, nt, scratch, n_cells, table
    )
    return table.reshape(n_a, n_b)
