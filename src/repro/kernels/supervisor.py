"""Kernel backend supervision: first-dispatch self-test + demotion.

PR 3 introduced swappable kernel backends whose only correctness check
was "the native library compiled". This module adds the missing trust
boundary: before a process uses a backend for real work it must pass a
tiny **known-answer self-test** — a fixed CPA window scan whose output
is compared against the reference loops. A backend that fails to load
*or* fails the self-test is **demoted** down the chain

    native-mt -> reference

and the demotion is recorded (tracer counter ``kernels.demotions``, an
event naming both backends, and the frame's
:class:`~repro.parallel.FrameRecord` via ``demoted_from``). The
reference loops are the semantics definition and cannot be demoted —
if *they* are forced to fail (fault injection), supervision raises.

Results are memoized per process and per forced-failure set, so the
self-test runs once per worker, not once per frame. Fault injection
forces failures through the ``forced_failures`` argument (which
``FaultPlan``'s ``kernel_fail`` faults set); this is how the resilience
suite drives the demotion chain deterministically.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConfigurationError
from .dispatch import requested_name, resolve_name, validate_name

__all__ = [
    "DEMOTION_CHAIN",
    "SupervisedBackend",
    "self_test",
    "supervised_resolve",
    "reset_supervision",
]

#: Demotion order: each name falls back to the next on failure.
DEMOTION_CHAIN = ("native-mt", "reference")

#: Per-process memo: (requested, forced) -> SupervisedBackend. The lock
#: makes first dispatch race-free: concurrent engines resolving the same
#: backend run the self-test once and share one verdict (and demotion
#: telemetry is emitted once, not per caller).
_memo = {}
_memo_lock = threading.Lock()


class SupervisedBackend:
    """The outcome of supervising one requested backend."""

    __slots__ = ("requested", "name", "demoted_from")

    def __init__(self, requested, name, demoted_from):
        self.requested = requested
        self.name = name
        self.demoted_from = demoted_from

    @property
    def demoted(self) -> bool:
        return self.demoted_from is not None


def reset_supervision() -> None:
    """Drop memoized verdicts (tests re-probe with different forcing)."""
    _memo.clear()


def _known_answer_inputs():
    """A tiny deterministic CPA problem with full window coverage."""
    h, w = 6, 9
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    lab = np.stack(
        [10.0 + 7.0 * xx + yy, 3.0 * yy - xx, 0.5 * xx * yy - 4.0], axis=-1
    )
    centers = np.array(
        [
            [20.0, 1.0, -2.0, 2.0, 2.5],
            [60.0, 8.0, 3.0, 6.5, 3.0],
        ]
    )
    return lab, centers, 0.8, 3.0  # lab, centers, weight, grid_s


def self_test(name: str) -> None:
    """Run the known-answer kernel checks for backend ``name``.

    Exercises every kernel in the contract (CPA scan, fused fixed-point
    and float Lab conversions, sigma accumulation, the fused PPA pass on
    the float and 8-bit datapaths, the fused connectivity pass) on tiny
    fixed inputs and compares against the reference loops, raising
    :class:`ConfigurationError` with the mismatch detail on any
    difference. ``reference`` returns at once: it is what the checks
    compare against. Cheap (a 6 x 9 image, extended by a 3-row strip
    that fills the PPA pass's 8 lanes, a handful of components, and a
    two-band ramp for the float color walk) — intended to run once per
    process.

    Each check passes its thread widths as ``n_threads=``. The CPA scan,
    the fused PPA pass and the connectivity pass run at 2, 1 and 3
    threads: the pool and its stitch, the inline path, and an odd split
    with remainder bands. The fixed-point color conversion and the float
    sigma accumulation run at 2 and 3, because the pool splits their
    inputs differently at each width; the code-domain sigma accumulation
    (which runs the reference) runs at 2. The float color conversion
    runs at 2 only: the row-band walk splits a frame into
    ``min(n_threads, n_bands)`` slabs, and its images are at most two
    bands, so a third thread would repeat the 2-thread split. The
    check's 2 x 16,385 ramp is two one-row bands, so its 2-thread pass
    hands the second band to a helper thread.
    """
    from ..color.reference import BAND_PIXELS
    from . import reference
    from .dispatch import _module

    name = validate_name(name)
    if name == "reference":
        return
    backend = _module(name)
    lab, centers, weight, grid_s = _known_answer_inputs()
    h, w = lab.shape[:2]

    def check(kernel, got, want):
        if not np.array_equal(got, want):
            raise ConfigurationError(
                f"kernel backend {name!r} failed its known-answer "
                f"self-test on {kernel!r} (output differs from reference)"
            )

    def cpa_run(mod, **kwargs):
        dist = np.full((h, w), np.inf)
        labels = np.full((h, w), -1, dtype=np.int32)
        touched = mod.cpa_assign(
            lab, centers, weight, grid_s, dist, labels, **kwargs
        )
        return {"touched": touched, "labels": labels, "dist": dist}

    want = cpa_run(reference)
    for nt in (2, 1, 3):
        got = cpa_run(backend, n_threads=nt)
        for field, value in want.items():
            check(f"cpa_assign.{field}@{nt}t", got[field], value)

    # Fixed-point Lab conversion, codes and their decode from one
    # traversal: a tiny RGB ramp covering all channels.
    from ..color.hw_convert import HwColorConverter

    rgb = (np.arange(4 * 5 * 3, dtype=np.int64) * 13 % 256).astype(
        np.uint8
    ).reshape(4, 5, 3)
    conv = HwColorConverter()
    want_flab, want_fcodes = reference.lab_from_codes(conv, rgb)
    for nt in (2, 3):
        got_flab, got_fcodes = backend.lab_from_codes(conv, rgb, n_threads=nt)
        check(f"lab_from_codes.lab@{nt}t", got_flab, want_flab)
        check(f"lab_from_codes.codes@{nt}t", got_fcodes, want_fcodes)

    # Float Lab conversion of the same ramp, of a float image and of a
    # uint8 ramp two bands tall. The first two hold values on the gamma
    # curve's linear segment and dark pixels whose XYZ/white takes f's
    # linear branch. Compared as bit patterns, so a -0.0 for 0.0 fails
    # too.
    rgb_float = ((np.arange(4 * 5 * 3) * 0.37 % 1.0) ** 3).reshape(4, 5, 3)
    seam_w = BAND_PIXELS // 2 + 1
    rgb_seam = (np.arange(2 * seam_w * 3, dtype=np.int64) * 7 % 251).astype(
        np.uint8
    ).reshape(2, seam_w, 3)
    for kind, image in (
        ("u8", rgb), ("float", rgb_float), ("seam", rgb_seam)
    ):
        want_lab = reference.lab_from_rgb(image).view(np.uint64)
        got_lab = backend.lab_from_rgb(image, n_threads=2)
        check(f"lab_from_rgb.{kind}@2t", got_lab.view(np.uint64), want_lab)

    # Sigma accumulation: float rows over the full CPA image (with an
    # empty cluster), plus a fixed-code subset gather. The labels hit
    # every cluster ownership band an odd thread split produces.
    lab_rows = np.ascontiguousarray(lab.reshape(-1, 3))
    sig_labels = (np.arange(h * w, dtype=np.int64) * 7 % 5).astype(np.int32)
    want_sums, want_counts = reference.sigma_accumulate(
        sig_labels, 6, w, lab_flat=lab_rows
    )
    for nt in (2, 3):
        got_sums, got_counts = backend.sigma_accumulate(
            sig_labels, 6, w, lab_flat=lab_rows, n_threads=nt
        )
        check(f"sigma_accumulate.sums@{nt}t", got_sums, want_sums)
        check(f"sigma_accumulate.counts@{nt}t", got_counts, want_counts)
    codes_rows = conv.encoding.encode(lab_rows)
    subset = np.arange(0, h * w, 2, dtype=np.int64)
    sub_labels = (subset % 4).astype(np.int32)
    want_csums, want_ccounts = reference.sigma_accumulate(
        sub_labels, 4, w, codes_flat=codes_rows, encoding=conv.encoding,
        idx=subset,
    )
    got_csums, got_ccounts = backend.sigma_accumulate(
        sub_labels, 4, w, codes_flat=codes_rows, encoding=conv.encoding,
        idx=subset, n_threads=2,
    )
    check("sigma_accumulate.codes.sums@2t", got_csums, want_csums)
    check("sigma_accumulate.codes.counts@2t", got_ccounts, want_ccounts)

    # Fused PPA pass, float and 8-bit datapaths: the chosen labels, the
    # sigma partials and the label map written in place. Rows 0-5: six
    # clusters on a 2x3 tile grid, colored one pixel right of their
    # position so a quarter of the subset (every other pixel) leaves its
    # own tile. Rows 6-8: a strip in a seventh tile, whose 19 consecutive
    # subset entries fill two 8-lane runs plus a tail. Its candidate
    # slots 2 and 6 hold the same center, nearest to all but three strip
    # pixels, so an exact tie must go to the lower slot in every lane
    # position.
    from ..core.assignment import PixelArrays
    from ..core.distance import FixedDatapath
    from ..core.neighbors import candidate_map, tile_map

    strip_k = np.arange(3.0 * w)
    strip = np.where(
        np.isin(strip_k, [1, 13, 17])[:, None],
        [70.0, -20.0, 30.0], [40.0, 10.0, -5.0],
    ) + (strip_k / 8.0)[:, None]
    ppa_lab = np.concatenate([lab, strip.reshape(3, w, 3)])
    ppa_tiles = np.concatenate(
        [tile_map((h, w), 2, 3), np.full((3, w), 6, dtype=np.int32)]
    )
    ppa_cands = np.concatenate(
        [candidate_map(2, 3), np.arange(6, 15, dtype=np.int32)[None]]
    )
    cy = np.repeat([1.0, 4.0], 3)
    cx = np.tile([1.0, 4.0, 7.0], 2)
    strip_centers = np.column_stack([
        40.0 + 12.0 * np.arange(9.0), np.zeros(9), np.zeros(9),
        np.full(9, 4.0), np.full(9, h + 1.0),
    ])
    strip_centers[[2, 6], :3] = [41.0, 10.5, -4.0]
    strip_centers[4, :3] = [71.0, -19.5, 31.0]
    ppa_centers = np.concatenate([
        np.column_stack([
            lab[cy.astype(int), cx.astype(int) + 1] + [2.0, -1.0, 0.5],
            cx + 0.3,
            cy - 0.2,
        ]),
        strip_centers,
    ])
    ppa_subset = np.concatenate(
        [np.arange(1, h * w, 2), np.arange(h * w, h * w + 19)]
    )
    dp = FixedDatapath(bits=8)
    ppa_cases = {
        "ppa_assign": (PixelArrays(ppa_lab, ppa_tiles), {}),
        "ppa_assign.fixed": (
            PixelArrays(ppa_lab, ppa_tiles, datapath=dp,
                        codes=dp.encode_image(ppa_lab)),
            {"compactness": 10.0, "grid_s": grid_s},
        ),
    }

    def ppa_run(mod, pixels, **kwargs):
        label_map = ppa_tiles.ravel().astype(np.int32)
        chosen, sums, counts = mod.ppa_assign(
            pixels, ppa_subset, ppa_cands, ppa_centers, weight,
            labels_out=label_map, **kwargs,
        )
        return {"chosen": chosen, "sums": sums, "counts": counts,
                "labels_out": label_map}

    for kernel, (pixels, kwargs) in ppa_cases.items():
        want = ppa_run(reference, pixels, **kwargs)
        for nt in (2, 1, 3):
            got = ppa_run(backend, pixels, n_threads=nt, **kwargs)
            for field, value in want.items():
                check(f"{kernel}.{field}@{nt}t", got[field], value)

    # Connectivity: a nested ring with strays and a label that recurs
    # in disjoint pieces (rows 0-6), so run unions chain across many
    # rows and the first-appearance numbering is load-bearing; below it
    # a 4-px fragment of label 3 whose two longest borders (3 px each,
    # to the 4 and 5 regions) tie, so the lowest-id rule decides. At
    # min_size 12 the 5 region is small as well and ties again (3 px to
    # the merged fragment and to the outside 0): a chained merge.
    ring = np.zeros((10, 8), dtype=np.int32)
    ring[1:6, 1:7] = 1
    ring[2:5, 2:6] = 0
    ring[3, 3] = 2
    ring[0, 7] = 2
    ring[6, 0] = 1
    ring[7:9, :3] = ring[9, :4] = 4
    ring[7:9, 5:] = ring[9, 4:] = 5
    ring[7:9, 3:5] = 3
    for min_size in (5, 12):
        want = reference.enforce_connectivity(ring, min_size)
        # One thread runs inline; three put band seams mid-ring.
        for nt in (2, 1, 3):
            got = backend.enforce_connectivity(ring, min_size, n_threads=nt)
            check(f"enforce_connectivity/{min_size}@{nt}t", got, want)


def supervised_resolve(
    name: str | None = None, tracer=None, forced_failures=None
) -> SupervisedBackend:
    """Resolve ``name`` to a backend that passed its self-test.

    Walks the demotion chain from the requested (resolved) backend until
    a candidate both loads and passes :func:`self_test`. Returns a
    :class:`SupervisedBackend` naming the survivor and, when demotion
    happened, the first backend that was trusted and failed. Raises
    :class:`ConfigurationError` for an unknown name (given, or from
    ``$REPRO_KERNEL_BACKEND``) and when even ``reference`` is forced to
    fail — there is nothing left to demote to.
    """
    # Keyed on the validated request, so ``None`` follows
    # $REPRO_KERNEL_BACKEND and an unknown name raises before the lookup.
    requested = requested_name(name)
    forced = frozenset(forced_failures or ())
    key = (requested, forced)
    cached = _memo.get(key)
    if cached is not None:
        return cached

    with _memo_lock:
        cached = _memo.get(key)  # lost the race: share the verdict
        if cached is not None:
            return cached
        return _resolve_uncached(requested, forced, key, tracer)


def _resolve_uncached(requested, forced, key, tracer) -> SupervisedBackend:
    try:
        start = resolve_name(requested)
    except ConfigurationError:
        # A requested backend that cannot load demotes to its successor
        # in the chain instead of failing the frame.
        start = DEMOTION_CHAIN[DEMOTION_CHAIN.index(requested) + 1]
        demoted_from = requested
    else:
        demoted_from = None

    chain = DEMOTION_CHAIN[DEMOTION_CHAIN.index(start):]
    failure = None
    for candidate in chain:
        try:
            if candidate in forced:
                raise ConfigurationError(
                    f"kernel backend {candidate!r} self-test failure forced "
                    f"by fault injection"
                )
            self_test(candidate)
        except ConfigurationError as exc:
            failure = exc
            if demoted_from is None:
                demoted_from = candidate
            if tracer is not None:
                tracer.count(
                    "kernels.selftest_failures",
                    labels={"backend": str(candidate)},
                )
            continue
        verdict = SupervisedBackend(
            requested=requested,
            name=candidate,
            demoted_from=demoted_from if candidate != demoted_from else None,
        )
        if verdict.demoted and tracer is not None:
            tracer.count(
                "kernels.demotions",
                labels={
                    "demoted_from": str(verdict.demoted_from),
                    "demoted_to": str(candidate),
                },
            )
            tracer.event(
                "kernels.demoted",
                requested=requested,
                demoted_from=verdict.demoted_from,
                demoted_to=candidate,
            )
        _memo[key] = verdict
        return verdict
    raise ConfigurationError(
        "every kernel backend failed supervision (reference included): "
        f"{failure}"
    )
