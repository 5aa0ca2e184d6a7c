"""Kernel backend supervision: first-dispatch self-test + demotion.

PR 3 introduced swappable kernel backends whose only correctness check
was "the native library compiled". This module adds the missing trust
boundary: before a process uses a backend for real work it must pass a
tiny **known-answer self-test** — a fixed CPA window scan whose output
is compared against the reference loops. A backend that fails to load
*or* fails the self-test is **demoted** down the chain

    native-mt -> vectorized -> reference

and the demotion is recorded (tracer counter ``kernels.demotions``, an
event naming both backends, and the frame's
:class:`~repro.parallel.FrameRecord` via ``demoted_from``). The
reference loops are the semantics definition and cannot be demoted —
if *they* are forced to fail (fault injection), supervision raises.

Results are memoized per process and per forced-failure set, so the
self-test runs once per worker, not once per frame. Fault injection
forces failures via :data:`FAULT_ENV` (a comma-separated backend list)
or the ``forced_failures`` argument; this is how the resilience suite
drives the demotion chain deterministically.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from ..errors import ConfigurationError
from .dispatch import resolve_name, validate_name

__all__ = [
    "DEMOTION_CHAIN",
    "FAULT_ENV",
    "SupervisedBackend",
    "self_test",
    "supervised_resolve",
    "reset_supervision",
]

#: Demotion order: each name falls back to the next on failure.
DEMOTION_CHAIN = ("native-mt", "vectorized", "reference")

#: Env var forcing self-test failures (comma-separated backend names) —
#: the fault-injection hook for the supervisor.
FAULT_ENV = "REPRO_FAULT_KERNEL_BACKENDS"

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

    Exercises every kernel in the contract (CPA scan, fused Lab
    conversion, sigma accumulation, merge walk, metric
    histogram/chamfer) on tiny fixed inputs and
    compares against the reference loops, raising
    :class:`ConfigurationError` with the mismatch detail on any
    difference. Cheap (a 6 x 9 image and a handful of components) —
    intended to run once per process. The ``native-mt`` vector runs the
    whole battery pinned to 2 threads (so the pool and the stitch are
    genuinely exercised), plus one-thread and odd 3-thread CPA passes
    that would catch a broken inline path or remainder-band partition
    bugs.
    """
    import contextlib

    from . import reference
    from .dispatch import _module

    name = validate_name(name)
    backend = _module(name)
    lab, centers, weight, grid_s = _known_answer_inputs()
    h, w = lab.shape[:2]

    def pinned():
        if name == "native-mt":
            from . import native_mt

            return native_mt.thread_context(2)
        return contextlib.nullcontext()

    def run(mod, **kwargs):
        dist = np.full((h, w), np.inf)
        labels = np.full((h, w), -1, dtype=np.int32)
        touched = mod.cpa_assign(
            lab, centers, weight, grid_s, dist, labels, **kwargs
        )
        return touched, dist, labels

    with pinned():
        got_touched, got_dist, got_labels = run(backend)
    want_touched, want_dist, want_labels = run(reference)
    if name == "native-mt":
        for nt in (1, 3):
            touched, dist, labels = run(backend, n_threads=nt)
            if not (
                touched == want_touched
                and np.array_equal(labels, want_labels)
                and np.array_equal(dist, want_dist)
            ):
                raise ConfigurationError(
                    "kernel backend 'native-mt' failed its known-answer "
                    f"self-test at {nt} thread(s) (inline path or "
                    "remainder-band partition bug?)"
                )
    if (
        got_touched != want_touched
        or not np.array_equal(got_labels, want_labels)
        or not np.array_equal(got_dist, want_dist)
    ):
        raise ConfigurationError(
            f"kernel backend {name!r} failed its known-answer self-test "
            f"(labels match: {np.array_equal(got_labels, want_labels)}, "
            f"distances match: {np.array_equal(got_dist, want_dist)}, "
            f"touched: {got_touched} vs {want_touched})"
        )

    def check(kernel, got, want):
        if not np.array_equal(got, want):
            raise ConfigurationError(
                f"kernel backend {name!r} failed its known-answer "
                f"self-test on {kernel!r} (output differs from reference)"
            )

    # Fixed-point Lab conversion, codes and their decode from one
    # traversal: a tiny RGB ramp covering all channels.
    from ..color.hw_convert import HwColorConverter

    rgb = (np.arange(4 * 5 * 3, dtype=np.int64) * 13 % 256).astype(
        np.uint8
    ).reshape(4, 5, 3)
    conv = HwColorConverter()
    want_flab, want_fcodes = reference.lab_from_codes(conv, rgb)
    with pinned():
        got_flab, got_fcodes = backend.lab_from_codes(conv, rgb)
    check("lab_from_codes.lab", got_flab, want_flab)
    check("lab_from_codes.codes", got_fcodes, want_fcodes)
    if name == "native-mt":
        odd_flab, odd_fcodes = backend.lab_from_codes(conv, rgb, n_threads=3)
        check("lab_from_codes.lab@3t", odd_flab, want_flab)
        check("lab_from_codes.codes@3t", odd_fcodes, want_fcodes)

    # Sigma accumulation: float rows over the full CPA image (with an
    # empty cluster), plus a fixed-code subset gather. The labels hit
    # every cluster ownership band an odd thread split produces.
    lab_rows = np.ascontiguousarray(lab.reshape(-1, 3))
    sig_labels = (np.arange(h * w, dtype=np.int64) * 7 % 5).astype(np.int32)
    want_sums, want_counts = reference.sigma_accumulate(
        sig_labels, 6, w, lab_flat=lab_rows
    )
    with pinned():
        got_sums, got_counts = backend.sigma_accumulate(
            sig_labels, 6, w, lab_flat=lab_rows
        )
    check("sigma_accumulate.sums", got_sums, want_sums)
    check("sigma_accumulate.counts", got_counts, want_counts)
    codes_rows = conv.encoding.encode(lab_rows)
    subset = np.arange(0, h * w, 2, dtype=np.int64)
    sub_labels = (subset % 4).astype(np.int32)
    want_csums, want_ccounts = reference.sigma_accumulate(
        sub_labels, 4, w, codes_flat=codes_rows, encoding=conv.encoding,
        idx=subset,
    )
    with pinned():
        got_csums, got_ccounts = backend.sigma_accumulate(
            sub_labels, 4, w, codes_flat=codes_rows, encoding=conv.encoding,
            idx=subset,
        )
    check("sigma_accumulate.codes.sums", got_csums, want_csums)
    check("sigma_accumulate.codes.counts", got_ccounts, want_ccounts)
    if name == "native-mt":
        odd_sums, odd_counts = backend.sigma_accumulate(
            sig_labels, 6, w, lab_flat=lab_rows, n_threads=3
        )
        check("sigma_accumulate.sums@3t", odd_sums, want_sums)
        check("sigma_accumulate.counts@3t", odd_counts, want_counts)

    # Connected components: nested ring + stray pixels + a label that
    # recurs in disjoint pieces, so run unions chain across many rows
    # and the canonical first-appearance renumbering is load-bearing.
    ring = np.zeros((7, 8), dtype=np.int32)
    ring[1:6, 1:7] = 1
    ring[2:5, 2:6] = 0
    ring[3, 3] = 2
    ring[0, 7] = 2
    ring[6, 0] = 1
    want_comps, want_n = reference.connected_components(ring)
    with pinned():
        got_comps, got_n = backend.connected_components(ring)
    check("connected_components", got_comps, want_comps)
    check("connected_components.n", got_n, want_n)
    if name == "native-mt":
        # Odd thread count: band seams fall mid-ring.
        odd_comps, odd_n = backend.connected_components(ring, n_threads=3)
        check("connected_components@3t", odd_comps, want_comps)
        check("connected_components.n@3t", odd_n, want_n)

    # Merge walk: 4 components, CSR adjacency with a weight tie (1<->3).
    sizes = np.array([2, 9, 1, 8], dtype=np.int64)
    starts = np.array([0, 2, 5, 7], dtype=np.int64)
    ends = np.array([2, 5, 7, 9], dtype=np.int64)
    dst = np.array([1, 2, 0, 2, 3, 0, 1, 1, 2], dtype=np.int64)
    border = np.array([3, 1, 3, 2, 4, 1, 2, 4, 2], dtype=np.int64)
    order = np.array([2, 0], dtype=np.int64)
    args = (sizes, starts, ends, dst, border, 4, order)
    check("merge_small", backend.merge_small(*args), reference.merge_small(*args))

    # Metrics: joint histogram and chamfer transform on tiny maps.
    a_flat = np.array([0, 0, 1, 2, 1, 0], dtype=np.int64)
    b_flat = np.array([1, 0, 1, 1, 0, 1], dtype=np.int64)
    with pinned():
        check(
            "contingency_table",
            backend.contingency_table(a_flat, b_flat, 3, 2),
            reference.contingency_table(a_flat, b_flat, 3, 2),
        )
    mask = np.zeros((5, 7), dtype=bool)
    mask[1, 2] = mask[4, 6] = True
    check(
        "chamfer_distance",
        backend.chamfer_distance(mask),
        reference.chamfer_distance(mask),
    )


def _forced_failures(extra=None) -> frozenset:
    env = os.environ.get(FAULT_ENV, "")
    forced = {p.strip() for p in env.split(",") if p.strip()}
    if extra:
        forced |= set(extra)
    return frozenset(forced)


def supervised_resolve(
    name: str | None = None, tracer=None, forced_failures=None
) -> SupervisedBackend:
    """Resolve ``name`` to a backend that passed its self-test.

    Walks the demotion chain from the requested (resolved) backend until
    a candidate both loads and passes :func:`self_test`. Returns a
    :class:`SupervisedBackend` naming the survivor and, when demotion
    happened, the first backend that was trusted and failed. Raises
    :class:`ConfigurationError` only when even ``reference`` is forced
    to fail — there is nothing left to demote to.
    """
    forced = _forced_failures(forced_failures)
    key = (name, forced)
    cached = _memo.get(key)
    if cached is not None:
        return cached

    with _memo_lock:
        cached = _memo.get(key)  # lost the race: share the verdict
        if cached is not None:
            return cached
        return _resolve_uncached(name, forced, key, tracer)


def _resolve_uncached(name, forced, key, tracer) -> SupervisedBackend:
    try:
        start = resolve_name(name)
    except ConfigurationError:
        # An explicitly requested backend that cannot load: supervision
        # demotes to its successor in the chain instead of failing the
        # frame (an unknown name starts all the way down at reference).
        if name in DEMOTION_CHAIN:
            successor = DEMOTION_CHAIN.index(name) + 1
            start = DEMOTION_CHAIN[min(successor, len(DEMOTION_CHAIN) - 1)]
        else:
            start = "reference"
        demoted_from = name
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
            requested=name,
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
                requested=str(name),
                demoted_from=verdict.demoted_from,
                demoted_to=candidate,
            )
        _memo[key] = verdict
        return verdict
    raise ConfigurationError(
        "every kernel backend failed supervision (reference included): "
        f"{failure}"
    )
