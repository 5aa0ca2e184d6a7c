"""Backend parametrization and PPA inputs shared by the kernel suites."""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.params import SUBSET_STRATEGIES
from repro.core.subsampling import SubsetSchedule
from repro.kernels import available_backends, reference

#: Subsets the fused ``ppa_assign`` is checked on: one phase of every
#: schedule strategy, an unsorted subset with a duplicated index, and
#: same-tile runs of every length from 1 to 8 (see ``ppa_subset``).
PPA_SUBSET_KINDS = SUBSET_STRATEGIES + ("unsorted-dup", "lane-runs")


def ppa_cluster_counts(lo, hi):
    """Cluster counts for a PPA draw: ``[lo, hi]``, or a coarse grid.

    The coarse grid (K <= 4) gives same-tile runs of consecutive subset
    entries up to 26-32 long on the suites' frames, so the compiled
    pass's 8-lane groups fill twice over and leave a tail.
    """
    return st.integers(lo, hi) | st.integers(1, 4)


def tie_centers(centers, cands):
    """Copy one center onto another candidate cluster of the middle tile.

    Pixels nearest the copied center then see an exact distance tie,
    which every backend must give to the lower candidate slot. Returns
    ``centers`` unchanged when the tile has a single distinct candidate.
    """
    distinct = np.unique(cands[len(cands) // 2])
    if len(distinct) < 2:
        return centers
    centers = centers.copy()
    centers[distinct[-1]] = centers[distinct[0]]
    return centers


def kernel_cases(names=None):
    """One ``pytest.param`` per kernel configuration under test.

    Every available backend in ``names`` (default: all of them), with the
    compiled ``native-mt`` backend run twice: inline at one thread (id
    ``native``, the serial case) and on an odd-width three-thread pool
    (id ``native-mt``). The thread count reaches the kernels through the
    ``kernel_threads`` marker, which ``conftest.py`` turns into
    ``REPRO_KERNEL_THREADS`` for the test, so a call that passes no
    ``n_threads`` runs at that width.
    """
    usable = available_backends()
    cases = []
    for name in usable if names is None else names:
        if name not in usable:
            continue
        if name == "native-mt":
            cases += [
                pytest.param(name, id="native",
                             marks=pytest.mark.kernel_threads(1)),
                pytest.param(name, id="native-mt",
                             marks=pytest.mark.kernel_threads(3)),
            ]
        else:
            cases.append(name)
    return cases


def ppa_subset(kind, h, w, n_subsets, seed, tiles=None):
    """Flat pixel indices for one ``PPA_SUBSET_KINDS`` entry.

    A schedule kind returns phase ``seed % n_subsets`` of that strategy;
    ``unsorted-dup`` returns a random permutation of ``1/n_subsets`` of
    the pixels with its first index repeated at the end. ``lane-runs``
    takes about as many pixels in runs of 1, 2, ..., 8, 1, 2, ... from
    one tile of ``tiles`` each, never the tile of the run before, so the
    compiled pass's lane groups take every length. A run's pixels are
    drawn from all over its tile, so its chosen clusters change inside a
    group.
    """
    n_subsets = min(n_subsets, h * w)
    rng = np.random.default_rng(seed)
    if kind == "unsorted-dup":
        idx = rng.permutation(h * w)[: max(1, h * w // n_subsets)]
        return np.concatenate([idx, idx[:1]]).astype(np.int64)
    if kind == "lane-runs":
        flat = np.asarray(tiles).ravel()
        pools = [list(rng.permutation(np.flatnonzero(flat == t)))
                 for t in np.unique(flat)]
        idx, prev = [], None
        for n in itertools.cycle(range(1, 9)):
            left = [t for t, pool in enumerate(pools) if pool]
            if len(idx) >= max(1, h * w // n_subsets) or not left:
                break
            t = rng.choice([t for t in left if t != prev] or left)
            idx += pools[t][:n]
            del pools[t][:n]
            prev = t
        return np.array(idx, dtype=np.int64)
    sched = SubsetSchedule((h, w), n_subsets, strategy=kind, seed=seed)
    return sched.subset(seed % n_subsets)


def assert_ppa_matches_reference(ppa_assign, pixels, idx, cands, centers,
                                 weight, **kw):
    """Run ``ppa_assign`` and the reference on the same prior label map.

    Asserts the fused contract: equal ``(chosen, sums, counts)`` and an
    equal label map after the in-place scatter, and equal ``(chosen,
    sums, counts)`` again from a call without a label map. Returns the
    reference ``(chosen, sums, counts)``.
    """
    prior = (np.arange(pixels.n_pixels) % len(centers)).astype(np.int32)
    want_map, got_map = prior.copy(), prior.copy()
    want = reference.ppa_assign(
        pixels, idx, cands, centers, weight, labels_out=want_map, **kw
    )
    got = ppa_assign(
        pixels, idx, cands, centers, weight, labels_out=got_map, **kw
    )
    unmapped = ppa_assign(pixels, idx, cands, centers, weight, **kw)
    for name, a, b, c in zip(("chosen", "sums", "counts"), want, got,
                             unmapped):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(a, c), f"{name} (labels_out=None)"
    assert np.array_equal(want_map, got_map), "labels_out"
    return want
