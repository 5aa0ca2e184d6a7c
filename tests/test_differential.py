"""Differential tests: the assignment kernels vs. independent references.

Three layers of cross-checking, per the ISSUE-2 test harness:

1. **PPA vs. a naive per-pixel reference** — ``assign_ppa`` (vectorized,
   chunked) must be *bit-identical* to a transparent double-loop argmin
   over the same 9-candidate sets, including the tie rule (lowest
   candidate slot wins, like the hardware 9:1 minimum tree).
2. **CPA center-perspective vs. pixel-perspective** — ``assign_cpa``
   scans a +/-ceil(S) window per center keeping running minima; the
   reference recomputes the same assignment from the pixel's perspective
   (masked argmin over every center whose window covers the pixel).
   Identical output proves the window bookkeeping and the strict-<
   running-minimum tie rule.
3. **PPA vs. CPA in float64** — wherever both architectures can see the
   winning center (PPA's winner inside CPA's coverage and vice versa),
   the two assignment orders must agree exactly; the paper's claim that
   the PPA reorders, but does not change, the algorithm.

The quantized datapath is *not* bit-identical to the reference — that is
the point of the bit-width study — so it gets a documented tolerance
instead (see ``TestQuantizedTolerance``).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.core import (
    FixedDatapath,
    candidate_map,
    grid_geometry,
    initial_centers,
    spatial_weight,
    tile_map,
)
from repro.core.assignment import PixelArrays, assign_cpa, assign_ppa
from repro.core.subsampling import make_schedule
from repro.data import SceneConfig, generate_scene
from repro.errors import ConfigurationError, ImageError
from repro.kernels import available_backends, get_backend
from repro.kernels import reference as reference_kernels

from .kernel_cases import kernel_cases

H, W = 48, 64


@pytest.fixture(scope="module", params=["core", "native-mt"])
def kernel_impl(request):
    """The ``(ppa, cpa)`` implementation pair under differential test.

    ``core`` is the in-tree vectorized path the suite was written
    against; ``native-mt`` routes the same calls through the threaded C
    backend at 3 threads (an odd count, so remainder tiles are always in
    play), proving the threaded path against the naive references
    without duplicating test bodies. Module-scoped so hypothesis reuses
    it across examples.
    """
    if request.param == "core":
        return assign_ppa, assign_cpa
    if "native-mt" not in available_backends():
        pytest.skip("backend 'native-mt' unavailable")
    from repro.kernels import native_mt

    def ppa(*args, **kwargs):
        # The chosen clusters: assign_ppa's result. The fused pass's
        # label scatter and sigma partials are compared in test_kernels*.
        return native_mt.ppa_assign(*args, n_threads=3, **kwargs)[0]

    def cpa(*args, **kwargs):
        return native_mt.cpa_assign(*args, n_threads=3, **kwargs)

    return ppa, cpa


def _setup(seed, k, m):
    """Random image + grid-initialized centers and PPA structures."""
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
    lab = rgb_to_lab(image)
    centers = initial_centers(lab, k)
    gh, gw, _, _ = grid_geometry((H, W), k)
    tiles = tile_map((H, W), gh, gw)
    cands = candidate_map(gh, gw)
    s = float(np.sqrt(H * W / len(centers)))
    weight = spatial_weight(m, s)
    return lab, centers, tiles, cands, s, weight


def naive_ppa(lab, tiles, cands, centers, weight, idx):
    """Transparent double-loop PPA: argmin over the 9 candidates."""
    lab_flat = lab.reshape(-1, 3)
    tile_flat = tiles.ravel()
    out = np.empty(len(idx), dtype=np.int32)
    for j, i in enumerate(idx):
        y, x = divmod(int(i), lab.shape[1])
        best_d, best_k = np.inf, -1
        for c in cands[tile_flat[i]]:
            d = float(((lab_flat[i] - centers[c, 0:3]) ** 2).sum()) + weight * (
                (x - centers[c, 3]) ** 2 + (y - centers[c, 4]) ** 2
            )
            if d < best_d:  # strict: first minimum (lowest slot) wins
                best_d, best_k = d, c
        out[j] = best_k
    return out


def naive_cpa(lab, centers, weight, s, cluster_indices=None):
    """Pixel-perspective CPA: masked argmin over covering centers.

    Returns ``(labels, dist)``; pixels no window covers have ``inf``
    dist and a meaningless label (``assign_cpa`` leaves those at their
    initial value, so callers compare on the finite mask).
    """
    h, w = lab.shape[:2]
    half = int(np.ceil(s))  # the paper's 2S x 2S window
    ks = (
        np.arange(len(centers))
        if cluster_indices is None
        else np.asarray(cluster_indices)
    )
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = np.full((len(ks), h, w), np.inf)
    for j, k in enumerate(ks):
        cx, cy = centers[k, 3], centers[k, 4]
        covered = (np.abs(xx - int(np.floor(cx))) <= half) & (
            np.abs(yy - int(np.floor(cy))) <= half
        )
        dc2 = ((lab - centers[k, 0:3]) ** 2).sum(axis=-1)
        ds2 = (xx - cx) ** 2 + (yy - cy) ** 2
        d2[j] = np.where(covered, dc2 + weight * ds2, np.inf)
    # argmin returns the first minimum: ascending scan order, matching
    # the running-minimum's strict <.
    best = np.argmin(d2, axis=0)
    return ks[best].astype(np.int32), np.min(d2, axis=0)


class TestPpaVsNaive:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(8, 48),
        m=st.floats(1.0, 40.0),
        n_subsets=st.sampled_from([1, 2, 4]),
    )
    def test_identical_assignments_float64(
        self, kernel_impl, seed, k, m, n_subsets
    ):
        ppa_fn, _ = kernel_impl
        lab, centers, tiles, cands, s, weight = _setup(seed, k, m)
        pixels = PixelArrays(lab, tiles)
        schedule = make_schedule((H, W), 1.0 / n_subsets, "strided", seed)
        for sub in range(n_subsets):
            idx = schedule.subset(sub)
            got = ppa_fn(pixels, idx, cands, centers, weight)
            want = naive_ppa(lab, tiles, cands, centers, weight, idx)
            assert np.array_equal(got, want)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 48))
    def test_identical_after_center_update(self, kernel_impl, seed, k):
        """Still exact once centers have moved off the initial grid."""
        ppa_fn, _ = kernel_impl
        lab, centers, tiles, cands, s, weight = _setup(seed, k, 10.0)
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        first = ppa_fn(pixels, idx, cands, centers, weight)
        # one crude center update: mean of assigned pixels
        rows = np.column_stack(
            [pixels.lab_flat, pixels.x_flat, pixels.y_flat]
        )
        moved = centers.copy()
        for c in range(len(centers)):
            mask = first == c
            if mask.any():
                moved[c] = rows[idx[mask]].mean(axis=0)
        got = ppa_fn(pixels, idx, cands, moved, weight)
        want = naive_ppa(lab, tiles, cands, moved, weight, idx)
        assert np.array_equal(got, want)


class TestCpaVsNaive:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(8, 48),
        m=st.floats(1.0, 40.0),
        n_subsets=st.sampled_from([1, 2, 4]),
    )
    def test_identical_assignments_float64(
        self, kernel_impl, seed, k, m, n_subsets
    ):
        _, cpa_fn = kernel_impl
        lab, centers, tiles, cands, s, weight = _setup(seed, k, m)
        # center subsets: the CPA flavour of S-SLIC scans K/n centers.
        subset = np.arange(len(centers))[::n_subsets]
        dist = np.full((H, W), np.inf)
        labels = np.full((H, W), -1, dtype=np.int32)
        cpa_fn(lab, centers, weight, s, dist, labels, cluster_indices=subset)
        want_labels, want_dist = naive_cpa(lab, centers, weight, s, subset)
        finite = np.isfinite(want_dist)
        assert np.array_equal(finite, np.isfinite(dist))
        assert np.array_equal(labels[finite], want_labels[finite])
        np.testing.assert_allclose(dist[finite], want_dist[finite], rtol=1e-12)


class TestPpaVsCpa:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(8, 48),
        m=st.floats(1.0, 40.0),
    )
    def test_agree_where_both_see_the_winner(self, kernel_impl, seed, k, m):
        """Float64 PPA and CPA are the same argmin over different
        candidate enumerations; restricted to pixels where each order's
        winner is inside the other's candidate set, they must match."""
        ppa_fn, cpa_fn = kernel_impl
        lab, centers, tiles, cands, s, weight = _setup(seed, k, m)
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        ppa = ppa_fn(pixels, idx, cands, centers, weight).reshape(H, W)
        dist = np.full((H, W), np.inf)
        cpa = np.full((H, W), -1, dtype=np.int32)
        cpa_fn(lab, centers, weight, s, dist, cpa, cluster_indices=None)

        half = int(np.ceil(s))  # the paper's 2S x 2S window
        yy, xx = np.mgrid[0:H, 0:W]
        fx = np.floor(centers[:, 3]).astype(int)
        fy = np.floor(centers[:, 4]).astype(int)
        # CPA covers (pixel, k) iff the pixel is inside center k's window.
        ppa_winner_covered = (np.abs(xx - fx[ppa]) <= half) & (
            np.abs(yy - fy[ppa]) <= half
        )
        # PPA sees (pixel, k) iff k is among the pixel's 9 candidates.
        cand_sets = cands[pixels.tile_flat].reshape(H, W, -1)
        cpa_winner_in_cands = (cand_sets == cpa[..., None]).any(axis=-1)
        both = ppa_winner_covered & cpa_winner_in_cands & np.isfinite(dist)
        # Discard draws where the restriction is vacuous (small K makes
        # the CPA windows sparse); the property needs a representative
        # pixel population, not any particular coverage level.
        assume(both.mean() > 0.5)
        disagree = both & (ppa != cpa)
        if disagree.any():
            # Only exact distance ties may disagree (argmin slot order
            # differs between the enumerations).
            ys, xs = np.nonzero(disagree)
            for y, x in zip(ys, xs):
                da = _point_d2(lab, centers, weight, ppa[y, x], x, y)
                db = _point_d2(lab, centers, weight, cpa[y, x], x, y)
                assert da == pytest.approx(db, rel=0, abs=1e-9)


def _random_labels(seed, h, w, k):
    rng = np.random.default_rng(seed)
    return rng.integers(0, k, (h, w)).astype(np.int32)


#: ``min_size`` draws by name: the no-op values, the smallest real
#: merge, a mid value, the area and just above it (everything is
#: small), one far beyond any frame (clamped before C), and a float
#: (a typed error).
_MIN_SIZES = {
    "0": lambda area: 0,
    "1": lambda area: 1,
    "2": lambda area: 2,
    "mid": lambda area: max(2, area // 4),
    "area": lambda area: area,
    "area+1": lambda area: area + 1,
    "1e12": lambda area: 10**12,
    "float": lambda area: 2.0,
}


def _boundary_labels(seed, h, w, k, dtype, layout):
    """A random map in ``dtype`` and memory ``layout``; ``int64-wide``
    holds labels past the int32 range."""
    labels = _random_labels(seed, h, w, k).astype(np.int64)
    if dtype == "int64-wide":
        labels += 2**31
    else:
        labels = labels.astype(dtype)
    if layout == "F":
        return np.asfortranarray(labels)
    if layout == "strided":  # the same values, as a non-contiguous view
        return np.repeat(np.repeat(labels, 2, axis=0), 2, axis=1)[::2, ::2]
    return labels


class TestCclDifferential:
    """The fused connectivity entry vs the reference pass.

    The compiled entry runs the two-pass union-find CCL, the border
    adjacency, the merge walk and the relabel in one call. Every backend
    — including native-mt at 1/2/4/7 threads, so band seams land
    everywhere — must reproduce the reference's output bit for bit. A
    wrongly split or joined component changes its size, and so what
    merges where, which the small, mid and ``area + 1`` draws expose.
    Inputs the contract rejects must raise the same typed error on
    every backend, before any kernel runs.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        k=st.integers(1, 6),
        shape=st.sampled_from(["any", "row", "column"]),
        dtype=st.sampled_from(
            ["int32", "uint8", "uint16", "int64", "int64-wide"]
        ),
        layout=st.sampled_from(["C", "F", "strided"]),
        min_size=st.sampled_from(sorted(_MIN_SIZES)),
    )
    def test_all_backends_bit_identical(
        self, seed, h, w, k, shape, dtype, layout, min_size
    ):
        h = 1 if shape == "row" else h
        w = 1 if shape == "column" else w
        labels = _boundary_labels(seed, h, w, k, dtype, layout)
        before = labels.copy()
        size = _MIN_SIZES[min_size](h * w)
        error = ImageError if dtype == "int64-wide" else (
            ConfigurationError if min_size == "float" else None
        )
        for name in available_backends():
            if error is not None:
                with pytest.raises(error):
                    get_backend(name).enforce_connectivity(labels, size)
                continue
            want = reference_kernels.enforce_connectivity(labels, size)
            got = get_backend(name).enforce_connectivity(labels, size)
            assert got.dtype == np.int32 and got.flags.c_contiguous, name
            assert np.array_equal(got, want), name
        assert np.array_equal(labels, before)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 40),
        w=st.integers(1, 24),
        k=st.integers(1, 6),
        n_threads=st.sampled_from([1, 2, 4, 7]),
        min_size=st.sampled_from(["2", "mid", "area+1"]),
    )
    def test_native_mt_identical_at_any_thread_count(
        self, seed, h, w, k, n_threads, min_size
    ):
        if "native-mt" not in available_backends():
            pytest.skip("backend 'native-mt' unavailable")
        from repro.kernels import native_mt

        labels = _random_labels(seed, h, w, k)
        size = _MIN_SIZES[min_size](h * w)
        want = reference_kernels.enforce_connectivity(labels, size)
        got = native_mt.enforce_connectivity(
            labels, size, n_threads=n_threads
        )
        assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", kernel_cases())
class TestMergeChainSemantics:
    """Chain semantics of the small-component merge walk, per backend.

    The walk processes components in ascending size order and re-reads
    merged sizes, so absorptions *chain*: a small fragment can ride its
    neighbor into a third region. These shapes lock the three rules the
    hardware walk defines — chaining, equal-border tie to the lowest
    component id, and isolated components surviving untouched.
    """

    def test_small_into_small_into_large_chains(self, backend):
        # A 4-px corner fragment of label 1 whose *only* neighbor is the
        # 12-px L of label 2; 1 merges into 2 (16 px, still < 20), and
        # the combined piece must then ride into the large region — the
        # walk re-reads merged sizes, so everything lands on label 0.
        labels = np.zeros((6, 12), dtype=np.int32)
        labels[0:2, 10:12] = 1
        labels[0:4, 8:10] = 2
        labels[2:4, 10:12] = 2
        out = get_backend(backend).enforce_connectivity(labels, 20)
        assert np.array_equal(out, np.zeros_like(labels))

    def test_equal_border_tie_takes_lowest_component_id(self, backend):
        # Only the center stripe (10 px) is small; it borders component
        # 0 (left) and component 2 (right) with identical border length
        # (5 px each), so the tie must resolve to the lower component
        # id — the left region's label.
        labels = np.zeros((5, 10), dtype=np.int32)
        labels[:, 4:6] = 1
        labels[:, 6:] = 2
        out = get_backend(backend).enforce_connectivity(labels, 12)
        want = labels.copy()
        want[:, 4:6] = 0
        assert np.array_equal(out, want)

    def test_isolated_component_survives_any_min_size(self, backend):
        # A component with no neighbors (the whole image) can never be
        # merged, whatever min_size says.
        labels = np.full((4, 6), 9, dtype=np.int32)
        out = get_backend(backend).enforce_connectivity(labels, 10_000)
        assert np.array_equal(out, labels)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 7),
        min_size=st.integers(2, 40),
    )
    def test_enforce_matches_reference_backend(self, backend, seed, k, min_size):
        labels = _random_labels(seed, 18, 22, k)
        got = get_backend(backend).enforce_connectivity(labels, min_size)
        want = get_backend("reference").enforce_connectivity(labels, min_size)
        assert np.array_equal(got, want)


def _point_d2(lab, centers, weight, k, x, y):
    return float(((lab[y, x] - centers[k, 0:3]) ** 2).sum()) + weight * (
        (x - centers[k, 3]) ** 2 + (y - centers[k, 4]) ** 2
    )


class TestQuantizedTolerance:
    """The 8-bit datapath vs. the float64 reference.

    Documented tolerance (calibrated over the synthetic corpus, seeds
    0-7, K in {12..40}, compactness in the paper's operating range
    [5, 40]):

    * ``quantize_distance=False`` (full-precision compare of quantized
      inputs): >= 95% identical assignments;
    * ``quantize_distance=True`` (hardware-faithful saturating distance
      codes): >= 90% identical assignments.

    Below compactness ~5 the 8-bit datapath degrades further (distance
    codes can no longer resolve color-dominated differences) — outside
    the tolerance contract, consistent with the paper operating at m=10.
    """

    FLOORS = {False: 0.95, True: 0.90}

    @pytest.mark.parametrize("quantize_distance", [False, True])
    @pytest.mark.parametrize(
        "seed,k,m", [(0, 12, 5.0), (3, 24, 10.0), (5, 40, 25.0), (7, 16, 40.0)]
    )
    def test_assignment_agreement_floor(
        self, kernel_impl, quantize_distance, seed, k, m
    ):
        ppa_fn, _ = kernel_impl
        image = generate_scene(SceneConfig(height=H, width=W), seed=seed).image
        lab = rgb_to_lab(image)
        centers = initial_centers(lab, k)
        gh, gw, _, _ = grid_geometry((H, W), k)
        tiles = tile_map((H, W), gh, gw)
        cands = candidate_map(gh, gw)
        s = float(np.sqrt(H * W / len(centers)))
        weight = spatial_weight(m, s)
        ref_pixels = PixelArrays(lab, tiles)
        idx = np.arange(ref_pixels.n_pixels)
        ref = ppa_fn(ref_pixels, idx, cands, centers, weight)
        dp = FixedDatapath(bits=8, quantize_distance=quantize_distance)
        q_pixels = PixelArrays(lab, tiles, datapath=dp)
        got = ppa_fn(
            q_pixels, idx, cands, centers, weight, compactness=m, grid_s=s
        )
        agreement = (ref == got).mean()
        assert agreement >= self.FLOORS[quantize_distance], (
            f"8-bit datapath agreement {agreement:.4f} below documented "
            f"floor {self.FLOORS[quantize_distance]} "
            f"(quantize_distance={quantize_distance}, seed={seed}, K={k}, m={m})"
        )
