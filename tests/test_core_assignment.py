"""Unit tests for the CPA / PPA assignment passes."""

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def setup(small_scene):
    lab = rgb_to_lab(small_scene.image)
    h, w = lab.shape[:2]
    k = 24
    centers = initial_centers(lab, k)
    gh, gw, _, _ = grid_geometry((h, w), k)
    tiles = tile_map((h, w), gh, gw)
    cands = candidate_map(gh, gw)
    s = float(np.sqrt(h * w / len(centers)))
    weight = spatial_weight(10.0, s)
    return lab, centers, tiles, cands, s, weight


class TestAssignPpa:
    def test_labels_come_from_candidates(self, setup):
        lab, centers, tiles, cands, s, weight = setup
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        chosen = assign_ppa(pixels, idx, cands, centers, weight)
        allowed = cands[pixels.tile_flat]
        assert all(
            chosen[i] in allowed[i] for i in range(0, len(idx), 97)
        )

    def test_subset_assignment_matches_full(self, setup):
        """Assigning a subset gives the same labels as the corresponding
        rows of a full assignment (pure function of pixel + centers)."""
        lab, centers, tiles, cands, s, weight = setup
        pixels = PixelArrays(lab, tiles)
        all_idx = np.arange(pixels.n_pixels)
        full = assign_ppa(pixels, all_idx, cands, centers, weight)
        sub_idx = all_idx[::3]
        sub = assign_ppa(pixels, sub_idx, cands, centers, weight)
        assert np.array_equal(sub, full[::3])

    def test_chunking_invariance(self, setup, monkeypatch):
        lab, centers, tiles, cands, s, weight = setup
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        a = assign_ppa(pixels, idx, cands, centers, weight)
        import repro.core.assignment as mod

        monkeypatch.setattr(mod, "_PPA_CHUNK", 1000)
        b = assign_ppa(pixels, idx, cands, centers, weight)
        assert np.array_equal(a, b)

    def test_minimizes_over_candidates(self, setup):
        """Each chosen candidate actually has minimal distance."""
        lab, centers, tiles, cands, s, weight = setup
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(0, pixels.n_pixels, 53)
        chosen = assign_ppa(pixels, idx, cands, centers, weight)
        for j, i in enumerate(idx):
            cand = cands[pixels.tile_flat[i]]
            px_lab = pixels.lab_flat[i]
            px_xy = np.array([pixels.x_flat[i], pixels.y_flat[i]], dtype=float)
            d2 = ((centers[cand, 0:3] - px_lab) ** 2).sum(1) + weight * (
                (centers[cand, 3:5] - px_xy) ** 2
            ).sum(1)
            assert d2[list(cand).index(chosen[j])] <= d2.min() + 1e-9

    def test_fixed_datapath_path_runs(self, setup):
        lab, centers, tiles, cands, s, weight = setup
        dp = FixedDatapath(bits=8)
        pixels = PixelArrays(lab, tiles, datapath=dp)
        idx = np.arange(pixels.n_pixels)
        chosen = assign_ppa(
            pixels, idx, cands, centers, weight, compactness=10.0, grid_s=s
        )
        assert chosen.shape == idx.shape
        # Fixed and float paths agree for the overwhelming majority.
        float_pixels = PixelArrays(lab, tiles)
        ref = assign_ppa(float_pixels, idx, cands, centers, weight)
        assert (chosen == ref).mean() > 0.9

    def test_pixel_arrays_view_the_frame(self, setup):
        """Preparing a frame copies nothing: lab_flat views a
        C-contiguous float64 image, the int32 tile map is kept as given,
        and the coordinate arrays are built only when first read."""
        lab, centers, tiles, cands, s, weight = setup
        pixels = PixelArrays(lab, tiles)
        assert np.shares_memory(pixels.lab_flat, lab)
        assert np.shares_memory(pixels.tiles, tiles)
        assert "x_flat" not in vars(pixels)
        h, w = lab.shape[:2]
        yy, xx = np.mgrid[0:h, 0:w]
        assert np.array_equal(pixels.x_flat, xx.ravel())
        assert np.array_equal(pixels.y_flat, yy.ravel())
        assert np.array_equal(pixels.tile_flat, tiles.ravel())
        assert pixels.tile_flat.dtype == np.int64


class TestAssignCpa:
    def test_full_scan_assigns_everything(self, setup):
        lab, centers, tiles, cands, s, weight = setup
        h, w = lab.shape[:2]
        dist = np.full((h, w), np.inf)
        labels = tiles.astype(np.int32).copy()
        assign_cpa(lab, centers, weight, s, dist, labels)
        assert np.isfinite(dist).all()
        assert labels.min() >= 0
        assert labels.max() < len(centers)

    def test_agrees_with_ppa_on_grid_init(self, setup):
        """Right after grid initialization, CPA and PPA must produce the
        same assignment wherever CPA's window covers the PPA winner (the
        9-candidate set contains the true nearest center on a grid)."""
        lab, centers, tiles, cands, s, weight = setup
        h, w = lab.shape[:2]
        dist = np.full((h, w), np.inf)
        labels_cpa = tiles.astype(np.int32).copy()
        assign_cpa(lab, centers, weight, s, dist, labels_cpa)
        pixels = PixelArrays(lab, tiles)
        labels_ppa = assign_ppa(
            pixels, np.arange(pixels.n_pixels), cands, centers, weight
        ).reshape(h, w)
        agreement = (labels_cpa == labels_ppa).mean()
        # Not 1.0: with the paper's 2S x 2S window a pixel whose nearest
        # center is a *diagonal* grid neighbor (up to ~1.5S away on one
        # axis) falls outside that center's scan, so CPA keeps its
        # second-best — PPA's 9-candidate set still sees the winner.
        assert agreement > 0.97

    def test_scan_extent_is_2s_by_2s(self):
        """Regression pin for the paper's 2S x 2S window (Section 2,
        Figure 1a): a pixel just beyond ceil(S) of a center's integer
        position must be unreachable in one scan. The seed implementation
        scanned ceil(2S) each side, which would have claimed it."""
        h, w = 40, 64
        lab = np.zeros((h, w, 3))
        s = 5.0
        half = int(np.ceil(s))
        centers = np.array([[0.0, 0.0, 0.0, 30.3, 20.7]])
        fx, fy = 30, 20
        dist = np.full((h, w), np.inf)
        labels = np.full((h, w), -1, dtype=np.int32)
        n = assign_cpa(lab, centers, 1.0, s, dist, labels)
        touched = labels != -1
        ys, xs = np.nonzero(touched)
        assert xs.min() == fx - half and xs.max() == fx + half
        assert ys.min() == fy - half and ys.max() == fy + half
        # Just beyond the window on each axis: unreachable in one scan.
        assert not touched[fy, fx + half + 1]
        assert not touched[fy + half + 1, fx]
        # Inside S < distance <= 2S (reachable under the old 4S x 4S
        # deviation): must stay unassigned.
        assert not touched[fy, fx + 2 * half]
        assert n == int(touched.sum()) == (2 * half + 1) ** 2

    def test_cluster_subset_only_affects_windows(self, setup):
        lab, centers, tiles, cands, s, weight = setup
        h, w = lab.shape[:2]
        dist = np.full((h, w), np.inf)
        labels = np.full((h, w), -1, dtype=np.int32)
        assign_cpa(lab, centers, weight, s, dist, labels, cluster_indices=np.array([0]))
        touched = labels != -1
        assert touched.any()
        # Touched region confined to cluster 0's window.
        ys, xs = np.nonzero(touched)
        assert xs.max() <= centers[0, 3] + 2 * s + 1
        assert ys.max() <= centers[0, 4] + 2 * s + 1

    def test_fixed_datapath_cpa(self, setup):
        lab, centers, tiles, cands, s, weight = setup
        dp = FixedDatapath(bits=8)
        codes = dp.encode_image(lab)
        h, w = lab.shape[:2]
        dist = np.full((h, w), np.iinfo(np.int64).max, dtype=np.int64)
        labels = tiles.astype(np.int32).copy()
        assign_cpa(
            lab, centers, weight, s, dist, labels,
            datapath=dp, compactness=10.0, codes=codes,
        )
        assert labels.max() < len(centers)
