"""Unit tests for the PPA tile / 9-candidate structures."""

import numpy as np
import pytest

from repro.core import candidate_map, dynamic_candidate_map, tile_map
from repro.core.neighbors import (
    GEOMETRY_CACHE_SLOTS,
    clear_geometry_cache,
    ppa_geometry,
)


class TestTileMap:
    def test_shape_and_range(self):
        tiles = tile_map((40, 60), 4, 6)
        assert tiles.shape == (40, 60)
        assert tiles.min() == 0
        assert tiles.max() == 23

    def test_row_major_ordering(self):
        tiles = tile_map((20, 20), 2, 2)
        assert tiles[0, 0] == 0
        assert tiles[0, -1] == 1
        assert tiles[-1, 0] == 2
        assert tiles[-1, -1] == 3

    def test_tiles_balanced(self):
        tiles = tile_map((40, 60), 4, 6)
        counts = np.bincount(tiles.ravel())
        assert counts.min() >= 0.8 * counts.max()

    def test_every_tile_nonempty(self):
        tiles = tile_map((13, 17), 3, 4)
        assert len(np.unique(tiles)) == 12


class TestCandidateMap:
    def test_shape(self):
        cands = candidate_map(4, 6)
        assert cands.shape == (24, 9)

    def test_interior_tile_has_nine_distinct(self):
        cands = candidate_map(4, 6)
        center_tile = 1 * 6 + 2  # (1, 2) interior
        assert len(set(cands[center_tile])) == 9

    def test_interior_candidates_are_3x3_block(self):
        gw = 6
        cands = candidate_map(4, gw)
        t = 2 * gw + 3
        expected = {
            (2 + dy) * gw + (3 + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
        }
        assert set(cands[t]) == expected

    def test_corner_tile_clamps(self):
        cands = candidate_map(4, 6)
        corner = set(cands[0].tolist())
        # Clamped 3x3 around (0,0): only tiles {0, 1, 6, 7}.
        assert corner == {0, 1, 6, 7}

    def test_own_tile_always_candidate(self):
        cands = candidate_map(5, 7)
        for t in range(35):
            assert t in cands[t]

    def test_1x1_grid(self):
        cands = candidate_map(1, 1)
        assert (cands == 0).all()


class TestDynamicCandidates:
    def test_matches_static_on_unmoved_grid(self):
        from repro.core import grid_geometry, initial_centers

        lab = np.zeros((40, 60, 3))
        centers = initial_centers(lab, 24)
        gh, gw, _, _ = grid_geometry((40, 60), 24)
        static = candidate_map(gh, gw)
        dynamic = dynamic_candidate_map(centers, gh, gw, (40, 60))
        # Same candidate sets for *interior* tiles (order may differ:
        # dynamic sorts by distance). Border tiles legitimately differ —
        # static clamps to duplicates, dynamic takes the 9 distinct
        # nearest.
        for gy in range(1, gh - 1):
            for gx in range(1, gw - 1):
                t = gy * gw + gx
                assert set(static[t]) == set(dynamic[t].tolist())

    def test_tracks_moved_centers(self):
        from repro.core import grid_geometry, initial_centers

        lab = np.zeros((40, 60, 3))
        centers = initial_centers(lab, 24)
        gh, gw, _, _ = grid_geometry((40, 60), 24)
        # Teleport cluster 0 to the far corner: it should vanish from tile
        # 0's dynamic candidates.
        centers = centers.copy()
        centers[0, 3] = 59.0
        centers[0, 4] = 39.0
        dynamic = dynamic_candidate_map(centers, gh, gw, (40, 60))
        assert 0 not in dynamic[0]

    def test_first_candidate_is_closest(self):
        from repro.core import initial_centers

        rng = np.random.default_rng(0)
        centers = np.zeros((12, 5))
        centers[:, 3] = rng.uniform(0, 60, 12)
        centers[:, 4] = rng.uniform(0, 40, 12)
        dynamic = dynamic_candidate_map(centers, 3, 4, (40, 60))
        ty = (np.arange(3) + 0.5) * 40 / 3
        tx = (np.arange(4) + 0.5) * 60 / 4
        for t in range(12):
            mid = np.array([tx[t % 4], ty[t // 4]])
            d = np.hypot(centers[:, 3] - mid[0], centers[:, 4] - mid[1])
            assert dynamic[t][0] == np.argmin(d)

    def test_fewer_than_nine_clusters_pads(self):
        centers = np.zeros((4, 5))
        centers[:, 3] = [10, 30, 10, 30]
        centers[:, 4] = [10, 10, 30, 30]
        dyn = dynamic_candidate_map(centers, 2, 2, (40, 40))
        assert dyn.shape == (4, 9)
        assert dyn.max() < 4


class TestGeometryMemo:
    """ppa_geometry: one shared, read-only, bounded entry per geometry."""

    def test_built_once_and_equal_to_fresh_maps(self):
        clear_geometry_cache()
        a = ppa_geometry((40, 60), 4, 6, 4, "strided")
        assert ppa_geometry((40, 60), 4, 6, 4, "strided") is a
        assert np.array_equal(a.tiles, tile_map((40, 60), 4, 6))
        assert np.array_equal(a.candidates, candidate_map(4, 6))
        assert a.schedule.n_subsets == 4

    def test_key_covers_every_input(self):
        base = ppa_geometry((20, 30), 2, 3, 2, "random", seed=1)
        for other in (
            ppa_geometry((20, 30), 2, 3, 2, "random", seed=2),
            ppa_geometry((20, 30), 2, 3, 2, "rows", seed=1),
            ppa_geometry((20, 30), 2, 3, 3, "random", seed=1),
            ppa_geometry((20, 30), 3, 3, 2, "random", seed=1),
            ppa_geometry((21, 30), 2, 3, 2, "random", seed=1),
        ):
            assert other is not base
        # The seed only matters to the random strategy.
        assert ppa_geometry((20, 30), 2, 3, 2, "rows", seed=5) is \
            ppa_geometry((20, 30), 2, 3, 2, "rows", seed=1)

    def test_arrays_are_read_only(self):
        g = ppa_geometry((40, 60), 4, 6, 4, "strided")
        for arr in (g.tiles, g.candidates, g.schedule.subset(1)):
            with pytest.raises(ValueError):
                arr.flat[0] = 1

    def test_bounded_least_recently_used(self):
        clear_geometry_cache()
        first = ppa_geometry((20, 30), 2, 3, 2, "strided")
        for h in range(21, 21 + GEOMETRY_CACHE_SLOTS):
            newest = ppa_geometry((h, 30), 2, 3, 2, "strided")
        # The newer geometries filled every slot and pushed the first out.
        assert ppa_geometry((h, 30), 2, 3, 2, "strided") is newest
        assert ppa_geometry((20, 30), 2, 3, 2, "strided") is not first
