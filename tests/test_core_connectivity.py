"""Unit tests for connected components and connectivity enforcement."""

import numpy as np
import pytest

from repro.core import connected_components, enforce_connectivity
from repro.core.connectivity import ConnectivityState

from .kernel_cases import kernel_cases

BACKENDS = kernel_cases()


class TestConnectedComponents:
    def test_constant_map_single_component(self):
        comps, n = connected_components(np.zeros((6, 6), dtype=np.int32))
        assert n == 1
        assert (comps == 0).all()

    def test_two_halves(self):
        labels = np.zeros((6, 6), dtype=np.int32)
        labels[:, 3:] = 1
        comps, n = connected_components(labels)
        assert n == 2

    def test_same_label_disjoint_pieces_split(self):
        labels = np.zeros((5, 5), dtype=np.int32)
        labels[:, 2] = 1  # wall splits label 0 into two components
        comps, n = connected_components(labels)
        assert n == 3

    def test_diagonal_not_connected(self):
        # 4-connectivity: diagonal touching pieces are separate.
        labels = np.array([[1, 0], [0, 1]], dtype=np.int32)
        comps, n = connected_components(labels)
        assert n == 4

    def test_snake_is_one_component(self):
        labels = np.ones((5, 7), dtype=np.int32)
        labels[1, :-1] = 0
        labels[3, 1:] = 0
        comps, n = connected_components(labels)
        # Label 0: two rows joined? They don't touch -> 2 comps of 0, and
        # label 1 is split into 3 bands connected at the edges (column -1
        # of row 1 and column 0 of row 3 remain 1, linking bands).
        sizes = np.bincount(comps.ravel())
        assert sizes.sum() == 35
        # Components are label-pure:
        for c in range(n):
            assert len(np.unique(labels[comps == c])) == 1

    def test_component_ids_dense(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, (12, 12)).astype(np.int32)
        comps, n = connected_components(labels)
        assert sorted(np.unique(comps)) == list(range(n))


class TestEnforceConnectivity:
    def test_min_size_one_is_identity(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, (10, 10)).astype(np.int32)
        out = enforce_connectivity(labels, 1)
        assert np.array_equal(out, labels)

    def test_absorbs_single_stray_pixel(self):
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[4, 4] = 1  # lone stray
        out = enforce_connectivity(labels, 4)
        assert (out == 0).all()

    def test_keeps_large_components(self):
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[:, 4:] = 1
        out = enforce_connectivity(labels, 4)
        assert np.array_equal(out, labels)

    def test_merges_into_longest_border_neighbor(self):
        labels = np.zeros((8, 12), dtype=np.int32)
        labels[:, 6:] = 1
        # 2x2 stray of label 2 sitting mostly next to label 1.
        labels[3:5, 6:8] = 2
        out = enforce_connectivity(labels, 6)
        assert 2 not in out
        assert (out[3:5, 6:8] == 1).all()

    def test_all_fragments_reach_min_size(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 6, (24, 24)).astype(np.int32)
        out = enforce_connectivity(labels, 10)
        comps, n = connected_components(out)
        sizes = np.bincount(comps.ravel(), minlength=n)
        assert sizes.min() >= 10 or n == 1

    def test_partition_preserved_as_labels_subset(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, (16, 16)).astype(np.int32)
        out = enforce_connectivity(labels, 6)
        assert set(np.unique(out)) <= set(np.unique(labels))

    def test_chain_of_small_fragments(self):
        # Three small fragments in a row must all end up in the big region.
        labels = np.zeros((6, 20), dtype=np.int32)
        labels[2:4, 8:10] = 1
        labels[2:4, 10:12] = 2
        labels[2:4, 12:14] = 3
        out = enforce_connectivity(labels, 8)
        assert len(np.unique(out)) == 1

    def test_whole_image_smaller_than_min_size(self):
        labels = np.zeros((3, 3), dtype=np.int32)
        out = enforce_connectivity(labels, 100)
        assert np.array_equal(out, labels)

    def test_input_not_mutated(self):
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[4, 4] = 1
        before = labels.copy()
        enforce_connectivity(labels, 4)
        assert np.array_equal(labels, before)


def _ring(h=12, w=12):
    """A thick ring of label 1 (48 px) enclosing a 0-island (16 px)."""
    labels = np.zeros((h, w), dtype=np.int32)
    labels[2:-2, 2:-2] = 1
    labels[4:-4, 4:-4] = 0
    return labels


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCases:
    """Shapes that have historically broken union-find renumbering."""

    def test_ring_splits_enclosed_island(self, backend):
        labels = _ring()
        comps, n = connected_components(labels, backend=backend)
        # Outside 0, the ring of 1, and the enclosed 0 island: 3 comps.
        assert n == 3
        assert comps[0, 0] != comps[6, 6]
        assert labels[comps == comps[6, 6]].sum() == 0

    def test_thin_ring_and_island_collapse(self, backend):
        # Ring (24 px) below min_size merges into the outside (longest
        # border), then the island (25 px) has only the merged ring as a
        # neighbor — chaining must land everything on label 0.
        labels = np.zeros((11, 11), dtype=np.int32)
        labels[2:9, 2:9] = 1
        labels[3:8, 3:8] = 0
        out = enforce_connectivity(labels, 30, backend=backend)
        assert (out == 0).all()

    def test_enclosed_island_below_min_size(self, backend):
        # The island (16 px) is too small; its only neighbor is the ring,
        # so it must take the ring's label, not the outside's.
        labels = _ring()
        out = enforce_connectivity(labels, 20, backend=backend)
        comps, n = connected_components(out, backend=backend)
        assert n == 2
        assert (out[4:-4, 4:-4] == 1).all()
        assert (out[0] == 0).all()

    def test_min_size_equals_image_area(self, backend):
        # Nothing can satisfy min_size == area except a constant map;
        # everything collapses into one surviving component.
        labels = np.zeros((6, 8), dtype=np.int32)
        labels[:, 4:] = 1
        out = enforce_connectivity(labels, 48, backend=backend)
        assert len(np.unique(out)) == 1

    def test_min_size_beyond_image_area_constant_map(self, backend):
        # A single component can never be merged anywhere — it must
        # survive unchanged even when smaller than min_size.
        labels = np.full((5, 5), 7, dtype=np.int32)
        out = enforce_connectivity(labels, 10_000, backend=backend)
        assert np.array_equal(out, labels)

    def test_single_row_and_column(self, backend):
        row = np.array([[0, 0, 1, 1, 0]], dtype=np.int32)
        comps, n = connected_components(row, backend=backend)
        assert n == 3
        col = row.T.copy()
        comps_t, n_t = connected_components(col, backend=backend)
        assert n_t == 3
        assert np.array_equal(comps_t, comps.T)


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoOpSemantics:
    """Every early return must equal what the main path would produce.

    Components are label-pure, so an identity merge relabels each pixel
    with its own label: whenever nothing is below ``min_size`` the
    output IS the input. The shortcuts (``min_size <= 1``, uniform map,
    single component) exist for speed and must be observably
    indistinguishable from the main path — same values, same
    fresh-buffer ownership.
    """

    def test_min_size_leq_one_identity_fresh_buffer(self, backend):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 5, (9, 9)).astype(np.int32)
        for min_size in (0, 1):
            out = enforce_connectivity(labels, min_size, backend=backend)
            assert np.array_equal(out, labels)
            assert out is not labels
            out[0, 0] = 99  # caller owns the buffer
            assert labels[0, 0] != 99

    def test_uniform_map_identity(self, backend):
        labels = np.full((6, 7), 3, dtype=np.int32)
        out = enforce_connectivity(labels, 4, backend=backend)
        assert np.array_equal(out, labels)
        assert out is not labels

    def test_single_pixel_image(self, backend):
        labels = np.array([[5]], dtype=np.int32)
        out = enforce_connectivity(labels, 10, backend=backend)
        assert np.array_equal(out, labels)
        comps, n = connected_components(labels, backend=backend)
        assert n == 1 and comps[0, 0] == 0

    def test_single_row_merge_ties_to_lowest_component(self, backend):
        # One-row maps exercise width-only runs (no vertical unions);
        # the lone 1 borders components 0 and 2 equally — the tie must
        # go to the lowest component id (0), matching the reference walk.
        labels = np.array([[0, 0, 0, 1, 2, 2, 2, 2]], dtype=np.int32)
        out = enforce_connectivity(labels, 3, backend=backend)
        assert np.array_equal(
            out, np.array([[0, 0, 0, 0, 2, 2, 2, 2]], dtype=np.int32)
        )

    def test_main_path_identity_merge_equals_input(self, backend):
        # All components >= min_size: the main path's merge is an
        # identity relabel, indistinguishable from the shortcuts.
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[:, 4:] = 1
        out = enforce_connectivity(labels, 4, backend=backend)
        assert np.array_equal(out, labels)


def _frames(h=64, w=48, patch=None):
    """A base label map and a copy with a small patch of motion."""
    rng = np.random.default_rng(21)
    base = rng.integers(0, 6, (h, w)).astype(np.int32)
    warm = base.copy()
    if patch is not None:
        y, x = patch
        warm[y:y + 4, x:x + 4] = 5
    return base, warm


@pytest.mark.parametrize("backend", BACKENDS)
class TestConnectivityState:
    """Incremental video connectivity: the state is a pure cache —
    dropping it, evicting it, or feeding it any frame sequence never
    changes the output, only ``tiles_resolved``."""

    def test_warm_output_bit_identical_to_stateless(self, backend):
        base, warm = _frames(patch=(30, 20))
        state = ConnectivityState(band_rows=16)
        cold = enforce_connectivity(base, 8, backend=backend, state=state)
        hot = enforce_connectivity(warm, 8, backend=backend, state=state)
        assert np.array_equal(
            cold, enforce_connectivity(base, 8, backend=backend)
        )
        assert np.array_equal(
            hot, enforce_connectivity(warm, 8, backend=backend)
        )

    def test_warm_frame_resolves_strictly_fewer_tiles(self, backend):
        # The ISSUE's acceptance counter: a warm frame with small motion
        # must re-resolve strictly fewer bands than the cold frame.
        base, warm = _frames(patch=(30, 20))
        state = ConnectivityState(band_rows=16)
        enforce_connectivity(base, 8, backend=backend, state=state)
        cold_tiles = state.tiles_resolved
        assert cold_tiles == state.tiles_total  # cold = everything dirty
        enforce_connectivity(warm, 8, backend=backend, state=state)
        assert state.tiles_resolved < cold_tiles
        assert state.tiles_resolved >= 1

    def test_identical_frame_shortcut_zero_tiles(self, backend):
        base, _ = _frames()
        state = ConnectivityState(band_rows=16)
        first = enforce_connectivity(base, 8, backend=backend, state=state)
        second = enforce_connectivity(base, 8, backend=backend, state=state)
        assert state.tiles_resolved == 0
        assert np.array_equal(first, second)
        assert first is not second  # still a caller-owned buffer

    def test_min_size_change_invalidates_shortcut(self, backend):
        # Same labels, different min_size: the cached output is for the
        # old policy and must not be replayed.
        base = np.zeros((32, 32), dtype=np.int32)
        base[10:12, 10:12] = 1  # 4-px fragment
        state = ConnectivityState(band_rows=16)
        kept = enforce_connectivity(base, 2, backend=backend, state=state)
        assert 1 in kept
        merged = enforce_connectivity(base, 8, backend=backend, state=state)
        assert 1 not in merged
        assert np.array_equal(
            merged, enforce_connectivity(base, 8, backend=backend)
        )

    def test_failed_merge_retry_does_not_replay_stale_output(self, backend):
        # If enforce_connectivity dies between state.components() and
        # record_output() (kernel error mid-merge) and the frame is
        # retried with the same state, the retry sees zero dirty tiles —
        # the identical-frame shortcut must NOT hand back the previous
        # frame's output.
        base, warm = _frames(patch=(30, 20))
        state = ConnectivityState(band_rows=16)
        enforce_connectivity(base, 8, backend=backend, state=state)
        # Simulate the failure: components() runs for the new frame, but
        # the merge never completes, so record_output() is never called.
        comps, n_comps, shortcut = state.components(warm, 8, backend=backend)
        assert shortcut is None
        retry = enforce_connectivity(warm, 8, backend=backend, state=state)
        assert state.tiles_resolved == 0  # the dangerous path: all clean
        assert np.array_equal(
            retry, enforce_connectivity(warm, 8, backend=backend)
        )

    def test_shape_change_resets_cleanly(self, backend):
        big, _ = _frames(h=64, w=48)
        small = big[:32, :24].copy()
        state = ConnectivityState(band_rows=16)
        enforce_connectivity(big, 8, backend=backend, state=state)
        out = enforce_connectivity(small, 8, backend=backend, state=state)
        assert state.tiles_resolved == state.tiles_total
        assert np.array_equal(
            out, enforce_connectivity(small, 8, backend=backend)
        )

    def test_min_size_leq_one_leaves_cache_consistent(self, backend):
        base, warm = _frames(patch=(10, 10))
        state = ConnectivityState(band_rows=16)
        enforce_connectivity(base, 8, backend=backend, state=state)
        # A min_size<=1 call is a pure no-op: counters zero, caches
        # untouched, and the next real call still resolves correctly.
        out = enforce_connectivity(warm, 1, backend=backend, state=state)
        assert np.array_equal(out, warm)
        assert state.tiles_resolved == 0
        after = enforce_connectivity(warm, 8, backend=backend, state=state)
        assert np.array_equal(
            after, enforce_connectivity(warm, 8, backend=backend)
        )

    def test_long_sequence_matches_stateless(self, backend):
        # Arbitrary mixed sequence (moving patch, repeats, big jumps):
        # every stateful output equals the stateless one.
        rng = np.random.default_rng(33)
        state = ConnectivityState(band_rows=8)
        frame = rng.integers(0, 5, (40, 32)).astype(np.int32)
        for step in range(6):
            if step % 3 == 2:
                frame = rng.integers(0, 5, (40, 32)).astype(np.int32)
            elif step % 3 == 1:
                frame = frame.copy()
                frame[12:18, 8:14] = step % 5
            stateful = enforce_connectivity(
                frame, 6, backend=backend, state=state
            )
            stateless = enforce_connectivity(frame, 6, backend=backend)
            assert np.array_equal(stateful, stateless)
