"""Unit tests for the sigma accumulators and center movement."""

import numpy as np
import pytest

from repro.core import SigmaAccumulator, center_movement
from repro.errors import ConfigurationError


class TestSigmaAccumulator:
    def test_mean_computation(self):
        acc = SigmaAccumulator(2)
        vals = np.array([[1.0, 2, 3, 4, 5], [3.0, 4, 5, 6, 7], [10, 10, 10, 10, 10]])
        labels = np.array([0, 0, 1])
        acc.add(vals, labels)
        centers = acc.compute_centers(fallback=np.zeros((2, 5)))
        assert np.allclose(centers[0], [2, 3, 4, 5, 6])
        assert np.allclose(centers[1], [10, 10, 10, 10, 10])

    def test_fallback_for_starved_cluster(self):
        acc = SigmaAccumulator(3)
        acc.add(np.ones((2, 5)), np.array([0, 0]))
        fallback = np.full((3, 5), 7.0)
        centers = acc.compute_centers(fallback)
        assert np.allclose(centers[1], 7.0)
        assert np.allclose(centers[2], 7.0)
        assert np.allclose(centers[0], 1.0)

    def test_incremental_equals_batch(self, rng):
        vals = rng.normal(size=(40, 5))
        labels = rng.integers(0, 4, 40)
        batch = SigmaAccumulator(4)
        batch.add(vals, labels)
        incremental = SigmaAccumulator(4)
        incremental.add(vals[:15], labels[:15])
        incremental.add(vals[15:], labels[15:])
        fb = np.zeros((4, 5))
        assert np.allclose(batch.compute_centers(fb), incremental.compute_centers(fb))

    def test_reset(self):
        acc = SigmaAccumulator(2)
        acc.add(np.ones((3, 5)), np.array([0, 1, 1]))
        acc.reset()
        assert acc.counts.sum() == 0
        assert acc.sums.sum() == 0.0

    def test_empty_add_is_noop(self):
        acc = SigmaAccumulator(2)
        acc.add(np.zeros((0, 5)), np.zeros(0, dtype=int))
        assert acc.counts.sum() == 0

    def test_bad_values_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            SigmaAccumulator(2).add(np.zeros((3, 4)), np.zeros(3, dtype=int))

    def test_label_value_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SigmaAccumulator(2).add(np.zeros((3, 5)), np.zeros(4, dtype=int))

    def test_rejects_zero_clusters(self):
        with pytest.raises(ConfigurationError):
            SigmaAccumulator(0)


class TestAccumulateDispatch:
    """SigmaAccumulator.accumulate == add on the materialized matrix."""

    def _inputs(self, seed=0, h=9, w=14, k=7):
        rng = np.random.default_rng(seed)
        lab_flat = rng.standard_normal((h * w, 3)) * 25.0
        labels = rng.integers(0, k, size=h * w).astype(np.int32)
        vals = np.empty((h * w, 5))
        vals[:, 0:3] = lab_flat
        vals[:, 3] = np.arange(h * w) % w
        vals[:, 4] = np.arange(h * w) // w
        return lab_flat, labels, vals, w, k

    def test_reference_kernel_matches_add(self):
        from repro.core.accumulators import sigma_accumulate_reference

        lab_flat, labels, vals, w, k = self._inputs()
        acc = SigmaAccumulator(k)
        acc.add(vals, labels)
        sums, counts = sigma_accumulate_reference(
            labels, k, w, lab_flat=lab_flat
        )
        assert np.array_equal(sums, acc.sums)
        assert np.array_equal(counts, acc.counts)

    def test_accumulate_folds_bitwise_like_add(self):
        """Folding sigma_accumulate partials across batches equals
        repeated add() — including nonzero starting registers (the
        S-SLIC sweep carry)."""
        from repro.kernels import get_backend

        lab_flat, labels, vals, w, k = self._inputs(seed=3)
        idx = np.arange(0, len(labels), 2, dtype=np.int64)
        via_add = SigmaAccumulator(k)
        via_add.add(vals, labels)
        via_add.add(vals[idx], labels[: len(idx)])
        via_kernel = SigmaAccumulator(k)
        kernels = get_backend("reference")
        via_kernel.fold(*kernels.sigma_accumulate(
            labels, k, w, lab_flat=lab_flat
        ))
        via_kernel.fold(*kernels.sigma_accumulate(
            labels[: len(idx)], k, w, idx=idx, lab_flat=lab_flat
        ))
        assert np.array_equal(via_kernel.sums, via_add.sums)
        assert np.array_equal(via_kernel.counts, via_add.counts)

    def test_accumulate_fixed_codes_matches_values5_semantics(self):
        from repro.color.hw_convert import LabEncoding
        from repro.kernels import get_backend

        rng = np.random.default_rng(5)
        enc = LabEncoding(8)
        h, w, k = 8, 11, 5
        codes_flat = rng.integers(
            0, enc.code_max + 1, size=(h * w, 3)
        ).astype(np.int64)
        labels = rng.integers(0, k, size=h * w).astype(np.int32)
        vals = np.empty((h * w, 5))
        vals[:, 0:3] = enc.decode(codes_flat)
        vals[:, 3] = np.arange(h * w) % w
        vals[:, 4] = np.arange(h * w) // w
        via_add = SigmaAccumulator(k)
        via_add.add(vals, labels)
        via_kernel = SigmaAccumulator(k)
        via_kernel.fold(*get_backend("reference").sigma_accumulate(
            labels, k, w, codes_flat=codes_flat, encoding=enc,
        ))
        assert np.array_equal(via_kernel.sums, via_add.sums)
        assert np.array_equal(via_kernel.counts, via_add.counts)


class TestCenterMovement:
    def test_zero_for_identical(self):
        c = np.random.default_rng(0).normal(size=(5, 5))
        assert center_movement(c, c) == 0.0

    def test_spatial_only(self):
        old = np.zeros((2, 5))
        new = old.copy()
        new[:, 0:3] = 100.0  # color moves are ignored
        assert center_movement(old, new) == 0.0
        new2 = old.copy()
        new2[0, 3] = 3.0
        new2[0, 4] = 4.0
        assert center_movement(old, new2) == pytest.approx(2.5)  # mean(5, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            center_movement(np.zeros((2, 5)), np.zeros((3, 5)))
