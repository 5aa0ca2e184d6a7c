"""Tests for the temporal streaming segmenter."""

import numpy as np
import pytest

from repro.core import (
    SlicParams,
    StreamSegmenter,
    expected_cluster_count,
    run_segmentation,
)
from repro.data import SceneConfig, VideoSequence
from repro.errors import ConfigurationError, ReproError, StreamError

CFG = SceneConfig(height=80, width=120, n_regions=8, n_disks=1, noise=0.0)
PARAMS = SlicParams(n_superpixels=60, subsample_ratio=0.5, convergence_threshold=0.3)


def _run(motion, n=5, amplitude=3.0, **kw):
    seq = VideoSequence(n, config=CFG, motion=motion, amplitude=amplitude, seed=3)
    seg = StreamSegmenter(PARAMS, **kw)
    results = [seg.process(f.image) for f in seq]
    return seg, results


class TestStreamSegmenter:
    def test_first_frame_cold(self):
        seg, _ = _run("static", n=2)
        assert not seg.history[0].warm_started
        assert seg.history[1].warm_started

    def test_warm_start_reduces_sweeps_on_static_stream(self):
        seg, _ = _run("static", n=4)
        cold = seg.history[0].sweeps
        warm = [h.sweeps for h in seg.history[1:]]
        assert min(warm) < cold

    def test_shake_stream_stays_warm(self):
        seg, _ = _run("shake", n=6)
        assert seg.reanchor_count == 0
        assert all(h.warm_started for h in seg.history[1:])

    def test_pan_stream_reanchors(self):
        seg, _ = _run("pan", n=8, amplitude=4.0)
        assert seg.reanchor_count >= 1
        # Drift resets after each re-anchor.
        drifts = [h.mean_drift_px for h in seg.history]
        assert max(drifts) > 0

    def test_results_valid_every_frame(self):
        seg, results = _run("shake", n=4)
        for r in results:
            assert r.labels.shape == (80, 120)
            assert r.labels.max() < r.n_superpixels

    def test_reset_forces_cold_start(self):
        seq = VideoSequence(3, config=CFG, motion="static", seed=3)
        seg = StreamSegmenter(PARAMS)
        seg.process(seq[0].image)
        seg.reset()
        seg.process(seq[1].image)
        assert not seg.history[1].warm_started

    def test_shape_change_reanchors(self):
        seg = StreamSegmenter(PARAMS)
        seq = VideoSequence(1, config=CFG, seed=3)
        seg.process(seq[0].image)
        other = VideoSequence(
            1, config=SceneConfig(height=64, width=96, n_regions=8, noise=0.0), seed=3
        )
        result = seg.process(other[0].image)
        assert result.labels.shape == (64, 96)
        assert not seg.history[1].warm_started

    def test_geometry_memo_is_a_pure_cache(self):
        # Rebuilding the per-geometry PPA structures before every frame
        # must not change a single label or center.
        from repro.core.neighbors import clear_geometry_cache

        seq = VideoSequence(4, config=CFG, motion="shake", seed=3)
        cached = StreamSegmenter(PARAMS)
        rebuilt = StreamSegmenter(PARAMS)
        for frame in seq:
            a = cached.process(frame.image)
            clear_geometry_cache()
            b = rebuilt.process(frame.image)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.centers, b.centers)

    def test_mean_sweeps_empty(self):
        assert StreamSegmenter(PARAMS).mean_sweeps == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamSegmenter("not params")
        with pytest.raises(ConfigurationError):
            StreamSegmenter(PARAMS, drift_limit=0.0)


class TestWarmStartEdgeCases:
    """ISSUE-2 satellite: the inputs that used to die in numpy must now
    either re-anchor cleanly or raise a repro.errors error."""

    def _frame(self, height=80, width=120, seed=3):
        cfg = SceneConfig(height=height, width=width, n_regions=8, noise=0.0)
        return VideoSequence(1, config=cfg, motion="static", seed=seed)[0].image

    def test_first_frame_plan_is_cold(self):
        seg = StreamSegmenter(PARAMS)
        plan = seg.plan((80, 120))
        assert not plan.warm
        assert not plan.reanchor  # nothing to re-anchor *from*
        assert plan.warm_centers is None and plan.warm_labels is None
        assert plan.mean_drift_px == 0.0
        assert plan.frame_index == 0

    def test_first_frame_not_counted_as_reanchor(self):
        seg = StreamSegmenter(PARAMS)
        seg.process(self._frame())
        assert seg.reanchor_count == 0
        assert not seg.history[0].warm_started

    def test_plan_is_pure(self):
        """plan() must not advance state — two calls, same answer."""
        seg = StreamSegmenter(PARAMS)
        seg.process(self._frame())
        a = seg.plan((80, 120))
        b = seg.plan((80, 120))
        assert a.warm and b.warm
        assert a.frame_index == b.frame_index == 1
        assert np.array_equal(a.warm_centers, b.warm_centers)

    def test_k_mismatch_between_frames_reanchors(self):
        """Changing K mid-stream invalidates stored centers; the next
        plan must cold-start instead of feeding a wrong-K array to the
        engine (which would raise deep inside)."""
        seg = StreamSegmenter(PARAMS)
        seg.process(self._frame())
        seg.params = PARAMS.with_(n_superpixels=24)
        plan = seg.plan((80, 120))
        assert plan.reanchor and not plan.warm
        result = run_segmentation(self._frame(), seg.params)
        seg.commit(plan, result)
        assert seg.history[1].reanchored
        # The chain recovers: same-K frames warm-start again.
        assert seg.plan((80, 120)).warm

    def test_resolution_change_strict_raises_stream_error(self):
        seg = StreamSegmenter(PARAMS, strict_shape=True)
        seg.process(self._frame())
        with pytest.raises(StreamError) as exc:
            seg.plan((64, 96))
        msg = str(exc.value)
        assert "resolution" in msg and "(64, 96)" in msg and "(80, 120)" in msg

    def test_stream_error_is_a_repro_error(self):
        assert issubclass(StreamError, ReproError)
        from repro import StreamError as top_level

        assert top_level is StreamError

    def test_resolution_change_default_reanchors_not_broadcasts(self):
        """Non-strict mode: a resolution change silently re-anchors —
        no numpy broadcast error from stale centers/labels."""
        seg = StreamSegmenter(PARAMS)
        seg.process(self._frame())
        result = seg.process(self._frame(height=64, width=96))
        assert result.labels.shape == (64, 96)
        assert seg.history[1].reanchored
        assert not seg.history[1].warm_started

    def test_strict_segmenter_recovers_after_reset(self):
        seg = StreamSegmenter(PARAMS, strict_shape=True)
        seg.process(self._frame())
        with pytest.raises(StreamError):
            seg.plan((64, 96))
        seg.reset()
        result = seg.process(self._frame(height=64, width=96))
        assert result.labels.shape == (64, 96)

    def test_engine_rejects_wrong_k_warm_centers(self):
        """The engine-level guard behind the K-mismatch plan rule: a
        warm_centers array of the wrong grid-realized K raises a clear
        ConfigurationError, not a numpy shape error."""
        frame = self._frame()
        good = run_segmentation(frame, PARAMS)
        bad_k = expected_cluster_count(frame.shape, PARAMS.n_superpixels) + 3
        with pytest.raises(ConfigurationError) as exc:
            run_segmentation(
                frame, PARAMS, warm_centers=good.centers[: len(good.centers) - 2]
            )
        assert "grid-realized" in str(exc.value)
        assert bad_k != len(good.centers)
