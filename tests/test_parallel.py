"""Tests for the repro.parallel batch/video execution engine.

The load-bearing invariant: parallel output is **bit-identical** to
serial output for the same inputs, seeds, and params — scheduling must
never leak into results. Multi-process tests keep frames tiny so they
stay fast even on a single-core CI box.
"""

import os

import numpy as np
import pytest

from repro.core import SlicParams, StreamSegmenter
from repro.data import SceneConfig, VideoSequence
from repro.errors import ConfigurationError, DatasetError
from repro.obs import MemorySink, Tracer
from repro.parallel import (
    BatchResult,
    FrameRecord,
    ParallelRunner,
    load_image_batch,
    run_frame,
    synthetic_batch,
    synthetic_streams,
)

PARAMS = SlicParams(
    n_superpixels=40,
    max_iterations=4,
    subsample_ratio=0.5,
    convergence_threshold=0.3,
)


def _tiny_batch(n=3, seed=2):
    return synthetic_batch(n, height=50, width=70, seed=seed)


class TestSerialRunner:
    def test_batch_of_images(self):
        batch = ParallelRunner(PARAMS).run_batch(_tiny_batch(3))
        assert batch.n_frames == 3
        assert batch.n_ok == 3
        assert batch.n_failed == 0
        assert [r.key for r in batch.records] == [(0, 0), (1, 0), (2, 0)]
        for r in batch.records:
            assert r.result.labels.shape == (50, 70)
            assert not r.warm_started
            assert r.worker_pid == os.getpid()

    def test_run_dispatches_on_input_shape(self):
        runner = ParallelRunner(PARAMS)
        images = _tiny_batch(2)
        assert runner.run(images).n_frames == 2
        assert runner.run([[images[0]], [images[1]]]).n_frames == 2

    def test_stream_frames_warm_start_in_order(self):
        streams = synthetic_streams(2, 3, height=50, width=70, seed=1)
        batch = ParallelRunner(PARAMS).run_streams(streams)
        assert [r.key for r in batch.records] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]
        for r in batch.records:
            assert r.warm_started == (r.frame_index > 0)

    def test_matches_stream_segmenter_exactly(self):
        """The runner's warm chain is the StreamSegmenter's warm chain."""
        cfg = SceneConfig(height=50, width=70, noise=0.0)
        seq = VideoSequence(3, config=cfg, motion="shake", seed=1)
        batch = ParallelRunner(PARAMS).run_streams(
            [[f.image for f in seq]]
        )
        seg = StreamSegmenter(PARAMS)
        for i, frame in enumerate(seq):
            ref = seg.process(frame.image)
            rec = batch.records[i]
            assert np.array_equal(ref.labels, rec.result.labels)
            assert np.array_equal(ref.centers, rec.result.centers)

    def test_failed_frame_breaks_warm_chain(self):
        good = _tiny_batch(1)[0]
        # Same H, W (so the strict shape check passes) but not RGB: the
        # failure comes back from the *worker*, not the planner.
        bad = np.zeros((50, 70, 4))
        batch = ParallelRunner(PARAMS).run_streams([[good, bad, good]])
        assert [r.ok for r in batch.records] == [True, False, True]
        assert batch.records[1].error_type == "ImageError"
        # The frame after the failure cold-starts.
        assert not batch.records[2].warm_started

    def test_mixed_resolution_stream_fails_loudly(self):
        frames = [_tiny_batch(1)[0], synthetic_batch(1, height=40, width=60)[0]]
        batch = ParallelRunner(PARAMS).run_streams([frames])
        rec = batch.records[1]
        assert not rec.ok
        assert rec.error_type == "StreamError"
        assert "resolution" in rec.error

    def test_mixed_resolution_allowed_when_not_strict(self):
        frames = [_tiny_batch(1)[0], synthetic_batch(1, height=40, width=60)[0]]
        batch = ParallelRunner(PARAMS, strict_shape=False).run_streams([frames])
        assert batch.n_ok == 2
        assert not batch.records[1].warm_started  # re-anchored instead

    def test_backpressure_cap_respected(self):
        batch = ParallelRunner(PARAMS, max_pending=2).run_batch(_tiny_batch(5))
        assert batch.n_ok == 5
        assert batch.max_in_flight <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner("nope")
        with pytest.raises(ConfigurationError):
            ParallelRunner(PARAMS, n_workers=0)
        with pytest.raises(ConfigurationError):
            ParallelRunner(PARAMS, max_pending=0)
        with pytest.raises(ConfigurationError):
            ParallelRunner(PARAMS, max_pool_restarts=-1)

    def test_batch_result_accessors(self):
        batch = ParallelRunner(PARAMS).run_batch(_tiny_batch(2))
        assert len(batch.results) == 2
        assert batch.failures == []
        assert len(batch.stream(1)) == 1
        assert batch.throughput_fps > 0
        assert "BatchResult" in repr(batch)
        empty = BatchResult(records=[], n_workers=1, elapsed_s=0.0)
        assert empty.throughput_fps == 0.0


class TestWorkerFunction:
    def test_run_frame_success_and_failure(self):
        from repro.parallel import FrameTask

        image = _tiny_batch(1)[0]
        ok = run_frame(FrameTask(0, 0, image, PARAMS))
        assert ok.ok and ok.result is not None and ok.elapsed_s > 0
        bad = run_frame(FrameTask(0, 1, np.zeros((4, 4)), PARAMS))
        assert not bad.ok and bad.error_type == "ImageError"
        assert bad.result is None

    def test_run_frame_collects_trace(self):
        from repro.parallel import FrameTask

        image = _tiny_batch(1)[0]
        rec = run_frame(FrameTask(0, 0, image, PARAMS, collect_trace=True))
        assert rec.ok
        span_names = {e["name"] for e in rec.trace_events
                      if e.get("ev") == "span"}
        assert "segmentation" in span_names


class TestParallelExecution:
    """Multi-process paths (2 workers; fine on one core, just slower)."""

    def test_bit_identical_to_serial(self):
        images = _tiny_batch(4)
        serial = ParallelRunner(PARAMS, n_workers=1).run_batch(images)
        parallel = ParallelRunner(PARAMS, n_workers=2).run_batch(images)
        assert serial.n_ok == parallel.n_ok == 4
        for a, b in zip(serial.records, parallel.records):
            assert a.key == b.key
            assert np.array_equal(a.result.labels, b.result.labels)
            assert np.array_equal(a.result.centers, b.result.centers)

    def test_streams_bit_identical_to_serial(self):
        mk = lambda: synthetic_streams(2, 2, height=50, width=70, seed=4)
        serial = ParallelRunner(PARAMS, n_workers=1).run_streams(mk())
        parallel = ParallelRunner(PARAMS, n_workers=2).run_streams(mk())
        for a, b in zip(serial.records, parallel.records):
            assert a.key == b.key
            assert np.array_equal(a.result.labels, b.result.labels)

    def test_bad_frame_does_not_poison_pool(self):
        images = _tiny_batch(3)
        images[1] = np.zeros((8, 8))
        batch = ParallelRunner(PARAMS, n_workers=2).run_batch(images)
        assert batch.n_failed == 1
        assert batch.records[1].error_type == "ImageError"
        assert batch.records[0].ok and batch.records[2].ok

    def test_worker_crash_returns_error_record(self):
        """A worker that dies mid-frame must not hang the pool.

        The pending cap keeps most of the batch out of the doomed pool,
        so the restart has work left to prove recovery with.
        """
        batch = ParallelRunner(
            PARAMS, n_workers=2, max_pending=2, faults="crash@1:0"
        ).run_batch(_tiny_batch(6))
        assert batch.n_frames == 6
        crashed = [r for r in batch.failures if r.error_type == "WorkerCrash"]
        assert crashed, "expected at least the injected crash"
        assert any(r.stream_id == 1 for r in crashed)
        # At most the pending window died with the pool; the rebuilt pool
        # ran everything that was not in flight.
        assert len(crashed) <= 2
        assert batch.n_ok >= 4
        assert batch.pool_restarts >= 1

    def test_trace_merge_has_resolvable_parents(self):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            ParallelRunner(
                PARAMS, n_workers=2, tracer=tracer,
                collect_worker_traces=True,
            ).run_batch(_tiny_batch(2))
        spans = sink.by_type("span")
        names = [s["name"] for s in spans]
        assert names.count("frame") == 2
        assert names.count("batch") == 1
        assert names.count("segmentation") == 2
        ids = {s["id"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                assert s["parent"] in ids
        counters = {e["name"]: e["value"] for e in sink.by_type("counter")}
        assert counters["parallel.frames_completed"] == 2
        assert counters["worker.engine.sweeps"] >= 2
        gauges = {e["name"] for e in sink.by_type("gauge")}
        assert "parallel.throughput_fps" in gauges

    @pytest.mark.slow
    def test_stress_many_streams(self):
        """Stress: more streams than workers, mixed lengths, with failures."""
        params = PARAMS.with_(n_superpixels=25, max_iterations=2)
        streams = synthetic_streams(6, 3, height=40, width=56, seed=9)
        # Poison one stream's middle frame.
        poisoned = [
            synthetic_batch(1, height=40, width=56, seed=99)[0],
            np.zeros((3, 3)),
            synthetic_batch(1, height=40, width=56, seed=100)[0],
        ]
        batch = ParallelRunner(
            params, n_workers=4, max_pending=5
        ).run_streams(list(streams) + [poisoned])
        assert batch.n_frames == 6 * 3 + 3
        assert batch.n_failed == 1
        assert batch.max_in_flight <= 5
        serial = ParallelRunner(params, max_pending=5).run_streams(
            list(synthetic_streams(6, 3, height=40, width=56, seed=9))
            + [poisoned]
        )
        for a, b in zip(serial.records, batch.records):
            assert a.key == b.key and a.ok == b.ok
            if a.ok:
                assert np.array_equal(a.result.labels, b.result.labels)


class TestBatchHelpers:
    def test_synthetic_batch_distinct_and_deterministic(self):
        a = synthetic_batch(3, height=40, width=50, seed=7)
        b = synthetic_batch(3, height=40, width=50, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], a[1])

    def test_synthetic_batch_validation(self):
        with pytest.raises(DatasetError):
            synthetic_batch(0)
        with pytest.raises(DatasetError):
            synthetic_streams(0, 2)

    def test_load_image_batch_roundtrip(self, tmp_path):
        from repro.data import write_ppm

        images = _tiny_batch(2)
        write_ppm(tmp_path / "b.ppm", images[1])
        write_ppm(tmp_path / "a.ppm", images[0])
        loaded = load_image_batch(tmp_path)
        assert len(loaded) == 2
        assert np.array_equal(loaded[0], images[0])  # sorted by name
        glob_loaded = load_image_batch(str(tmp_path / "*.ppm"))
        assert len(glob_loaded) == 2

    def test_load_image_batch_empty_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_image_batch(tmp_path)


def test_frame_record_key():
    rec = FrameRecord(stream_id=2, frame_index=5, ok=False, error="x")
    assert rec.key == (2, 5)
