"""The zero-copy shared-memory frame transport (repro.parallel.shm).

The load-bearing invariant mirrors the rest of the parallel suite:
``transport="shm"`` must be **bit-identical** to pickle and to serial on
the same inputs — moving frames through slabs instead of pipes can never
leak into results, including through the retry/watchdog/crash recovery
paths that re-ship slab refs. Multi-process tests keep frames tiny.
"""

import numpy as np
import pytest

from repro.core import SlicParams
from repro.errors import ConfigurationError, TransportError
from repro.obs import MemorySink, Tracer
from repro.parallel import (
    ParallelRunner,
    ShmTransport,
    SlabPool,
    SlabRef,
    shm_available,
    synthetic_batch,
    synthetic_streams,
)
from repro.parallel.records import FrameTask
from repro.parallel.shm import (
    HEADER_BYTES,
    decode_task,
    detach_all,
    ref_to_array,
)
from repro.resilience import FaultPlan, RetryPolicy, record_from_json, record_to_json

PARAMS = SlicParams(
    n_superpixels=40,
    max_iterations=4,
    subsample_ratio=0.5,
    convergence_threshold=0.3,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


def _tiny_streams(n_streams=2, n_frames=3, seed=1):
    return synthetic_streams(n_streams, n_frames, height=50, width=70, seed=seed)


def _assert_bit_identical(a, b):
    assert a.key == b.key
    assert a.ok and b.ok
    assert np.array_equal(a.result.labels, b.result.labels)
    assert np.array_equal(a.result.centers, b.result.centers)


# ---------------------------------------------------------------------------
# Slab pool mechanics
# ---------------------------------------------------------------------------
@needs_shm
class TestSlabPool:
    def test_acquire_release_reuses_slabs(self):
        pool = SlabPool()
        try:
            a = pool.acquire(1000)
            pool.release(a)
            b = pool.acquire(500)  # fits in the released slab
            assert b is a
            assert pool.created == 1
            assert pool.reused == 1
        finally:
            pool.close()

    def test_best_fit_prefers_smallest_adequate_slab(self):
        pool = SlabPool()
        try:
            small = pool.acquire(100)
            big = pool.acquire(100_000)
            pool.release(big)
            pool.release(small)
            got = pool.acquire(50)
            assert got is small  # not the oversized one
        finally:
            pool.close()

    def test_generation_bumps_on_every_acquire(self):
        pool = SlabPool()
        try:
            slab = pool.acquire(64)
            g1 = slab.generation
            pool.release(slab)
            slab2 = pool.acquire(64)
            assert slab2 is slab
            assert slab2.generation == g1 + 1
        finally:
            pool.close()

    def test_stale_ref_rejected_by_generation_tag(self):
        pool = SlabPool()
        try:
            slab = pool.acquire(256)
            ref = SlabRef(
                name=slab.shm.name,
                generation=slab.generation,
                offset=0,
                shape=(4, 4),
                dtype="int32",
            )
            slab.view(ref)[...] = 7
            assert np.array_equal(ref_to_array(ref), np.full((4, 4), 7))
            pool.release(slab)
            pool.acquire(256)  # recycles the slab, bumping the tag
            with pytest.raises(TransportError, match="stale slab ref"):
                ref_to_array(ref)
        finally:
            detach_all()
            pool.close()

    def test_overrun_ref_rejected(self):
        pool = SlabPool()
        try:
            slab = pool.acquire(64)
            ref = SlabRef(
                name=slab.shm.name,
                generation=slab.generation,
                offset=0,
                shape=(1 << 20,),
                dtype="int64",
            )
            with pytest.raises(TransportError, match="overruns"):
                ref_to_array(ref)
        finally:
            detach_all()
            pool.close()


# ---------------------------------------------------------------------------
# Transport encode/decode round trip (no pool, no workers)
# ---------------------------------------------------------------------------
@needs_shm
class TestShmTransportRoundTrip:
    def test_encode_decode_round_trips_image_and_warm_labels(self):
        t = ShmTransport()
        try:
            rng = np.random.default_rng(0)
            image = rng.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
            warm = rng.integers(0, 5, size=(20, 30)).astype(np.int32)
            task = FrameTask(
                stream_id=0,
                frame_index=0,
                image=image,
                params=PARAMS,
                warm_labels=warm,
            )
            slim = t.encode_task(task)
            assert slim.image is None
            assert slim.shm_image is not None
            assert slim.shm_warm_labels is not None
            assert slim.shm_result.shape == (20, 30)
            decoded = decode_task(slim)
            assert np.array_equal(decoded.image, image)
            assert np.array_equal(decoded.warm_labels, warm)
            assert not decoded.image.flags.writeable
            assert t.outstanding == 1
        finally:
            detach_all()
            t.close()

    def test_encode_is_idempotent_for_retries(self):
        t = ShmTransport()
        try:
            image = np.zeros((10, 10, 3), dtype=np.uint8)
            task = FrameTask(
                stream_id=0, frame_index=0, image=image, params=PARAMS
            )
            once = t.encode_task(task)
            twice = t.encode_task(once)  # a resubmitted watchdog victim
            assert twice is once
            assert t.frames_encoded == 1
            assert t.outstanding == 1
        finally:
            detach_all()
            t.close()

    def test_payloads_start_header_aligned(self):
        t = ShmTransport()
        try:
            image = np.zeros((8, 8, 3), dtype=np.uint8)
            task = t.encode_task(
                FrameTask(stream_id=0, frame_index=0, image=image, params=PARAMS)
            )
            assert HEADER_BYTES == 64
            assert task.shm_image.offset == 0
        finally:
            detach_all()
            t.close()


# ---------------------------------------------------------------------------
# Bit-identity: shm vs pickle vs serial
# ---------------------------------------------------------------------------
@needs_shm
class TestShmBitIdentity:
    def test_shm_matches_pickle_and_serial_on_warm_video(self):
        serial = ParallelRunner(PARAMS).run_streams(_tiny_streams())
        pickle = ParallelRunner(PARAMS, n_workers=2).run_streams(
            _tiny_streams()
        )
        shm = ParallelRunner(
            PARAMS, n_workers=2, transport="shm"
        ).run_streams(_tiny_streams())
        assert shm.transport == "shm"
        assert pickle.transport == "pickle"
        assert serial.n_ok == pickle.n_ok == shm.n_ok == 6
        for a, b, c in zip(serial.records, pickle.records, shm.records):
            _assert_bit_identical(a, b)
            _assert_bit_identical(a, c)
        # Warm chains rode through the slabs.
        for rec in shm.records:
            assert rec.warm_started == (rec.frame_index > 0)
            assert rec.transport == "shm"

    def test_worker_crash_resubmit_stays_bit_identical(self):
        """A crash mid-batch re-ships the same slab refs on retry; the
        recovered run must still match serial bit for bit."""
        serial = ParallelRunner(PARAMS).run_streams(_tiny_streams())
        chaos = ParallelRunner(
            PARAMS,
            n_workers=2,
            transport="shm",
            retry=RetryPolicy(retries=2, backoff_s=0.01),
            faults=FaultPlan.parse("crash@0:1"),
        ).run_streams(_tiny_streams())
        assert chaos.n_ok == 6
        assert chaos.retries_used >= 1
        for a, b in zip(serial.records, chaos.records):
            _assert_bit_identical(a, b)

    def test_transport_survives_checkpoint_round_trip(self):
        shm = ParallelRunner(
            PARAMS, n_workers=2, transport="shm"
        ).run_streams(_tiny_streams(1, 2))
        rec = shm.records[0]
        back = record_from_json(record_to_json(rec), params=PARAMS)
        assert back.transport == rec.transport == "shm"
        assert np.array_equal(back.result.labels, rec.result.labels)


# ---------------------------------------------------------------------------
# Selection, fallback, telemetry
# ---------------------------------------------------------------------------
class TestTransportSelection:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            ParallelRunner(PARAMS, transport="carrier-pigeon")

    def test_serial_run_uses_no_transport(self):
        res = ParallelRunner(PARAMS, transport="shm").run_batch(
            synthetic_batch(2, height=50, width=70)
        )
        assert res.n_ok == 2
        assert res.transport == "pickle"  # n_workers=1: nothing to ship

    @needs_shm
    def test_shm_selected_when_available(self):
        res = ParallelRunner(
            PARAMS, n_workers=2, transport="shm"
        ).run_streams(_tiny_streams(1, 2))
        assert res.transport == "shm"

    def test_probe_failure_falls_back_to_pickle_with_telemetry(
        self, monkeypatch
    ):
        # The runner imports shm_available from repro.parallel.shm at
        # call time, so patch it at the source module.
        import repro.parallel.shm as shm_mod

        monkeypatch.setattr(shm_mod, "shm_available", lambda: False)
        sink = MemorySink()
        res = ParallelRunner(
            PARAMS, n_workers=2, transport="shm", tracer=Tracer(sink=sink)
        ).run_streams(_tiny_streams(1, 2))
        assert res.n_ok == 2
        assert res.transport == "pickle"
        events = [e for e in sink.events if e.get("ev") == "event"]
        assert any(e.get("name") == "transport_fallback" for e in events)
