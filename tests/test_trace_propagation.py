"""Cross-process trace stitching: one trace, resolvable parents.

The acceptance contract of the telemetry PR: a multi-worker run — under
the pickle AND the shm transport — produces a *single* stitched trace.
Every worker-side span carries the parent's ``trace`` id, every parent
id resolves inside the merged event set, worker roots hang off the
parent-side ``frame`` span, and retried executions stay distinguishable
via the attempt tag baked into the span-id prefix.
"""

import re

import numpy as np
import pytest

from repro.core import SlicParams
from repro.obs import MemorySink, Tracer
from repro.parallel import ParallelRunner, run_frame, synthetic_batch
from repro.parallel.records import FrameTask
from repro.parallel.shm import shm_available

from .test_obs_profile import PROFILE_KEYS

PARAMS = SlicParams(
    n_superpixels=30,
    max_iterations=3,
    subsample_ratio=0.5,
    convergence_threshold=0.3,
)

WORKER_ID_RE = re.compile(r"^s(\d+)f(\d+)a(\d+)\.")


def _run_traced(transport, n_workers=4, n_frames=6, retry=None, faults=None,
                profile=False):
    sink = MemorySink()
    with Tracer(sink, profile=profile) as tracer:
        batch = ParallelRunner(
            PARAMS,
            n_workers=n_workers,
            tracer=tracer,
            collect_worker_traces=True,
            transport=transport,
            retry=retry,
            faults=faults,
        ).run_batch(synthetic_batch(n_frames, height=48, width=64, seed=3))
    return batch, sink, tracer


def assert_single_stitched_trace(sink, tracer, n_frames):
    spans = sink.by_type("span")
    by_id = {s["id"]: s for s in spans}

    # One trace id, everywhere: batch span, frame spans, worker spans.
    traces = {s.get("trace") for s in spans}
    assert traces == {tracer.trace_id}

    # Every parent resolves inside the merged set — no orphans.
    for s in spans:
        if s["parent"] is not None:
            assert s["parent"] in by_id, (
                f"span {s['id']} ({s['name']}) has unresolvable parent "
                f"{s['parent']}"
            )

    # Worker spans are recognizable by their attempt-tagged prefix, and
    # each worker root hangs off its parent-side frame span.
    worker_spans = [s for s in spans if WORKER_ID_RE.match(s["id"])]
    assert worker_spans, "no worker spans were merged"
    frame_spans = {s["id"]: s for s in spans if s["name"] == "frame"}
    assert len(frame_spans) == n_frames
    worker_roots = [
        s for s in worker_spans if not WORKER_ID_RE.match(s["parent"] or "")
    ]
    for root in worker_roots:
        assert root["parent"] in frame_spans, (
            f"worker root {root['id']} not parented at a frame span"
        )
    return spans, worker_spans


class TestStitchedTracePickle:
    def test_four_workers_single_trace(self):
        n = 6
        batch, sink, tracer = _run_traced("pickle", n_workers=4, n_frames=n)
        assert batch.n_ok == n
        spans, worker_spans = assert_single_stitched_trace(sink, tracer, n)
        # Real multi-process run: worker spans came from other pids.
        pids = {
            s["attrs"].get("worker_pid")
            for s in spans
            if s["name"] == "frame"
        }
        assert pids  # recorded at all

    def test_serial_runner_also_stitches(self):
        n = 3
        batch, sink, tracer = _run_traced("pickle", n_workers=1, n_frames=n)
        assert batch.n_ok == n
        assert_single_stitched_trace(sink, tracer, n)


@pytest.mark.skipif(not shm_available(), reason="shm transport unavailable")
class TestStitchedTraceShm:
    def test_four_workers_single_trace(self):
        n = 6
        batch, sink, tracer = _run_traced("shm", n_workers=4, n_frames=n)
        assert batch.n_ok == n
        assert batch.transport == "shm"
        assert_single_stitched_trace(sink, tracer, n)

    def test_slab_header_carries_trace_tag(self):
        from repro.parallel.shm import ShmTransport, slab_trace_id

        transport = ShmTransport()
        try:
            image = synthetic_batch(1, height=32, width=40, seed=5)[0]
            task = FrameTask(
                stream_id=0,
                frame_index=0,
                image=image,
                params=PARAMS,
                trace_id="c0ffee0123456789",
            )
            encoded = transport.encode_task(task)
            assert slab_trace_id(encoded.shm_image.name) == "c0ffee0123456789"
            assert slab_trace_id(encoded.shm_result.name) == "c0ffee0123456789"
        finally:
            transport.close()


class TestWorkerSpanProfiling:
    """Span profiling crosses the process boundary with the trace."""

    @pytest.mark.parametrize("profile", [True, False])
    def test_worker_spans_follow_parent_profiling(self, profile):
        n = 2
        batch, sink, tracer = _run_traced(
            "pickle", n_workers=2, n_frames=n, profile=profile
        )
        assert batch.n_ok == n
        _, worker_spans = assert_single_stitched_trace(sink, tracer, n)
        names = {s["name"] for s in worker_spans}
        assert {"segmentation", "sweep", "subiteration"} <= names
        assert any(name.startswith("phase:") for name in names)
        for span in worker_spans:
            carried = PROFILE_KEYS & set(span["attrs"])
            assert carried == (PROFILE_KEYS if profile else set()), (
                span["name"], span["id"], sorted(carried)
            )


class TestRetryAttemptTags:
    def test_retried_frames_keep_attempts_distinguishable(self):
        from repro.resilience import FaultPlan, RetryPolicy

        n = 4
        sink = MemorySink()
        with Tracer(sink) as tracer:
            batch = ParallelRunner(
                PARAMS,
                n_workers=2,
                tracer=tracer,
                collect_worker_traces=True,
                retry=RetryPolicy(retries=2, backoff_s=0.0),
                faults=FaultPlan.parse("error@0:1"),
            ).run_streams([synthetic_batch(n, height=48, width=64, seed=7)])
        assert batch.n_ok == n
        assert batch.retries_used >= 1
        assert_single_stitched_trace(sink, tracer, n)
        attempts = {
            m.group(3)
            for m in (
                WORKER_ID_RE.match(s["id"]) for s in sink.by_type("span")
            )
            if m
        }
        # The retried execution ran under attempt tag a1 (or later),
        # alongside the first attempts' a0 — ids never collided.
        assert "0" in attempts
        assert attempts - {"0"}, "no retried worker spans were merged"

    def test_worker_task_trace_fields_survive_pickle_roundtrip(self):
        import pickle

        image = synthetic_batch(1, height=32, width=40, seed=5)[0]
        task = FrameTask(
            stream_id=2,
            frame_index=5,
            image=image,
            params=PARAMS,
            collect_trace=True,
            attempt=1,
            trace_id="feedface01234567",
            parent_span_id="b.s2f5",
        )
        task = pickle.loads(pickle.dumps(task))
        record = run_frame(task, in_worker=False)
        assert record.ok
        assert record.trace_events
        span_events = [e for e in record.trace_events if e["ev"] == "span"]
        for ev in span_events:
            assert ev["trace"] == "feedface01234567"
            assert ev["id"].startswith("s2f5a1.")
        roots = [e for e in span_events if not str(
            e["parent"] or ""
        ).startswith("s2f5a1.")]
        assert roots
        assert all(e["parent"] == "b.s2f5" for e in roots)
