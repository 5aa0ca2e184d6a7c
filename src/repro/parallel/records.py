"""Task and result records crossing the worker-process boundary.

Everything here must pickle cleanly: a :class:`FrameTask` travels parent
-> worker, a :class:`FrameRecord` travels back. Failures are *data* — a
crashed or rejected frame comes back as a record with ``ok=False`` and
the error message, never as an exception that would wedge the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.params import SlicParams
from ..core.result import SegmentationResult

__all__ = ["FrameTask", "FrameRecord", "BatchResult"]


@dataclass(frozen=True)
class FrameTask:
    """One frame's worth of work, shipped to a worker process.

    ``warm_centers`` / ``warm_labels`` carry the predecessor frame's
    state when the stream scheduler decided on a warm start (``None``
    for cold starts). ``collect_trace`` asks the worker to record its
    span tree in-memory and return the events with the record;
    ``profile`` carries the parent tracer's span profiling into that
    worker tracer (see :mod:`repro.obs.profile`).

    ``attempt`` is the 0-based execution attempt (retries re-ship the
    same frame with ``attempt + 1``); ``fault`` is an optional
    :class:`repro.resilience.FaultSpec` the worker-side injection hook
    applies before running (chaos testing — ``None`` in production).

    ``trace_id`` / ``parent_span_id`` carry the parent's trace context
    across the process boundary (both transports ship them — they ride
    the pickled task, and the shm transport additionally stamps the
    trace tag into the slab header). The worker's collecting tracer
    joins ``trace_id``, prefixes its span ids with
    ``s<stream>f<frame>a<attempt>.`` (attempt-tagged, so watchdog
    resubmissions and retries never collide), and parents its root
    spans at ``parent_span_id`` — the parent-side ``frame`` span — so
    the merged trace is one stitched tree, not a pile of orphans.

    Under the zero-copy transport (``transport="shm"``), ``image`` and
    ``warm_labels`` are ``None`` and the ``shm_*`` fields carry
    :class:`~repro.parallel.shm.SlabRef` pointers instead: the worker
    attaches the slabs by name and reads the payloads in place
    (``shm_result`` names the pre-sized slab it writes labels into).
    """

    stream_id: int
    frame_index: int
    image: np.ndarray
    params: SlicParams
    warm_centers: np.ndarray | None = None
    warm_labels: np.ndarray | None = None
    collect_trace: bool = False
    profile: bool = False
    attempt: int = 0
    fault: object = None
    trace_id: str | None = None
    parent_span_id: str | None = None
    shm_image: object = None
    shm_warm_labels: object = None
    shm_result: object = None


@dataclass
class FrameRecord:
    """The outcome of one frame — success or failure, never an exception.

    Attributes
    ----------
    stream_id, frame_index:
        Position of the frame in the batch (records are returned sorted
        by this pair, regardless of completion order).
    ok:
        True when ``result`` holds a :class:`SegmentationResult`.
    result:
        The segmentation result, or ``None`` on failure.
    error, error_type:
        Failure message and exception class name (``ok=False`` only).
        A worker process that died mid-frame yields
        ``error_type="WorkerCrash"``; a frame whose worker blew through
        the runner's deadline yields ``error_type="FrameTimeout"``.
    warm_started:
        Whether this frame warm-started from its predecessor.
    elapsed_s:
        Wall-clock seconds the frame spent inside the worker (compute
        only — queueing and transfer excluded). 0.0 for crashed frames.
    worker_pid:
        PID of the process that ran the frame (the parent's PID in
        serial mode).
    trace_events:
        The worker's span/metric events when tracing was requested.
    kernel_backend:
        Concrete kernel backend name the worker ran with (``None`` for
        frames that failed before backend resolution).
    n_threads:
        Effective kernel threads the frame ran with when
        ``kernel_backend`` is ``"native-mt"`` ("one process per stream,
        threads per frame"); ``None`` for ``reference``.
    attempts:
        How many executions this frame consumed (> 1 means the retry
        policy recovered — or exhausted itself on — transient failures).
    quarantined:
        True when the frame failed every allowed attempt under an
        active retry policy — a poison frame, excluded from further
        retrying.
    demoted_from:
        When the kernel backend supervisor demoted the requested
        backend (failed load or self-test), the backend that was
        demoted; ``kernel_backend`` then names the survivor.
    transport:
        How the frame's arrays crossed the process boundary:
        ``"shm"`` for the zero-copy slab transport, ``None`` for
        pickle/serial (the default path).
    shm_labels:
        In-flight only: the :class:`~repro.parallel.shm.SlabRef` of the
        labels the worker wrote into the result slab. The parent
        materializes ``result.labels`` from it at finalize time and
        clears this field — records handed to callers never carry refs.
    """

    stream_id: int
    frame_index: int
    ok: bool
    result: SegmentationResult = None
    error: str | None = None
    error_type: str | None = None
    warm_started: bool = False
    elapsed_s: float = 0.0
    worker_pid: int = 0
    trace_events: list = field(default_factory=list)
    kernel_backend: str | None = None
    n_threads: int | None = None
    attempts: int = 1
    quarantined: bool = False
    demoted_from: str | None = None
    transport: str | None = None
    shm_labels: object = None

    @property
    def key(self) -> tuple:
        return (self.stream_id, self.frame_index)


@dataclass
class BatchResult:
    """Everything a :class:`~repro.parallel.ParallelRunner` run produced.

    ``records`` is sorted by ``(stream_id, frame_index)`` — deterministic
    regardless of worker scheduling. ``elapsed_s`` is the parent's
    wall-clock for the whole batch; ``throughput_fps`` counts *completed*
    frames against it.
    """

    records: list
    n_workers: int
    elapsed_s: float
    max_in_flight: int = 0
    pool_restarts: int = 0
    retries_used: int = 0
    timeouts: int = 0
    resumed_frames: int = 0
    #: Concrete transport the run used ("pickle" or "shm"); a requested
    #: shm transport that fell back reports "pickle" here, with the
    #: fallback visible in telemetry (parallel.transport_fallbacks).
    transport: str = "pickle"

    @property
    def n_frames(self) -> int:
        return len(self.records)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def n_failed(self) -> int:
        return self.n_frames - self.n_ok

    @property
    def throughput_fps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.n_ok / self.elapsed_s

    @property
    def results(self) -> list:
        """Successful :class:`SegmentationResult`s in deterministic order."""
        return [r.result for r in self.records if r.ok]

    @property
    def failures(self) -> list:
        """Failed records in deterministic order."""
        return [r for r in self.records if not r.ok]

    @property
    def n_quarantined(self) -> int:
        """Poison frames: failed every allowed attempt under retrying."""
        return sum(1 for r in self.records if r.quarantined)

    @property
    def n_recovered(self) -> int:
        """Frames that failed at least once but ended ``ok=True``."""
        return sum(1 for r in self.records if r.ok and r.attempts > 1)

    def stream(self, stream_id: int) -> list:
        """All records of one stream, in frame order."""
        return [r for r in self.records if r.stream_id == stream_id]

    def __repr__(self) -> str:
        return (
            f"BatchResult(frames={self.n_frames}, ok={self.n_ok}, "
            f"failed={self.n_failed}, workers={self.n_workers}, "
            f"fps={self.throughput_fps:.2f})"
        )
