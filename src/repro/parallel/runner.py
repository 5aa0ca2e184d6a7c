"""The parallel batch/video execution engine.

:class:`ParallelRunner` shards work across a ``concurrent.futures``
process pool under three rules that together give the package its
guarantees (see ``docs/parallel.md``):

1. **Per-stream ordering** — frames of one stream run strictly in order,
   each warm-starting from its committed predecessor via the same
   :meth:`~repro.core.streaming.StreamSegmenter.plan` /
   :meth:`~repro.core.streaming.StreamSegmenter.commit` pair the serial
   streaming driver uses. Parallelism comes from *independent* streams
   (a batch of still images is a batch of one-frame streams).
2. **Bounded in-flight work** — at most ``max_pending`` frames are
   submitted at a time, so a huge batch never materializes more than a
   pool's worth of images in the executor's queues (backpressure).
3. **Failure as data** — a frame that raises comes back as a
   ``FrameRecord(ok=False)``; a worker process that *dies* breaks the
   pool, which the runner detects, converts to ``WorkerCrash`` records
   for the in-flight frames, and recovers from by restarting the pool
   (falling back to in-process execution when restarts are exhausted).
   A failed frame breaks its stream's warm chain; the next frame of that
   stream cold-starts.

The hardened layer (``repro.resilience``, see ``docs/resilience.md``)
adds: a **per-frame deadline** with a watchdog (a hung worker becomes a
``FrameTimeout`` record and the pool is torn down instead of blocking
``wait()`` forever), **bounded retries** with exponential backoff and a
batch-wide budget (transient failures recover; exhausted frames are
quarantined as poison), a **JSONL checkpoint journal** with
:meth:`resume` (a killed batch restarts from completed frames with
bit-identical records), and **deterministic fault injection** through a
:class:`~repro.resilience.FaultPlan` so every one of those paths is a
reproducible test case.

Because a frame's output is a pure function of
``(image, params, warm state)`` and warm state follows the serial chain,
the collected records are **bit-identical** to a serial run of the same
batch — asserted by ``tests/test_parallel.py`` and the throughput bench.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np

from ..core.params import SlicParams
from ..core.streaming import StreamSegmenter
from ..errors import CheckpointError, ConfigurationError, ImageError, StreamError
from ..obs.tracer import NULL_TRACER
from .records import BatchResult, FrameRecord, FrameTask
from .worker import run_frame

__all__ = ["ParallelRunner"]


class _StreamState:
    """Scheduler-side state of one stream."""

    __slots__ = ("stream_id", "frames", "cursor", "segmenter", "in_flight")

    def __init__(self, stream_id, frames, segmenter):
        self.stream_id = stream_id
        self.frames = iter(frames)
        self.cursor = 0  # index of the next frame to submit
        self.segmenter = segmenter
        self.in_flight = False

    def next_frame(self):
        """The next frame image, or ``None`` when the stream is drained."""
        try:
            return next(self.frames)
        except StopIteration:
            return None


class ParallelRunner:
    """Run batches of images / video streams across a worker pool.

    Parameters
    ----------
    params:
        :class:`SlicParams` applied to every frame. Defaults to the
        streaming default (S-SLIC(0.5), 0.3 px convergence threshold).
    n_workers:
        Worker process count. ``1`` (default) runs every frame in the
        parent process through the *same* scheduler — the serial
        reference the parallel path is bit-identical to.
    max_pending:
        In-flight frame cap (backpressure). Defaults to ``2 * n_workers``.
    drift_limit, strict_shape:
        Forwarded to each stream's :class:`StreamSegmenter`. Strict shape
        checking is ON by default here (a mid-stream resolution change
        produces a clear per-frame ``StreamError`` record).
    tracer:
        Optional :class:`repro.obs.Tracer`; the run emits a ``batch``
        span, ``parallel.*`` counters/gauges, one ``frame`` span per
        frame, and — with ``collect_worker_traces`` — each worker's own
        span tree remapped into the parent trace.
    collect_worker_traces:
        Ship every frame's in-worker span tree back with its record and
        merge it into the parent trace. Costs pickling bandwidth;
        defaults to off.
    max_pool_restarts:
        How many times a broken pool (crashed worker process) is rebuilt
        before the runner falls back to in-process execution for the
        remaining frames. Watchdog teardowns count as restarts.
    frame_timeout:
        Per-frame deadline in seconds (``None`` disables the watchdog —
        the seed behavior). A worker that blows through it is declared
        hung: the pool is torn down (its processes terminated), the
        frame becomes a ``FrameTimeout`` record, and innocent in-flight
        frames are resubmitted without an attempt penalty.
    retry:
        A :class:`repro.resilience.RetryPolicy`, or an int shorthand for
        ``RetryPolicy(retries=n)``. ``None`` / 0 disables retrying.
        Transient failures (worker crash, timeout, unexpected
        exceptions) are re-run with exponential backoff; deterministic
        failures (``ImageError``, ``StreamError``) are not. A frame that
        fails every allowed attempt is quarantined
        (``FrameRecord.quarantined``).
    checkpoint:
        Path of a JSONL checkpoint journal. Every finalized record is
        appended as it completes; :meth:`resume` restarts a killed batch
        from the journal's completed frames.
    faults:
        A :class:`repro.resilience.FaultPlan` (or compact spec string —
        see :meth:`FaultPlan.parse`) of deterministic faults to inject.
        Chaos testing only; ``None`` in production.
    transport:
        How frame arrays cross the process boundary. ``"pickle"``
        (default) serializes images/labels through the executor's pipes;
        ``"shm"`` moves them through ``multiprocessing.shared_memory``
        slabs (zero-copy — see :mod:`repro.parallel.shm`), falling back
        to pickle (with ``parallel.transport_fallbacks`` telemetry) when
        shared memory is unavailable or slab allocation fails;
        ``"auto"`` picks shm when available. Serial runs
        (``n_workers=1``) always use in-process arrays — no transport.
    n_threads:
        Kernel threads per frame for the ``native-mt`` backend — the
        "one process per stream, threads per frame" sweet spot: a
        single process (or one per stream) fans each frame out over
        in-process threads with zero serialization, instead of paying
        process-pool transport per frame. Merged into ``params``
        (``SlicParams.n_threads``); recorded per frame on
        ``FrameRecord.n_threads`` and in frame-span telemetry; ``1``
        runs the compiled kernels serially. Ignored by the numpy
        backends.
    """

    def __init__(
        self,
        params: SlicParams = None,
        n_workers: int = 1,
        max_pending: int | None = None,
        drift_limit: float = 0.6,
        strict_shape: bool = True,
        tracer=None,
        collect_worker_traces: bool = False,
        max_pool_restarts: int = 2,
        frame_timeout: float | None = None,
        retry=None,
        checkpoint=None,
        faults=None,
        transport: str = "pickle",
        n_threads: int | None = None,
    ):
        if params is not None and not isinstance(params, SlicParams):
            raise ConfigurationError(
                f"params must be a SlicParams, got {type(params).__name__}"
            )
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {max_pool_restarts}"
            )
        if frame_timeout is not None and frame_timeout <= 0:
            raise ConfigurationError(
                f"frame_timeout must be > 0 seconds, got {frame_timeout}"
            )
        if transport not in ("pickle", "shm", "auto"):
            raise ConfigurationError(
                f"transport must be 'pickle', 'shm', or 'auto', got {transport!r}"
            )
        self.transport = transport
        # Resolve the default once so serial and parallel runs, and every
        # stream, share the exact same params object.
        self.params = params if params is not None else SlicParams(
            subsample_ratio=0.5, architecture="ppa", convergence_threshold=0.3
        )
        # Pin the kernel backend to a concrete name up front: workers then
        # inherit the parent's choice instead of re-deciding per process,
        # and an explicitly requested but unavailable backend fails fast
        # here rather than once per frame inside the pool.
        from ..kernels import resolve_name

        self.params = self.params.with_(
            kernel_backend=resolve_name(self.params.kernel_backend)
        )
        if n_threads is not None:
            self.params = self.params.with_(n_threads=int(n_threads))
        self.n_workers = int(n_workers)
        self.max_pending = (
            int(max_pending) if max_pending is not None else 2 * self.n_workers
        )
        self.drift_limit = drift_limit
        self.strict_shape = bool(strict_shape)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.collect_worker_traces = bool(collect_worker_traces)
        self.max_pool_restarts = int(max_pool_restarts)
        self.frame_timeout = (
            float(frame_timeout) if frame_timeout is not None else None
        )

        from ..resilience.policy import RetryPolicy

        if retry is None:
            self.retry_policy = RetryPolicy()
        elif isinstance(retry, int):
            self.retry_policy = RetryPolicy(retries=retry)
        elif isinstance(retry, RetryPolicy):
            self.retry_policy = retry
        else:
            raise ConfigurationError(
                f"retry must be a RetryPolicy or int, got {type(retry).__name__}"
            )

        self.checkpoint = checkpoint
        if faults is not None:
            from ..resilience.faults import FaultInjector

            self.fault_injector = FaultInjector(faults, tracer=self.tracer)
        else:
            self.fault_injector = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run_batch(self, images) -> BatchResult:
        """Segment independent images (each its own one-frame stream)."""
        return self.run_streams([[image] for image in images])

    def run_streams(self, streams, _resume: bool = False) -> BatchResult:
        """Segment several frame streams with per-stream warm starting.

        ``streams`` is a sequence of frame iterables. Frames are pulled
        lazily — a stream generator is advanced only when its previous
        frame has been collected, so memory stays bounded by the
        in-flight cap, not the batch size.
        """
        states = [
            _StreamState(
                sid,
                frames,
                StreamSegmenter(
                    self.params,
                    drift_limit=self.drift_limit,
                    strict_shape=self.strict_shape,
                ),
            )
            for sid, frames in enumerate(streams)
        ]

        journal = None
        replayed = []
        if self.checkpoint is not None:
            from ..resilience.checkpoint import CheckpointJournal

            if _resume:
                replayed = self._replay_journal(states)
                journal = CheckpointJournal.open_append(
                    self.checkpoint, self.params
                )
            else:
                journal = CheckpointJournal.start(self.checkpoint, self.params)
        elif _resume:
            raise CheckpointError(
                "resume() requires the runner to be constructed with a "
                "checkpoint= journal path"
            )

        transport, transport_name = self._resolve_transport()
        try:
            with self.tracer.span(
                "batch",
                n_streams=len(states),
                n_workers=self.n_workers,
                max_pending=self.max_pending,
                resumed_frames=len(replayed),
                transport=transport_name,
            ) as batch_span:
                start = time.perf_counter()
                stats = self._drive(states, batch_span, journal, transport)
                elapsed = time.perf_counter() - start
        finally:
            if journal is not None:
                journal.close()
            if transport is not None:
                transport.close()
        records = replayed + stats["records"]
        records.sort(key=lambda r: r.key)
        result = BatchResult(
            records=records,
            n_workers=self.n_workers,
            elapsed_s=elapsed,
            max_in_flight=stats["max_in_flight"],
            pool_restarts=stats["restarts"],
            retries_used=stats["retries"],
            timeouts=stats["timeouts"],
            resumed_frames=len(replayed),
            transport=transport_name if not stats["transport_fallback"] else "pickle",
        )
        self.tracer.gauge("parallel.throughput_fps", result.throughput_fps)
        self.tracer.gauge("parallel.workers", self.n_workers)
        return result

    def _resolve_transport(self):
        """Pick the concrete transport for one run.

        Returns ``(ShmTransport | None, name)``. The shm path mirrors
        kernel-backend demotion: an explicit (or auto) shm request that
        cannot be honored falls back to pickle and leaves a trace —
        a ``transport_fallback`` event + ``parallel.transport_fallbacks``
        counter — rather than failing the batch.
        """
        if self.transport == "pickle" or self.n_workers == 1:
            return None, "pickle"
        from .shm import ShmTransport, shm_available

        if shm_available():
            try:
                return ShmTransport(tracer=self.tracer), "shm"
            except Exception as exc:
                reason = str(exc)
        else:
            reason = "shared memory unavailable (no usable /dev/shm)"
        self.tracer.count(
            "parallel.transport_fallbacks",
            labels={"requested": self.transport, "fallback": "pickle"},
        )
        self.tracer.event(
            "transport_fallback",
            requested=self.transport,
            fallback="pickle",
            reason=reason,
        )
        return None, "pickle"

    def resume(self, streams) -> BatchResult:
        """Restart a killed batch from its checkpoint journal.

        Re-supply the *same* streams the original run was given. Frames
        the journal shows completed (per-stream contiguous prefixes) are
        replayed — their records return bit-identical, and the warm
        chains they established are reconstructed through the same
        plan/commit protocol — then the remaining frames execute
        normally, appending to the same journal.
        """
        return self.run_streams(streams, _resume=True)

    def run(self, batch) -> BatchResult:
        """Dispatch on batch shape: images -> :meth:`run_batch`, frame
        streams -> :meth:`run_streams`."""
        batch = list(batch)
        if batch and isinstance(batch[0], np.ndarray):
            return self.run_batch(batch)
        return self.run_streams(batch)

    # ------------------------------------------------------------------
    # Resume replay
    # ------------------------------------------------------------------
    def _replay_journal(self, states) -> list:
        """Advance ``states`` past journaled frames; returns their records."""
        from ..resilience.checkpoint import completed_prefixes, load_journal

        prior = load_journal(self.checkpoint, self.params)
        prefixes = completed_prefixes(prior)
        replayed = []
        for state in states:
            for rec in prefixes.get(state.stream_id, []):
                if state.next_frame() is None:
                    break  # journal covers more frames than the stream has
                if rec.ok:
                    # plan() is a pure function of (segmenter state,
                    # shape), so replaying plan+commit reconstructs the
                    # exact warm chain the original run produced.
                    plan = state.segmenter.plan(rec.result.labels.shape)
                    state.segmenter.commit(plan, rec.result)
                else:
                    state.segmenter.reset()  # original chain broke here
                state.cursor += 1
                replayed.append(rec)
                self.tracer.count("resilience.frames_resumed")
        return replayed

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    @staticmethod
    def _frame_span_id(batch_span, stream_id: int, frame_index: int) -> str:
        """Stable parent-trace id of one frame's ``frame`` span.

        Scoped under the batch span's id so several batches through one
        tracer never collide; stable across attempts (the *worker* span
        ids carry the attempt tag, the frame span is the final record).
        """
        batch_id = getattr(batch_span, "span_id", None) or "b"
        return f"{batch_id}.s{stream_id}f{frame_index}"

    def _make_task(self, state: _StreamState, image, batch_span,
                   attempt: int = 0):
        """Plan the frame against the stream's warm state; returns
        ``(FrameTask, FramePlan)``."""
        plan = state.segmenter.plan(np.asarray(image).shape)
        tracer = self.tracer
        return FrameTask(
            stream_id=state.stream_id,
            frame_index=state.cursor,
            image=image,
            params=self.params,
            warm_centers=plan.warm_centers,
            warm_labels=plan.warm_labels,
            collect_trace=self.collect_worker_traces,
            attempt=attempt,
            trace_id=tracer.trace_id if tracer.enabled else None,
            parent_span_id=(
                self._frame_span_id(batch_span, state.stream_id, state.cursor)
                if tracer.enabled
                else None
            ),
        ), plan

    def _validate_frame(self, image):
        """Submission-time frame validation (satellite: fail in the
        parent with a clear ``ImageError`` instead of a worker traceback).
        Returns the error, or ``None`` when the frame is shippable."""
        from ..types import validate_rgb_image

        try:
            validate_rgb_image(np.asarray(image))
        except ImageError as exc:
            return exc
        return None

    @staticmethod
    def _teardown_executor(executor) -> None:
        """Hard-stop a pool: terminate its processes, abandon its futures.

        ``shutdown(wait=False)`` alone leaves hung workers running (and
        their sleep/loop holding resources); terminating the processes is
        what actually unsticks a hung frame. ``_processes`` is stdlib-
        private, so reach for it defensively.
        """
        for proc in list(
            (getattr(executor, "_processes", None) or {}).values()
        ):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _drive(self, states, batch_span, journal, transport=None):
        """The scheduling loop shared by serial and parallel execution."""
        policy = self.retry_policy
        injector = self.fault_injector
        records = []
        max_in_flight = 0
        restarts = 0
        retries_used = 0
        timeouts = 0
        # Mid-run fallback: when slab allocation fails, stop encoding new
        # frames (already-encoded frames still finalize through the
        # transport, whose slabs stay valid until close()).
        transport_active = transport is not None
        transport_fell_back = False
        pending = {}  # future -> (state, plan, task, deadline)
        retry_queue = []  # (due_monotonic, state, plan, task)
        executor = None
        serial_fallback = self.n_workers == 1

        def now():
            return time.monotonic()

        def collect(state, plan, record):
            if record.ok:
                state.segmenter.commit(plan, record.result)
            else:
                # Broken warm chain: the next frame of this stream
                # cold-starts (identical policy in serial and parallel).
                state.segmenter.reset()
                self.tracer.count("parallel.frames_failed")
            self.tracer.count("parallel.frames_completed")
            self._emit_frame_telemetry(record, batch_span)
            if journal is not None:
                journal.append(record)
            records.append(record)
            state.cursor += 1
            state.in_flight = False

        def finish(state, plan, task, record):
            """Route one attempt's outcome: retry, quarantine, or collect."""
            nonlocal retries_used
            will_retry = not record.ok and policy.should_retry(
                record.error_type, task.attempt, retries_used
            )
            if not will_retry and transport is not None:
                # Final outcome for this frame: materialize labels out of
                # the result slab and recycle both slabs. (A retried
                # attempt keeps its slabs outstanding — the resubmission
                # re-ships the same refs under the same generation.)
                record = transport.finalize(task, record)
            if will_retry:
                retries_used += 1
                self.tracer.count(
                    "resilience.retries",
                    labels={"error_type": record.error_type or "unknown"},
                )
                next_attempt = task.attempt + 1
                next_task = replace(
                    task,
                    attempt=next_attempt,
                    fault=(
                        injector.fault_for(
                            task.stream_id, task.frame_index, next_attempt,
                            in_worker=not serial_fallback,
                        )
                        if injector is not None
                        else None
                    ),
                )
                due = now() + policy.delay(next_attempt)
                retry_queue.append((due, state, plan, next_task))
                # The stream stays blocked until the retry resolves —
                # without this, the scheduler would pull its next frame
                # while this one waits out its backoff (serial execution
                # never set the flag on the way in).
                state.in_flight = True
                return
            if (
                not record.ok
                and policy.retries > 0
                and policy.retryable(record.error_type)
                and task.attempt >= policy.retries
            ):
                record.quarantined = True
                self.tracer.count(
                    "resilience.quarantined",
                    labels={"error_type": record.error_type or "unknown"},
                )
            collect(state, plan, record)

        def failed_plan_record(state, exc):
            return FrameRecord(
                stream_id=state.stream_id,
                frame_index=state.cursor,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                worker_pid=os.getpid(),
                warm_started=state.segmenter.has_state,
            )

        def crash_record(task, detail="worker process died"):
            return FrameRecord(
                stream_id=task.stream_id,
                frame_index=task.frame_index,
                ok=False,
                error=detail,
                error_type="WorkerCrash",
                warm_started=task.warm_centers is not None,
                attempts=task.attempt + 1,
            )

        def timeout_record(task):
            return FrameRecord(
                stream_id=task.stream_id,
                frame_index=task.frame_index,
                ok=False,
                error=(
                    f"frame exceeded the {self.frame_timeout:.3g} s deadline; "
                    "worker presumed hung, pool torn down"
                ),
                error_type="FrameTimeout",
                warm_started=task.warm_centers is not None,
                elapsed_s=self.frame_timeout,
                attempts=task.attempt + 1,
            )

        def run_local(task):
            """In-process execution; unexpected exceptions become data
            (in a pool they would surface via ``future.exception()``)."""
            try:
                return run_frame(task, in_worker=False)
            except Exception as exc:
                return FrameRecord(
                    stream_id=task.stream_id,
                    frame_index=task.frame_index,
                    ok=False,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    warm_started=task.warm_centers is not None,
                    worker_pid=os.getpid(),
                    attempts=task.attempt + 1,
                )

        def break_pool():
            """Tear the current pool down and count the restart."""
            nonlocal executor, restarts, serial_fallback
            if executor is not None:
                self._teardown_executor(executor)
                executor = None
            restarts += 1
            self.tracer.count("parallel.pool_restarts")
            if restarts > self.max_pool_restarts:
                serial_fallback = True
                self.tracer.count("parallel.serial_fallbacks")

        def submit_one(state, plan, task):
            """Ship one task to the pool or run it in-process."""
            nonlocal executor, max_in_flight, transport_active, transport_fell_back
            if injector is not None and task.fault is None:
                task = replace(
                    task,
                    fault=injector.fault_for(
                        task.stream_id, task.frame_index, task.attempt,
                        in_worker=not serial_fallback,
                    ),
                )
            if transport_active:
                try:
                    task = transport.encode_task(task)
                    self.tracer.count("parallel.shm_frames")
                except Exception as exc:
                    # Slab allocation failed mid-run: this frame (and all
                    # later ones) ship by pickle; frames already in slabs
                    # are unaffected. Same telemetry shape as a kernel
                    # demotion.
                    transport_active = False
                    transport_fell_back = True
                    self.tracer.count(
                        "parallel.transport_fallbacks",
                        labels={
                            "requested": self.transport,
                            "fallback": "pickle",
                        },
                    )
                    self.tracer.event(
                        "transport_fallback",
                        requested=self.transport,
                        fallback="pickle",
                        reason=str(exc),
                    )
            if serial_fallback:
                max_in_flight = max(max_in_flight, 1)
                finish(state, plan, task, run_local(task))
                return
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=self.n_workers)
            try:
                if injector is not None and injector.breaks_submit(
                    task.stream_id, task.frame_index, task.attempt
                ):
                    raise BrokenProcessPool(
                        "injected: pool broke before submit"
                    )
                future = executor.submit(run_frame, task)
            except BrokenProcessPool as exc:
                # The pool broke between detection points; this attempt
                # dies as a crash (retryable), the pool is rebuilt.
                break_pool()
                finish(state, plan, task, crash_record(task, str(exc)))
                return
            state.in_flight = True
            deadline = (
                now() + self.frame_timeout
                if self.frame_timeout is not None
                else None
            )
            pending[future] = (state, plan, task, deadline)
            max_in_flight = max(max_in_flight, len(pending))

        try:
            while True:
                # Submit due retries first — they hold their stream's slot.
                due_now = [
                    item for item in retry_queue if item[0] <= now()
                ]
                for item in due_now:
                    if len(pending) >= self.max_pending and not serial_fallback:
                        break
                    retry_queue.remove(item)
                    _, state, plan, task = item
                    submit_one(state, plan, task)

                # Then every stream that is ready, up to the cap.
                progressed = True
                while progressed and len(pending) < self.max_pending:
                    progressed = False
                    for state in states:
                        if state.in_flight or len(pending) >= self.max_pending:
                            continue
                        image = state.next_frame()
                        if image is None:
                            continue
                        invalid = self._validate_frame(image)
                        if invalid is not None:
                            # A bad image fails here in the parent with a
                            # clear ImageError record — the worker never
                            # sees it (deterministic, so never retried).
                            collect(state, None, failed_plan_record(state, invalid))
                            progressed = True
                            continue
                        try:
                            task, plan = self._make_task(state, image, batch_span)
                        except StreamError as exc:
                            collect(state, None, failed_plan_record(state, exc))
                            progressed = True
                            continue
                        self.tracer.count("parallel.frames_submitted")
                        submit_one(state, plan, task)
                        progressed = True

                if not pending:
                    if retry_queue:
                        # Nothing in flight; sleep out the earliest backoff.
                        due = min(item[0] for item in retry_queue)
                        delay = due - now()
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    break  # every stream drained and nothing in flight

                # Wake for the first completion, the next frame deadline,
                # or the next due retry — whichever comes first.
                wait_timeout = None
                deadlines = [
                    dl for (_, _, _, dl) in pending.values() if dl is not None
                ]
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines) - now())
                if retry_queue:
                    next_due = max(
                        0.0, min(item[0] for item in retry_queue) - now()
                    )
                    wait_timeout = (
                        next_due
                        if wait_timeout is None
                        else min(wait_timeout, next_due)
                    )
                done, _ = wait(
                    pending, timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                pool_broken = False
                for future in done:
                    state, plan, task, _ = pending.pop(future)
                    exc = future.exception()
                    if exc is None:
                        finish(state, plan, task, future.result())
                    elif isinstance(exc, BrokenProcessPool):
                        pool_broken = True
                        finish(state, plan, task, crash_record(task, str(exc)))
                    else:
                        # e.g. the task failed to pickle on the way out,
                        # or an injected unexpected exception.
                        finish(
                            state,
                            plan,
                            task,
                            FrameRecord(
                                stream_id=task.stream_id,
                                frame_index=task.frame_index,
                                ok=False,
                                error=str(exc),
                                error_type=type(exc).__name__,
                                warm_started=task.warm_centers is not None,
                                attempts=task.attempt + 1,
                            ),
                        )

                # Watchdog: any frame past its deadline is presumed hung.
                hung = [
                    future
                    for future, (_, _, _, dl) in pending.items()
                    if dl is not None and now() > dl and not future.done()
                ]
                if hung:
                    # The hung frames get FrameTimeout records; innocent
                    # in-flight frames are resubmitted at the same attempt
                    # (their work was lost to the teardown, not failed).
                    victims = [f for f in pending if f not in hung]
                    hung_items = [pending[f] for f in hung]
                    victim_items = [pending[f] for f in victims]
                    pending.clear()
                    break_pool()
                    for state, plan, task, _ in hung_items:
                        timeouts += 1
                        self.tracer.count("resilience.timeouts")
                        finish(state, plan, task, timeout_record(task))
                    for state, plan, task, _ in victim_items:
                        retry_queue.append((now(), state, plan, task))
                    continue

                if pool_broken:
                    # Every remaining in-flight future is doomed; their
                    # attempts die as crashes (retryable) and the pool is
                    # rebuilt.
                    doomed = list(pending.values())
                    pending.clear()
                    break_pool()
                    for state, plan, task, _ in doomed:
                        finish(
                            state, plan, task,
                            crash_record(task, "worker process died (pool broken)"),
                        )
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
        return {
            "records": records,
            "max_in_flight": max_in_flight,
            "restarts": restarts,
            "retries": retries_used,
            "timeouts": timeouts,
            "transport_fallback": transport_fell_back,
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _emit_frame_telemetry(self, record: FrameRecord, batch_span) -> None:
        """One ``frame`` span per record + the worker's stitched span tree.

        The frame span's id is the ``parent_span_id`` the task shipped
        to the worker, so worker span events — already carrying the
        parent's ``trace`` id, globally-unique attempt-tagged ids, and
        resolvable parents — merge into the trace **verbatim**. Span
        events without a ``trace`` field (pre-v2 producers) fall back to
        the old prefix remapping so mixed-version traces stay readable.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        frame_id = self._frame_span_id(
            batch_span, record.stream_id, record.frame_index
        )
        parent_id = getattr(batch_span, "span_id", None)
        tracer.sink.emit(
            {
                "ev": "span",
                "name": "frame",
                "id": frame_id,
                "parent": parent_id,
                "trace": tracer.trace_id,
                "ts": time.time() - record.elapsed_s,
                "dur": record.elapsed_s,
                "status": "ok" if record.ok else "error",
                "attrs": {
                    "stream": record.stream_id,
                    "frame": record.frame_index,
                    "worker_pid": record.worker_pid,
                    "warm_started": record.warm_started,
                    "attempts": record.attempts,
                    **(
                        {"transport": record.transport}
                        if record.transport
                        else {}
                    ),
                    **(
                        {"n_threads": record.n_threads}
                        if record.n_threads is not None
                        else {}
                    ),
                    **(
                        {"kernel_demoted_from": record.demoted_from}
                        if record.demoted_from
                        else {}
                    ),
                    **(
                        {
                            "error_type": record.error_type,
                            "error": record.error,
                            "quarantined": record.quarantined,
                        }
                        if not record.ok
                        else {}
                    ),
                },
            }
        )
        for event in record.trace_events:
            kind = event.get("ev")
            if kind == "span":
                if event.get("trace"):
                    # Stitched path: ids/parents/trace already final.
                    tracer.sink.emit(event)
                else:  # legacy producer — remap under the frame span
                    remapped = dict(event)
                    remapped["id"] = f"{frame_id}:{event['id']}"
                    remapped["parent"] = (
                        f"{frame_id}:{event['parent']}"
                        if event.get("parent")
                        else frame_id
                    )
                    tracer.sink.emit(remapped)
            elif kind == "counter":
                # Accumulate through the parent registry so per-frame
                # snapshots sum instead of clobbering each other.
                tracer.count(
                    f"worker.{event['name']}",
                    event.get("value", 0),
                    labels=event.get("labels"),
                )
            elif kind == "gauge":
                tracer.gauge(
                    f"worker.{event['name']}",
                    event.get("value"),
                    labels=event.get("labels"),
                )
            elif kind == "hist":
                # Worker histograms arrive as full snapshots; fold them
                # into the parent-side instrument bucket by bucket.
                tracer.metrics.histogram(
                    f"worker.{event['name']}",
                    event["buckets"],
                    labels=event.get("labels"),
                ).merge(event)
            # meta / point events from workers are dropped: the parent
            # emits its own meta.
