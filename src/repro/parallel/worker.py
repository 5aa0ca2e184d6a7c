"""The function that runs inside each worker process.

:func:`run_frame` is the *only* code the pool executes. It is defensive
by design: any exception the segmentation raises — bad image, warm-state
mismatch, numerical failure — is converted into a ``FrameRecord`` with
``ok=False`` so the pool never sees a traceback. Only an interpreter
death (segfault, OOM kill, ``os._exit``) escapes it; the runner converts
that into a ``WorkerCrash`` record when the pool reports the break.

Two resilience hooks live here:

* **fault injection** — when the task carries a
  :class:`repro.resilience.FaultSpec`, it is applied first
  (crash/hang/slow/corrupt/raise; see ``repro.resilience.faults``).
  ``in_worker`` gates the process-level faults: the runner sets it
  False when executing frames in-process, where killing the interpreter
  would end the experiment rather than exercise recovery.
* **backend supervision** — the kernel backend is resolved through the
  supervisor (first-dispatch known-answer self-test, memoized per
  process); a failing ``native-mt`` is demoted to ``reference`` and
  the demotion is recorded on the ``FrameRecord``.

Workers are deliberately stateless: a frame's output is a pure function
of ``(image, params, warm_centers, warm_labels)``, which is what makes
parallel output bit-identical to serial (see ``docs/parallel.md``).
"""

from __future__ import annotations

import os
import time

from ..core.engine import run_segmentation
from ..errors import ConfigurationError, ReproError
from .records import FrameRecord, FrameTask

__all__ = ["run_frame"]


def _collecting_tracer(task):
    """An in-memory tracer that joins the parent's trace.

    Span ids get the ``s<stream>f<frame>a<attempt>.`` prefix (globally
    unique inside the trace, attempt-tagged so retried executions stay
    distinguishable) and root spans hang from the parent-side ``frame``
    span, so the parent can merge the events verbatim — no remapping.
    Span profiling follows the parent tracer's (``task.profile``).
    """
    from ..obs import MemorySink, Tracer

    return Tracer(
        MemorySink(),
        trace_id=task.trace_id,
        span_prefix=f"s{task.stream_id}f{task.frame_index}a{task.attempt}.",
        root_parent=task.parent_span_id,
        profile=task.profile,
    )


def run_frame(task: FrameTask, in_worker: bool = True) -> FrameRecord:
    """Execute one :class:`FrameTask`; never raises for frame errors.

    ``in_worker`` is True in pool processes (the default — it is what
    the executor calls); the runner passes False for in-process
    execution so process-level injected faults are skipped.
    """
    from ..kernels.supervisor import supervised_resolve

    tracer = _collecting_tracer(task) if task.collect_trace else None
    start = time.perf_counter()
    try:
        if task.shm_result is not None or task.shm_image is not None:
            # Zero-copy transport: attach the parent's slabs and run on
            # read-only views (elapsed_s honestly includes the attach).
            from .shm import decode_task

            task = decode_task(task)

        image = task.image
        forced_backend_failures = None
        if task.fault is not None:
            from ..resilience.faults import apply_fault

            if task.fault.kind == "kernel_fail":
                forced_backend_failures = {
                    _requested_backend_name(task.params.kernel_backend)
                }
            else:
                # crash/hang never return; error kinds raise out of
                # run_frame only if they are not part of the
                # expected-error contract.
                image = apply_fault(task.fault, image, in_worker=in_worker)

        backend = supervised_resolve(
            task.params.kernel_backend,
            tracer=tracer,
            forced_failures=forced_backend_failures,
        )
        params = task.params
        if backend.name != params.kernel_backend:
            params = params.with_(kernel_backend=backend.name)
        n_threads = None
        if backend.name == "native-mt":
            from ..kernels.native_mt import resolve_threads

            n_threads = resolve_threads(params.n_threads)
        result = run_segmentation(
            image,
            params,
            warm_centers=task.warm_centers,
            warm_labels=task.warm_labels,
            tracer=tracer,
        )
    except (ReproError, ValueError, TypeError) as exc:
        return FrameRecord(
            stream_id=task.stream_id,
            frame_index=task.frame_index,
            ok=False,
            error=str(exc),
            error_type=type(exc).__name__,
            warm_started=task.warm_centers is not None,
            elapsed_s=time.perf_counter() - start,
            worker_pid=os.getpid(),
            attempts=task.attempt + 1,
        )
    elapsed = time.perf_counter() - start

    events = []
    if tracer is not None:
        tracer.flush()
        events = list(tracer.sink.events)

    record = FrameRecord(
        stream_id=task.stream_id,
        frame_index=task.frame_index,
        ok=True,
        result=result,
        warm_started=task.warm_centers is not None,
        elapsed_s=elapsed,
        worker_pid=os.getpid(),
        trace_events=events,
        kernel_backend=backend.name,
        n_threads=n_threads,
        attempts=task.attempt + 1,
        demoted_from=backend.demoted_from,
    )
    if task.shm_result is not None:
        # Return the labels through the result slab instead of pickling
        # them; a slab violation fails the frame like any other error.
        from .shm import publish_result

        try:
            record = publish_result(task, record)
        except ReproError as exc:
            return FrameRecord(
                stream_id=task.stream_id,
                frame_index=task.frame_index,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                warm_started=task.warm_centers is not None,
                elapsed_s=time.perf_counter() - start,
                worker_pid=os.getpid(),
                kernel_backend=backend.name,
                attempts=task.attempt + 1,
            )
    return record


def _requested_backend_name(name):
    """The concrete backend a ``kernel_fail`` fault should break.

    A requested backend that cannot load is returned as named: forcing
    the backend that already failed keeps the fault a demotion to
    ``reference``, where forcing ``reference`` would make it fatal.
    """
    from ..kernels import resolve_name

    try:
        return resolve_name(name)
    except ConfigurationError:
        return name
