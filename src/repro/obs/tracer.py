"""Nestable tracing spans with a near-zero-cost disabled path.

A :class:`Tracer` owns a sink, a metrics registry, and a span stack.
``tracer.span("sweep", index=3)`` opens a span; nesting follows the call
stack (a span opened while another is live records it as its parent), so
the engine's ``phase:distance_min`` spans nest under ``subiteration``
spans which nest under ``sweep`` spans.

Spans record wall-clock start (``time.time``, for aligning runs across
processes) and a monotonic duration (``time.perf_counter``). A span that
exits via an exception is emitted with ``status="error"`` and the
exception type in its attributes, then the exception propagates.

Every enabled tracer belongs to a **trace**: a 16-hex-char ``trace_id``
stamped on each emitted span/event. Worker processes construct their
tracer with the parent's ``trace_id``, a ``span_prefix`` that makes
their locally-counted span ids globally unique (``s0f3a1.00000002``),
and a ``root_parent`` pointing at the parent-side span their root spans
hang from — which is how a :class:`repro.parallel.ParallelRunner` run
stitches per-worker span trees into one trace (see
``docs/observability.md``).

The module-level :data:`NULL_TRACER` is shared by every code path that
was given no tracer: its ``span()`` returns a reusable no-op context
manager and its counter/gauge helpers return immediately, so the hot
paths stay within the <5% overhead budget when observability is off.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .sinks import NullSink

__all__ = ["Span", "Tracer", "NULL_TRACER", "NULL_SPAN", "new_trace_id"]

#: Event-schema version stamped into the ``meta`` event. v2 adds
#: ``trace`` (trace id) on meta/span/event records and optional
#: ``labels`` on counter/gauge/hist records; v1 files remain readable.
SCHEMA_VERSION = 2


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


class Span:
    """One timed region. Mutate attributes via :meth:`set` while open."""

    __slots__ = ("name", "span_id", "parent_id", "start_wall", "start_mono",
                 "duration", "status", "attrs", "profile")

    def __init__(self, name, span_id, parent_id, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = time.time()
        self.start_mono = time.perf_counter()
        self.duration = None
        self.status = "open"
        self.attrs = attrs
        self.profile = None  # resource snapshot when profiling is on

    def set(self, **attrs) -> "Span":
        """Attach key/value attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def as_event(self) -> dict:
        return {
            "ev": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": self.start_wall,
            "dur": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Inert span handed out by disabled tracers; ``set`` is a no-op."""

    __slots__ = ()
    name = None
    span_id = None
    parent_id = None
    duration = None
    status = "disabled"

    def set(self, **attrs) -> "_NullSpan":
        return self


class _NullSpanContext:
    """Reusable context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_CTX = _NullSpanContext()


class Tracer:
    """Span emitter + metrics front-end over a single sink.

    Parameters
    ----------
    sink:
        Event destination. Defaults to :class:`NullSink`, which also
        disables the tracer entirely.
    enabled:
        Force-enable/disable; by default the tracer is enabled exactly
        when the sink is not a ``NullSink``.
    trace_id:
        The trace this tracer emits into. Auto-generated for enabled
        tracers; pass the parent's id to join an existing trace from a
        worker process.
    span_prefix:
        Prepended to every locally-generated span id. Workers use
        ``"s<stream>f<frame>a<attempt>."`` so ids from independent
        processes (each counting from 1) never collide inside one trace.
    root_parent:
        Parent span id assigned to root spans (spans opened with an
        empty stack). ``None`` (the default) leaves roots parentless;
        workers point it at the parent-side ``frame`` span.
    profile:
        Enable per-span resource profiling (CPU time, peak RSS, GC
        collections recorded as span attributes — see
        :mod:`repro.obs.profile`). Also switchable later via
        :meth:`enable_profiling`.

    Use as a context manager to guarantee the metric snapshot is flushed
    and the sink closed::

        with Tracer(JsonlSink("run.jsonl")) as tracer:
            result = sslic(image, tracer=tracer)
    """

    def __init__(self, sink=None, enabled=None, trace_id=None,
                 span_prefix: str = "", root_parent=None, profile=False):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = (
            enabled if enabled is not None else not isinstance(self.sink, NullSink)
        )
        self.trace_id = trace_id if trace_id is not None else (
            new_trace_id() if self.enabled else None
        )
        self.span_prefix = span_prefix
        self.root_parent = root_parent
        self.metrics = MetricsRegistry()
        self._stack = []
        self._ids = itertools.count(1)
        self._emitted_meta = False
        self.profiler = None
        if profile:
            self.enable_profiling()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def start_span(self, name: str, **attrs) -> Span:
        """Open a span manually; pair with :meth:`end_span`.

        Prefer the :meth:`span` context manager; the manual pair exists
        for callers (like ``PhaseTimer``) that cannot use ``with``.
        """
        if not self.enabled:
            return NULL_SPAN
        if not self._emitted_meta:
            self._emitted_meta = True
            self.sink.emit(
                {"ev": "meta", "schema": SCHEMA_VERSION,
                 "trace": self.trace_id, "ts": time.time()}
            )
        parent = (
            self._stack[-1].span_id if self._stack else self.root_parent
        )
        span = Span(
            name, f"{self.span_prefix}{next(self._ids):08x}", parent,
            dict(attrs),
        )
        if self.profiler is not None:
            span.profile = self.profiler.snapshot()
        self._stack.append(span)
        return span

    def end_span(self, span, status: str = "ok") -> None:
        """Close ``span``, emit it, and pop it off the stack."""
        if span is NULL_SPAN or not self.enabled:
            return
        span.duration = time.perf_counter() - span.start_mono
        span.status = status
        if self.profiler is not None and span.profile is not None:
            span.attrs.update(self.profiler.delta(span.profile))
            span.profile = None
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order closes
            self._stack.remove(span)
        event = span.as_event()
        if self.trace_id is not None:
            event["trace"] = self.trace_id
        self.sink.emit(event)

    def span(self, name: str, **attrs):
        """Context manager for a span; tags ``status="error"`` on raise."""
        if not self.enabled:
            return _NULL_CTX
        return self._live_span(name, attrs)

    @contextmanager
    def _live_span(self, name, attrs):
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error_type", type(exc).__name__)
            self.end_span(span, status="error")
            raise
        else:
            self.end_span(span)

    def event(self, name: str, **attrs) -> None:
        """Emit an instantaneous point event (no duration)."""
        if not self.enabled:
            return
        parent = (
            self._stack[-1].span_id if self._stack else self.root_parent
        )
        self.sink.emit(
            {"ev": "event", "name": name, "parent": parent,
             "trace": self.trace_id, "ts": time.time(), "attrs": attrs}
        )

    @property
    def current_span(self):
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def enable_profiling(self) -> "Tracer":
        """Attach a :class:`repro.obs.profile.ResourceProfiler`.

        Subsequent spans carry ``cpu_user_s`` / ``cpu_sys_s`` /
        ``rss_peak_kb`` / ``gc_collections`` attributes. Opt-in because
        the per-span sampling cost, while small, is not zero (budgeted
        at <= 5% wall time — asserted in ``tests/test_obs_profile.py``).
        """
        if self.enabled and self.profiler is None:
            from .profile import ResourceProfiler

            self.profiler = ResourceProfiler()
        return self

    # ------------------------------------------------------------------
    # Metrics front-end (no-ops when disabled)
    # ------------------------------------------------------------------
    def count(self, name: str, amount=1, labels=None) -> None:
        if self.enabled:
            self.metrics.counter(name, labels=labels).inc(amount)

    def gauge(self, name: str, value, labels=None) -> None:
        if self.enabled:
            self.metrics.gauge(name, labels=labels).set(value)

    def observe(self, name: str, value, buckets, labels=None) -> None:
        if self.enabled:
            self.metrics.histogram(name, buckets, labels=labels).observe(value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Emit the current metric snapshot and flush the sink."""
        if self.enabled:
            self.metrics.emit_to(self.sink)
        self.sink.flush()

    def close(self) -> None:
        self.flush()
        self.sink.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


#: Shared disabled tracer used whenever no tracer is supplied.
NULL_TRACER = Tracer(NullSink())
