"""repro.obs — unified instrumentation: spans, metrics, run telemetry.

The paper's claims are measurements (Table 1's runtime breakdown, Figure
6's bandwidth sweep, Table 4's fps/mW); this package is how the repo
produces its own. One :class:`Tracer` threads through the segmentation
engine, the hardware cycle simulator, and the CLI; everything it sees is
emitted as JSONL events a machine can aggregate (``python -m repro stats``)
and a :class:`RunManifest` pins the run's params/seed/versions.

Quick start::

    from repro import sslic
    from repro.obs import JsonlSink, Tracer

    with Tracer(JsonlSink("run.jsonl")) as tracer:
        result = sslic(image, tracer=tracer)

With no tracer supplied, every instrumented call site routes to the
shared disabled tracer and costs a single attribute check.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    SpanRingSink,
    TeeSink,
    read_jsonl,
)
from .tracer import NULL_TRACER, Span, Tracer, new_trace_id
from .manifest import RunManifest, git_describe
from .export import TelemetryServer, render_prometheus, span_forest
from .profile import ResourceProfiler
from .stats import (
    SpanStats,
    TraceSummary,
    format_summary,
    summarize_events,
    summarize_trace,
)

__all__ = [
    # tracer
    "Tracer",
    "Span",
    "NULL_TRACER",
    "new_trace_id",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # sinks
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "SpanRingSink",
    "TeeSink",
    "read_jsonl",
    # manifest
    "RunManifest",
    "git_describe",
    # export / live telemetry
    "TelemetryServer",
    "render_prometheus",
    "span_forest",
    # profiling
    "ResourceProfiler",
    # stats
    "TraceSummary",
    "SpanStats",
    "summarize_events",
    "summarize_trace",
    "format_summary",
]
