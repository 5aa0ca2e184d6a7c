"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables/figures, prints the rows
(paper value alongside the measured one where applicable), and writes the
same text to ``benchmarks/output/<name>.txt`` so the artifacts survive the
pytest capture. Each emit additionally writes
``benchmarks/output/<name>.jsonl`` through :class:`repro.obs.JsonlSink` —
a ``bench`` event with the report text plus one ``bench.record`` event per
structured row when the bench provides them — so downstream tooling
(``python -m repro stats``, the markdown report) can consume benchmark
numbers without scraping text.

These benches regenerate the paper's tables and gate per-kernel and
serving behaviour; they are not the repo's performance record. End-to-end
throughput is measured by ``perfbench/`` against the bounds declared in
``BENCHMARK.json``.

Scale: set ``REPRO_BENCH_SCALE=full`` for paper-sized corpora (slower);
the default ``quick`` keeps every bench CI-friendly.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.obs import JsonlSink, new_trace_id

OUTPUT_DIR = Path(__file__).parent / "output"

#: Version stamped into every JSONL event: v2 added the session ``trace``
#: id; files without a ``schema`` field are v1 and otherwise identical.
BENCH_SCHEMA_VERSION = 2


@pytest.fixture(scope="session")
def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be quick|full, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def bench_trace_id() -> str:
    """One trace id per benchmark session.

    Stamped into every JSONL event so all numbers from one run are
    correlatable with each other (and with any ``--trace`` telemetry
    collected alongside).
    """
    return new_trace_id()


@pytest.fixture(scope="session")
def emit(bench_trace_id):
    """Print a report and persist it under benchmarks/output/.

    ``emit(name, text)`` keeps the historical behaviour (stdout + .txt).
    ``emit(name, text, records=[{...}, ...])`` additionally writes each
    record as a ``bench.record`` JSONL event; the text itself always goes
    into a ``bench`` event so every artifact has a machine-readable twin.
    Every event carries the artifact schema version
    (``BENCH_SCHEMA_VERSION``) and the session's trace id.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str, records=None) -> None:
        print(f"\n{text}\n")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        stamp = {"schema": BENCH_SCHEMA_VERSION, "trace": bench_trace_id}
        with JsonlSink(OUTPUT_DIR / f"{name}.jsonl") as sink:
            sink.emit(
                {
                    "ev": "bench", "name": name, "ts": time.time(),
                    "text": text, **stamp,
                }
            )
            for record in records or ():
                sink.emit({"ev": "bench.record", "name": name, **stamp, **record})

    return _emit
