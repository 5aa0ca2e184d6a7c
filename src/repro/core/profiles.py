"""Phase timing instrumentation for the Table 1 breakdown.

Table 1 of the paper reports the fraction of runtime spent in color
conversion, distance + minimum, center update, and "other" for SLIC and
S-SLIC. :class:`PhaseTimer` collects those wall-clock buckets with
negligible overhead (one ``perf_counter`` pair per phase entry).

The timer is backed by the :mod:`repro.obs` tracing layer: when built
with a :class:`~repro.obs.tracer.Tracer`, every phase entry additionally
opens a ``phase:<name>`` span on it, so Table 1 buckets appear in the
JSONL telemetry nested under whatever span was live (a ``subiteration``,
a ``sweep``). With no tracer — the default — only the local bucket
arithmetic runs, same as the original standalone timer.

Exception handling: a phase aborted by an exception does not pollute its
normal bucket. The partial time is recorded under ``<name>!aborted`` (a
distinct bucket, visible in :meth:`PhaseTimer.as_dict`), the span — if a
tracer is attached — is emitted with ``status="error"``, and the
exception propagates.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..obs.tracer import NULL_TRACER

__all__ = ["PhaseTimer", "PHASES", "ABORTED_SUFFIX"]

#: Canonical phase names, in Table 1 column order (plus bookkeeping ones).
PHASES = (
    "color_conversion",
    "initialization",
    "distance_min",
    "center_update",
    "connectivity",
    "other",
)

#: Bucket-name suffix for partially-timed, exception-aborted phases.
ABORTED_SUFFIX = "!aborted"


class PhaseTimer:
    """Accumulates wall-clock seconds into named phase buckets.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.obs.Tracer`; phase entries become
        ``phase:<name>`` spans on it in addition to the local buckets.
    """

    def __init__(self, tracer=None):
        self.totals = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @contextmanager
    def phase(self, name: str):
        """Context manager: time the enclosed block into bucket ``name``.

        On exception the elapsed time lands in ``<name>!aborted`` instead
        and the span (if tracing) is tagged ``status="error"``.
        """
        tracer = self.tracer
        span = tracer.start_span(f"phase:{name}", phase=name)
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            elapsed = time.perf_counter() - start
            key = name + ABORTED_SUFFIX
            self.totals[key] = self.totals.get(key, 0.0) + elapsed
            span.set(error_type=type(exc).__name__)
            tracer.end_span(span, status="error")
            raise
        else:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            tracer.end_span(span)

    @property
    def total(self) -> float:
        return float(sum(self.totals.values()))

    def aborted(self) -> dict:
        """Bucket -> seconds for phases that exited via an exception."""
        return {
            k[: -len(ABORTED_SUFFIX)]: v
            for k, v in self.totals.items()
            if k.endswith(ABORTED_SUFFIX)
        }

    def as_dict(self) -> dict:
        """Copy of the raw seconds per phase."""
        return dict(self.totals)
