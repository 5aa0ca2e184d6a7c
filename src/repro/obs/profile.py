"""Per-span resource profiling: CPU time, peak RSS, GC pressure.

Opt-in (``Tracer(..., profile=True)`` or ``tracer.enable_profiling()``;
``--profile-spans`` on the CLI). When enabled, every span closes with
four extra attributes:

``cpu_user_s`` / ``cpu_sys_s``
    Process CPU seconds consumed while the span was open (``os.times``
    deltas — resolution is the OS clock tick, typically 10 ms, so tiny
    spans legitimately read 0.0).
``rss_peak_kb``
    The process's peak resident set size, in kB, observed at span close
    (``resource.getrusage``; a high-water mark, so it is monotonic
    across spans — compare successive spans to see which one pushed it).
``gc_collections``
    Cyclic garbage collections (all generations) that ran while the
    span was open — a span that triggers collections is allocating in
    the hot path.

The sampling cost is two ``os.times`` + ``getrusage`` + ``gc.get_stats``
calls per span — about 10 µs — and the repo budgets the end-to-end cost
at **<= 5% wall time** on a traced VGA serial video run, asserted in
``tests/test_obs_profile.py`` as profiled-span count x per-span cost.

On platforms without the ``resource`` module (Windows), RSS reads as 0
and everything else still works.
"""

from __future__ import annotations

import gc
import os

try:  # resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None

__all__ = ["ResourceProfiler", "rss_peak_kb", "gc_collections"]

#: ru_maxrss is kilobytes on Linux but bytes on macOS.
_RSS_DIVISOR = (
    1024
    if hasattr(os, "uname") and os.uname().sysname == "Darwin"
    else 1
)


def rss_peak_kb() -> int:
    """Current peak resident set size in kB (0 where unavailable)."""
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss // _RSS_DIVISOR)


def gc_collections() -> int:
    """Total cyclic collections across all generations so far."""
    return sum(s.get("collections", 0) for s in gc.get_stats())


class ResourceProfiler:
    """Cheap span-boundary sampler; one instance per tracer.

    :meth:`snapshot` captures the counters at span open;
    :meth:`delta` turns an open-time snapshot into the attribute dict
    recorded on the closing span.
    """

    __slots__ = ("samples",)

    def __init__(self):
        self.samples = 0  # spans profiled (for overhead accounting)

    def snapshot(self) -> tuple:
        t = os.times()
        return (t.user, t.system, gc_collections())

    def delta(self, snap: tuple) -> dict:
        t = os.times()
        user0, sys0, gc0 = snap
        self.samples += 1
        return {
            "cpu_user_s": round(t.user - user0, 6),
            "cpu_sys_s": round(t.system - sys0, 6),
            "rss_peak_kb": rss_peak_kb(),
            "gc_collections": gc_collections() - gc0,
        }
