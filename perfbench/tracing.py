"""Benchmark-side instrumentation: kernel call meters and peak RSS.

Nothing here edits the program. :class:`KernelMeter` swaps the public
kernel entry points of the module ``repro.kernels.get_backend()``
resolves to for timing wrappers, and restores them afterwards. Only that
module is wrapped, so an entry that delegates to another module's
function is counted once. The one kernel called outside the backend
module, ``repro.kernels.native.resolve_runs`` (the incremental
connectivity resolve), is wrapped on its own module.

The counters live in a shared-memory array, so pool workers forked after
:meth:`KernelMeter.install` add their calls to the same totals.
"""

from __future__ import annotations

import multiprocessing
import resource
import time

#: Backend-module kernels the benchmark attributes time to.
BACKEND_KERNELS = (
    "ppa_assign",
    "sigma_accumulate",
    "lab_from_codes",
    "connected_components",
    "merge_small",
)
#: Metric key of the connectivity resolve, wrapped on ``repro.kernels.native``.
RESOLVE_RUNS = "native.resolve_runs"
KERNEL_KEYS = BACKEND_KERNELS + (RESOLVE_RUNS,)

_CALLS, _SECONDS, _ITEMS = range(3)


class KernelMeter:
    """Calls, seconds and items (PPA pixels) per kernel, across processes."""

    def __init__(self):
        self._data = multiprocessing.RawArray("d", 3 * len(KERNEL_KEYS))
        self._lock = multiprocessing.Lock()
        self._saved = []

    def _wrap(self, slot: int, fn, count_items: bool):
        data, lock = self._data, self._lock
        base = 3 * slot

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    data[base + _CALLS] += 1
                    data[base + _SECONDS] += elapsed
                    if count_items:
                        data[base + _ITEMS] += len(args[1])

        return timed

    def install(self, kernel_name: str) -> None:
        """Wrap the kernels of backend ``kernel_name`` (a resolved name)."""
        from repro.kernels import get_backend, native

        backend = get_backend(kernel_name)
        targets = [(backend, name, name) for name in BACKEND_KERNELS]
        targets.append((native, "resolve_runs", RESOLVE_RUNS))
        for module, attr, key in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(
                KERNEL_KEYS.index(key), fn, count_items=attr == "ppa_assign"
            ))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def snapshot(self) -> dict:
        with self._lock:
            values = list(self._data)
        return {
            key: {
                "calls": values[3 * i + _CALLS],
                "s": values[3 * i + _SECONDS],
                "items": values[3 * i + _ITEMS],
            }
            for i, key in enumerate(KERNEL_KEYS)
        }


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process plus ``workers`` reaped child processes.

    Each child is counted at the largest peak any reaped child reached,
    so for a pool of ``workers`` processes this bounds their sum from
    above. No sampler runs alongside the program.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB
