"""Dispatchable kernels for the assignment/connectivity hot paths.

The engine's inner loops — the CPA window scan, the PPA 9-candidate
evaluation, the connectivity pass (component labeling, border
adjacency, small-component merge walk and relabel), the fused
fixed-point RGB->Lab conversion, the float RGB->Lab conversion and the
sigma accumulation — are implemented twice behind one six-entry
contract:

* ``reference`` — the readable loops in :mod:`repro.core` and
  :func:`repro.color.rgb_to_lab` (semantics ground truth);
* ``native-mt`` — C loops compiled on demand via ctypes, fanned out
  over an in-process pthread pool (``SlicParams(n_threads=...)``,
  ``REPRO_KERNEL_THREADS``); one thread is the serial case. It compiles
  only the passes a workload runs on a clock: the fixed-point CPA scan
  and code-domain sigma accumulation run numpy, and the float color
  conversion keeps its two host-dependent steps (the 3x3 BLAS product
  and ``np.cbrt``) in numpy between its C band loops.

Both backends return bit-identical labels; pick one with
``SlicParams(kernel_backend=...)``, the ``--kernel-backend`` CLI flag, or
the ``REPRO_KERNEL_BACKEND`` environment variable. See ``docs/kernels.md``.

Every entry takes ``n_threads``; the reference spec accepts it and runs
serially. The engine resolves its backend module (:func:`get_backend`)
and its thread count once per run, then calls each entry as an
attribute of that module with ``n_threads=``.

Backends are *supervised*: before a process trusts one it must pass a
known-answer self-test, and a failing ``native-mt`` demotes to
``reference`` (see
:mod:`repro.kernels.supervisor` and ``docs/resilience.md``).
"""

from .dispatch import (
    BACKEND_NAMES,
    ENV_VAR,
    available_backends,
    get_backend,
    resolve_name,
    usable_cores,
    validate_name,
)
from .supervisor import (
    DEMOTION_CHAIN,
    SupervisedBackend,
    self_test,
    supervised_resolve,
)

__all__ = [
    "BACKEND_NAMES",
    "DEMOTION_CHAIN",
    "ENV_VAR",
    "SupervisedBackend",
    "available_backends",
    "get_backend",
    "resolve_name",
    "self_test",
    "supervised_resolve",
    "usable_cores",
    "validate_name",
]
