"""Dispatchable kernels for the assignment/connectivity hot paths.

The engine's inner loops — the CPA window scan, the PPA 9-candidate
evaluation, connected-component labeling, the fused fixed-point
RGB->Lab conversion, the sigma accumulation, the small-component merge
walk, and the BR/USE metric histograms/distance transform — are
implemented three times behind one contract:

* ``reference`` — the readable loops in :mod:`repro.core` (semantics
  ground truth);
* ``vectorized`` — batched pure numpy;
* ``native-mt`` — C loops compiled on demand via ctypes, fanned out
  over an in-process pthread pool (``SlicParams(n_threads=...)``,
  ``REPRO_KERNEL_THREADS``); one thread is the serial case.

All backends return bit-identical labels; pick one with
``SlicParams(kernel_backend=...)``, the ``--kernel-backend`` CLI flag, or
the ``REPRO_KERNEL_BACKEND`` environment variable. See ``docs/kernels.md``.

Backends are *supervised*: before a process trusts one it must pass a
known-answer self-test, and failures demote down the chain
native-mt -> vectorized -> reference (see
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
