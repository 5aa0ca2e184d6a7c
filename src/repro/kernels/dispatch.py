"""Backend selection for the kernel layer.

Two backends implement the same six-entry kernel contract
(``cpa_assign``, ``ppa_assign``, ``enforce_connectivity``,
``lab_from_codes``, ``lab_from_rgb``, ``sigma_accumulate``; see
``docs/kernels.md``):

* ``reference`` — the original loops in :mod:`repro.core` (the spec),
  always available;
* ``native-mt`` — compiled C hot loops at any thread count, available
  when a C compiler is; ``n_threads=1`` is the serial case.

Selection order: an explicit name (``SlicParams.kernel_backend`` or the
name passed to :func:`get_backend`) wins; otherwise the
``REPRO_KERNEL_BACKEND`` environment variable; otherwise ``auto``, which
picks ``native-mt`` when the C library compiles and ``reference`` when
there is no compiler. Both backends produce bit-identical labels, so selection only
affects speed.
"""

from __future__ import annotations

import os

from ..errors import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "requested_name",
    "resolve_name",
    "usable_cores",
    "validate_name",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Accepted backend names (``auto`` resolves to a concrete one).
BACKEND_NAMES = ("auto", "reference", "native-mt")


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the
    platform has one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _module(name: str):
    if name == "reference":
        from . import reference as mod
    else:
        from . import native_mt as mod
    return mod


def validate_name(name: str) -> str:
    """Check ``name`` is a known backend name without loading anything."""
    lowered = str(name).lower()
    if lowered not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return lowered


def requested_name(name: str | None = None) -> str:
    """The validated backend name a caller asks for, loading nothing:
    ``name``, else ``$REPRO_KERNEL_BACKEND``, else ``auto``."""
    if name is None:
        name = os.environ.get(ENV_VAR) or "auto"
    return validate_name(name)


def resolve_name(name: str | None = None) -> str:
    """Resolve a requested backend name to a concrete backend name.

    ``None`` falls back to ``$REPRO_KERNEL_BACKEND``, then ``auto``.
    ``auto`` probes the native library (compiling it on first use) and
    picks ``native-mt`` when it loads, ``reference`` otherwise. An
    explicitly requested ``native-mt`` that cannot load raises
    :class:`ConfigurationError` instead of silently degrading.
    """
    name = requested_name(name)
    if name == "auto":
        from . import native

        return "native-mt" if native.is_available() else "reference"
    if name == "native-mt":
        from . import native

        native.load()  # raises ConfigurationError with the compile detail
    return name


def get_backend(name: str | None = None):
    """Return the kernel module for ``name`` (resolved per above)."""
    return _module(resolve_name(name))


def available_backends() -> tuple:
    """Concrete backend names usable in this environment."""
    from . import native

    if native.is_available():
        return ("reference", "native-mt")
    return ("reference",)
