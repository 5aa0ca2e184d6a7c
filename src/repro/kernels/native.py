"""The compiled kernel library: ``_native.c`` built and loaded on demand.

The module compiles the C source on first use with the system C compiler
(``$CC``, else ``cc``/``gcc``/``clang``) and loads it through
:mod:`ctypes` — no third-party build dependency, and nothing happens at
import time. The shared object is cached under
``$REPRO_KERNEL_CACHE`` (default: the user cache dir, falling back to a
per-user temp dir), keyed by a hash of the source and compile flags, so
recompiles happen only when the kernels change and concurrent builds
(parallel workers) race harmlessly to an atomic rename.

Availability is probed lazily and memoized; :func:`is_available` never
raises. When no compiler exists the dispatch layer's ``auto`` selection
falls back to the ``reference`` backend.

The ``native-mt`` backend (:mod:`repro.kernels.native_mt`) wraps the
kernel entries. :data:`SIGNATURES` declares the ctypes signature of
every function the library exports, and :func:`ppa_lanes` reports the
body of the fused PPA pass the library picked for this CPU at load: the
AVX-512 lane bodies (8) or the scalar loops (1).

Bit-identity with the reference implementations is a hard contract —
see the header comment in ``_native.c`` for the compile flags that
guarantee it (``-ffp-contract=off``, no ``-ffast-math``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "SIGNATURES",
    "is_available",
    "load",
    "ppa_lanes",
]

_SRC = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

#: Memoized load state: the loaded ctypes library, or the message of the
#: failed load (None = unprobed). A failure is kept as text and raised as
#: a fresh error on each probe: one stored exception would gather every
#: probing caller's frames into its traceback and keep them alive.
_lib = None
_load_error = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    try:
        base.mkdir(parents=True, exist_ok=True)
        return base / "repro-kernels"
    except OSError:
        return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _compiler() -> str:
    cc = os.environ.get("CC")
    candidates = [cc] if cc else []
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    raise ConfigurationError(
        "no C compiler found (checked $CC, cc, gcc, clang); the native "
        "kernel backend is unavailable — use backend 'reference' instead"
    )


def _build() -> Path:
    """Compile ``_native.c`` into the cache (atomic, race-safe).

    Concurrent builders (parallel workers, or two unrelated processes
    sharing the cache) each compile into their own ``mkstemp`` file and
    race to one atomic ``os.replace``; whoever loses simply discards its
    temp file. A compiler that *dies mid-build* (crash, OOM kill, the
    120 s timeout) surfaces as :class:`ConfigurationError`, which the
    ``auto``/supervised paths turn into a fall back to ``reference`` —
    but only after re-checking whether a concurrent builder finished the
    cache entry in the meantime, so one flaky compile cannot mask a
    healthy cache.
    """
    source = _SRC.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so_path = cache / f"repro_native_{key}.so"
    if so_path.exists():
        return so_path
    cc = _compiler()
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(_SRC), "-lm"],
                capture_output=True,
                text=True,
                timeout=120,
            )
        except (subprocess.TimeoutExpired, OSError) as exc:
            # The compiler died or hung mid-build. A concurrent builder
            # may still have produced the artifact — prefer it.
            if so_path.exists():
                return so_path
            raise ConfigurationError(
                f"native kernel compiler died mid-build ({cc}): {exc}; "
                "falling back to the reference backend"
            ) from None
        if proc.returncode != 0:
            if so_path.exists():  # a concurrent builder won with a good .so
                return so_path
            raise ConfigurationError(
                f"native kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent builders both win
    finally:
        try:
            if os.path.exists(tmp):
                os.unlink(tmp)
        except OSError:
            pass  # racing cleanup with another builder is harmless
    return so_path


_f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_ll = ctypes.c_int64
_dbl = ctypes.c_double
# The sigma subset-index argument (NULL means "identity") and the PPA
# label map (NULL means "do not scatter") are nullable, so they are raw
# pointers rather than ndpointers.
_i64p = ctypes.POINTER(ctypes.c_int64)
_i32p = ctypes.POINTER(ctypes.c_int32)

#: The library's exported functions: name -> (restype, argtypes). Every
#: ``_mt`` entry takes a trailing n_threads; 1 runs the kernel inline on
#: the calling thread. The three float color band loops run on the
#: calling thread only. The tests pin these keys to the non-``static``
#: functions ``_native.c`` defines.
SIGNATURES = {
    "cpa_assign_f64_mt": (None, [
        _f64, _f64, _i64, _ll, _dbl, _ll, _ll, _ll, _f64, _i32, _u8, _ll,
    ]),
    "ppa_assign_f64_mt": (None, [
        _f64, _i32, _i64, _ll, _ll, _i32, _f64, _dbl, _ll, _i32, _i32p,
        _f64, _i64, _ll,
    ]),
    "ppa_assign_fixed_mt": (None, [
        _i64, _i32, _i64, _ll, _ll, _i32, _i64, _ll, _ll, _ll, _ll, _ll,
        _ll, _dbl, _dbl, _dbl, _ll, _i32, _i32p, _f64, _i64, _ll,
    ]),
    "lab_from_codes_u8_mt": (None, [
        _u8, _ll, _i64, _i64, _ll, _ll, _ll, _i64, _ll, _i64, _i64, _ll,
        _ll, _ll, _ll, _ll, _ll, _ll, _ll, _ll, _i64, _dbl, _dbl, _dbl,
        _f64, _ll,
    ]),
    "sigma_acc_f64_mt": (None, [
        _f64, _i64p, _i32, _ll, _ll, _ll, _f64, _i64, _ll,
    ]),
    "enforce_connectivity_i32_mt": (_ll, [
        _i32, _ll, _ll, _ll, _i32, _i32, _i64, _ll,
    ]),
    "gamma_gather_u8": (None, [_u8, _ll, _f64, _f64]),
    "xyz_over_white_f64": (None, [_f64, _ll, _f64]),
    "lab_assemble_f64": (None, [_f64, _f64, _ll, _dbl, _dbl, _f64]),
    "ppa_lanes": (_ll, []),
}


def _declare(lib) -> None:
    for name, (restype, argtypes) in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes


def load():
    """Compile (if needed) and load the native library; raises on failure."""
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is None:
        try:
            lib = ctypes.CDLL(str(_build()))
            _declare(lib)
        except Exception as exc:  # memoize: probing must stay cheap
            _load_error = (
                str(exc)
                if isinstance(exc, ConfigurationError)
                else f"native kernel backend unavailable: {exc}"
            )
        else:
            _lib = lib
            return lib
    raise ConfigurationError(_load_error) from None


def is_available() -> bool:
    """True when the native library loads (compiling it on first call)."""
    try:
        load()
        return True
    except ConfigurationError:
        return False


@functools.cache
def ppa_lanes() -> int:
    """Entries the fused PPA pass evaluates at once on this CPU: 8 or 1.

    8 when the library was built with the AVX-512 lane bodies and the
    CPU has AVX-512 F/BW/CD/DQ/VL, else 1 (the scalar loops). The
    library decides once, at load; raises like :func:`load` when the
    library is unavailable.
    """
    return int(load().ppa_lanes())
