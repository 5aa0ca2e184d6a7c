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
falls back to the pure-numpy ``vectorized`` backend.

The ``native-mt`` backend (:mod:`repro.kernels.native_mt`) wraps the
data-parallel entries. The kernels that have no threaded form live
here: :func:`merge_small`, :func:`chamfer_distance`, and the
incremental-connectivity helper :func:`resolve_runs`.

Bit-identity with the reference implementations is a hard contract —
see the header comment in ``_native.c`` for the compile flags that
guarantee it (``-ffp-contract=off``, no ``-ffast-math``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from ..metrics.boundaries import chamfer_finalize, chamfer_init

__all__ = [
    "is_available",
    "load",
    "resolve_runs",
    "merge_small",
    "chamfer_distance",
]

_SRC = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

#: Memoized load state: None = unprobed, False = unavailable, else the
#: loaded ctypes library.
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
        "kernel backend is unavailable — use backend 'vectorized' instead"
    )


def _build() -> Path:
    """Compile ``_native.c`` into the cache (atomic, race-safe).

    Concurrent builders (parallel workers, or two unrelated processes
    sharing the cache) each compile into their own ``mkstemp`` file and
    race to one atomic ``os.replace``; whoever loses simply discards its
    temp file. A compiler that *dies mid-build* (crash, OOM kill, the
    120 s timeout) surfaces as :class:`ConfigurationError`, which the
    ``auto``/supervised paths turn into a fall back to ``vectorized`` —
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
                "falling back to the vectorized backend"
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


def _declare(lib) -> None:
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    ll = ctypes.c_int64
    dbl = ctypes.c_double
    # The subset-index argument is nullable (NULL means "identity"), so
    # it is a raw pointer rather than an ndpointer.
    i64p = ctypes.POINTER(ctypes.c_int64)

    # name -> (restype, argtypes). Every ``_mt`` entry takes a trailing
    # n_threads; 1 runs the kernel inline on the calling thread.
    signatures = {
        "cpa_assign_f64_mt": (None, [
            f64, f64, i64, ll, dbl, ll, ll, ll, f64, i32, u8, ll,
        ]),
        "cpa_assign_fixed_mt": (None, [
            i64, i64, f64, i64, ll, ll, ll, ll, ll, ll, ll, ll, ll, ll,
            f64, i32, u8, ll,
        ]),
        "ppa_assign_f64_mt": (None, [
            f64, i64, i64, i64, i64, ll, i32, f64, dbl, i32, ll,
        ]),
        "ppa_assign_fixed_mt": (None, [
            i64, i64, i64, i64, i64, ll, i32, i64, ll, ll, ll, ll, ll, ll,
            i32, ll,
        ]),
        "lab_from_codes_u8_mt": (None, [
            u8, ll, i64, i64, ll, ll, ll, i64, ll, i64, i64, ll, ll, ll,
            ll, ll, ll, ll, ll, ll, i64, dbl, dbl, dbl, f64, ll,
        ]),
        "sigma_acc_f64_mt": (None, [
            f64, i64p, i32, ll, ll, ll, f64, i64, ll,
        ]),
        "sigma_acc_codes_mt": (None, [
            i64, i64p, i32, ll, ll, dbl, dbl, dbl, ll, f64, i64, ll,
        ]),
        "contingency_i64_mt": (None, [i64, i64, ll, ll, ll, i64, ll, i64]),
        "ccl_i32_mt": (ll, [i32, ll, ll, i32, i64, ll]),
        "ccl_resolve": (ll, [i64, i64, ll, ll, i64]),
        "merge_small": (None, [
            i64, i64, i64, i64, ll, i64, ll, ll, i64, i64, i64,
        ]),
        "chamfer_i64": (None, [i64, ll, ll]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes


def load():
    """Compile (if needed) and load the native library; raises on failure."""
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise _load_error
    try:
        lib = ctypes.CDLL(str(_build()))
        _declare(lib)
    except Exception as exc:  # memoize: probing must stay cheap
        _load_error = (
            exc
            if isinstance(exc, ConfigurationError)
            else ConfigurationError(f"native kernel backend unavailable: {exc}")
        )
        raise _load_error from None
    _lib = lib
    return lib


def is_available() -> bool:
    """True when the native library loads (compiling it on first call)."""
    try:
        load()
        return True
    except ConfigurationError:
        return False


# ----------------------------------------------------------------------
# Sequential kernels (no threaded form)
# ----------------------------------------------------------------------

def resolve_runs(pair_a, pair_b, n_runs):
    """Union run-id pairs and renumber: ``dense_ids, n_comps``.

    The incremental-connectivity helper: run decomposition happens in
    numpy (only dirty row bands are rebuilt), the union-find resolve
    happens here. Dense ids are in first-appearance (minimal run id)
    order, identical to the full CCL kernels.
    """
    lib = load()
    pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
    pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
    parent = np.empty(int(n_runs), dtype=np.int64)
    n = lib.ccl_resolve(pair_a, pair_b, len(pair_a), int(n_runs), parent)
    return parent, int(n)


def merge_small(sizes, starts, ends, dst, border_len, min_size, order):
    """Greedy small-component merge walk; see ``merge_small_reference``."""
    lib = load()
    n_comps = len(sizes)
    parent = np.arange(n_comps, dtype=np.int64)
    merged_size = np.ascontiguousarray(sizes, dtype=np.int64).copy()
    final_root = np.empty(n_comps, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    lib.merge_small(
        np.ascontiguousarray(starts, dtype=np.int64),
        np.ascontiguousarray(ends, dtype=np.int64),
        np.ascontiguousarray(dst, dtype=np.int64),
        np.ascontiguousarray(border_len, dtype=np.int64),
        int(min_size),
        order, len(order),
        n_comps, parent, merged_size, final_root,
    )
    return final_root


def chamfer_distance(mask):
    """3-4 chamfer transform; see ``chamfer_distance_reference``.

    The C sweeps are the sequential raster form of the reference's
    prefix-min rows — exactly equal on the integer grid — and share the
    init/finalize helpers so the float conversion is identical too.
    """
    lib = load()
    dist = chamfer_init(mask)
    h, w = dist.shape
    lib.chamfer_i64(dist.reshape(-1), h, w)
    return chamfer_finalize(dist)
