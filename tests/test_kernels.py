"""The repro.kernels layer: dispatch rules and backend bit-identity.

Every optimized backend must reproduce the reference loops *exactly* —
same labels, same distance buffers, same touched counts, same component
numbering — across the float and fixed datapaths. The property tests
here are the contract ``docs/kernels.md`` promises; the speedup side is
asserted in ``benchmarks/bench_kernels.py``.
"""

import ctypes
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.core import (
    FixedDatapath,
    SlicParams,
    candidate_map,
    dynamic_candidate_map,
    grid_geometry,
    initial_centers,
    spatial_weight,
    tile_map,
)
from repro.core.assignment import PixelArrays
from repro.errors import ConfigurationError, ImageError
from repro.kernels import (
    BACKEND_NAMES,
    DEMOTION_CHAIN,
    available_backends,
    get_backend,
    resolve_name,
    validate_name,
)
from repro.kernels import native as native_mod

from .kernel_cases import (
    PPA_SUBSET_KINDS,
    assert_ppa_matches_reference,
    kernel_cases,
    ppa_cluster_counts,
    ppa_subset,
    tie_centers,
)

H, W = 48, 64

#: Optimized backends by name (for in-body loops) and as parametrize
#: cases (the compiled backend at one thread and on its pool).
OPTIMIZED_NAMES = [n for n in available_backends() if n != "reference"]
OPTIMIZED = kernel_cases(OPTIMIZED_NAMES)


def _setup(seed, k, m, fixed=False):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
    lab = rgb_to_lab(image)
    centers = initial_centers(lab, k)
    # Off-grid centers exercise window clipping and sub-pixel handling.
    centers = centers.copy()
    centers[:, 3] += rng.uniform(-2, 2, len(centers))
    centers[:, 4] += rng.uniform(-2, 2, len(centers))
    gh, gw, _, _ = grid_geometry((H, W), k)
    tiles = tile_map((H, W), gh, gw)
    cands = candidate_map(gh, gw)
    s = float(np.sqrt(H * W / len(centers)))
    weight = spatial_weight(m, s)
    dp = FixedDatapath(bits=8) if fixed else None
    codes = dp.encode_image(lab) if fixed else None
    return lab, centers, tiles, cands, s, weight, dp, codes


class TestDispatch:
    def test_reference_always_available(self):
        names = available_backends()
        assert names[0] == "reference"
        assert set(names) <= {"reference", "native-mt"}

    def test_validate_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            validate_name("cuda")

    def test_validate_name_accepts_all_known(self):
        for name in BACKEND_NAMES:
            assert validate_name(name.upper()) == name

    def test_resolve_name_concrete_passthrough(self):
        assert resolve_name("reference") == "reference"

    def test_resolve_name_auto_is_concrete(self):
        assert resolve_name("auto") in ("native-mt", "reference")

    def test_one_compiled_backend(self):
        """Serial is ``native-mt`` at one thread, not its own backend, and
        the spec is the only other one."""
        assert BACKEND_NAMES == ("auto", "reference", "native-mt")
        assert DEMOTION_CHAIN == ("native-mt", "reference")
        for gone in ("native", "vectorized"):
            with pytest.raises(ConfigurationError,
                               match="unknown kernel backend"):
                validate_name(gone)

    def test_auto_picks_compiled_backend_on_one_core(self, monkeypatch):
        """``auto`` does not depend on the core count: a one-core process
        gets ``native-mt``, whose default width is then one thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        want = "native-mt" if native_mod.is_available() else "reference"
        assert resolve_name("auto") == want

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert resolve_name(None) == "reference"
        for bad in ("bogus", "vectorized"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", bad)
            with pytest.raises(ConfigurationError):
                resolve_name(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        assert resolve_name("reference") == "reference"

    def test_get_backend_has_kernel_surface(self):
        """Every backend exports the six-entry contract, and only it."""
        contract = {
            "cpa_assign", "ppa_assign", "enforce_connectivity",
            "lab_from_codes", "lab_from_rgb", "sigma_accumulate",
        }
        for name in available_backends():
            mod = get_backend(name)
            assert set(mod.__all__) - {"is_available"} >= contract, name
            for kernel in contract:
                assert callable(getattr(mod, kernel)), (name, kernel)
            for gone in ("connected_components", "merge_small",
                         "contingency_table", "chamfer_distance"):
                assert not hasattr(mod, gone), (name, gone)

    def test_params_validate_backend_name(self):
        assert SlicParams(kernel_backend="Reference").kernel_backend == (
            "reference"
        )
        for bad in ("fpga", "vectorized"):
            with pytest.raises(ConfigurationError):
                SlicParams(kernel_backend=bad)

    def test_params_default_is_none(self):
        assert SlicParams().kernel_backend is None


@pytest.mark.parametrize("backend", OPTIMIZED)
class TestCpaIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(8, 48),
        m=st.floats(1.0, 40.0),
        stride=st.sampled_from([1, 2, 4]),
    )
    def test_float64_bit_identical(self, backend, seed, k, m, stride):
        lab, centers, _, _, s, weight, _, _ = _setup(seed, k, m)
        subset = np.arange(len(centers))[::stride]
        ref = get_backend("reference")
        opt = get_backend(backend)
        d_r = np.full((H, W), np.inf)
        l_r = np.full((H, W), -1, dtype=np.int32)
        d_o = np.full((H, W), np.inf)
        l_o = np.full((H, W), -1, dtype=np.int32)
        n_r = ref.cpa_assign(
            lab, centers, weight, s, d_r, l_r, cluster_indices=subset
        )
        n_o = opt.cpa_assign(
            lab, centers, weight, s, d_o, l_o, cluster_indices=subset
        )
        assert np.array_equal(l_r, l_o)
        assert np.array_equal(d_r, d_o)  # bitwise: includes inf pattern
        assert n_r == n_o

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 32))
    def test_fixed_datapath_bit_identical(self, backend, seed, k):
        lab, centers, _, _, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        ref = get_backend("reference")
        opt = get_backend(backend)
        kw = dict(datapath=dp, compactness=10.0, codes=codes)
        d_r = np.full((H, W), np.inf)
        l_r = np.full((H, W), -1, dtype=np.int32)
        d_o = np.full((H, W), np.inf)
        l_o = np.full((H, W), -1, dtype=np.int32)
        n_r = ref.cpa_assign(lab, centers, weight, s, d_r, l_r, **kw)
        n_o = opt.cpa_assign(lab, centers, weight, s, d_o, l_o, **kw)
        assert np.array_equal(l_r, l_o)
        assert np.array_equal(d_r, d_o)
        assert n_r == n_o

    def test_int64_dist_buffer_supported(self, backend):
        """Direct callers may pass an int64 sentinel buffer in fixed mode;
        every backend must accept it (native falls back internally)."""
        lab, centers, _, _, s, weight, dp, codes = _setup(
            3, 12, 10.0, fixed=True
        )
        kw = dict(datapath=dp, compactness=10.0, codes=codes)
        big = np.int64(2**62)
        d_r = np.full((H, W), big)
        l_r = np.full((H, W), -1, dtype=np.int32)
        d_o = np.full((H, W), big)
        l_o = np.full((H, W), -1, dtype=np.int32)
        get_backend("reference").cpa_assign(
            lab, centers, weight, s, d_r, l_r, **kw
        )
        get_backend(backend).cpa_assign(
            lab, centers, weight, s, d_o, l_o, **kw
        )
        assert np.array_equal(l_r, l_o)
        assert np.array_equal(d_r, d_o)


@pytest.mark.parametrize("backend", OPTIMIZED)
class TestPpaIdentity:
    """The fused pass: chosen labels, the in-place label map and the
    subset's sigma partials all equal the reference."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=ppa_cluster_counts(8, 48),
        m=st.floats(1.0, 40.0),
        n_subsets=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(PPA_SUBSET_KINDS),
        dynamic=st.booleans(),
        ties=st.booleans(),
    )
    @example(seed=1, k=3, m=10.0, n_subsets=1, kind="rows", dynamic=False,
             ties=True)  # 32-entry same-tile runs, tied centers
    def test_float64_bit_identical(
        self, backend, seed, k, m, n_subsets, kind, dynamic, ties
    ):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(seed, k, m)
        if dynamic:  # candidates recomputed from the moved centers
            gh, gw, _, _ = grid_geometry((H, W), k)
            cands = dynamic_candidate_map(centers, gh, gw, (H, W))
        if ties:
            centers = tie_centers(centers, cands)
        pixels = PixelArrays(lab, tiles)
        idx = ppa_subset(kind, H, W, n_subsets, seed, tiles)
        assert_ppa_matches_reference(
            get_backend(backend).ppa_assign, pixels, idx, cands, centers,
            weight,
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=ppa_cluster_counts(8, 32),
        n_subsets=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(PPA_SUBSET_KINDS),
        ties=st.booleans(),
    )
    @example(seed=0, k=16, n_subsets=1, kind="strided",
             ties=False)  # the whole frame
    @example(seed=1, k=3, n_subsets=1, kind="rows", ties=True)
    def test_fixed_datapath_bit_identical(
        self, backend, seed, k, n_subsets, kind, ties
    ):
        lab, centers, tiles, cands, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        if ties:
            centers = tie_centers(centers, cands)
        pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
        idx = ppa_subset(kind, H, W, n_subsets, seed, tiles)
        assert_ppa_matches_reference(
            get_backend(backend).ppa_assign, pixels, idx, cands, centers,
            weight, compactness=10.0, grid_s=s,
        )

    def test_empty_subset(self, backend):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(1, 12, 10.0)
        pixels = PixelArrays(lab, tiles)
        labels = tiles.ravel().astype(np.int32)
        chosen, sums, counts = get_backend(backend).ppa_assign(
            pixels, np.array([], dtype=np.int64), cands, centers, weight,
            labels_out=labels,
        )
        assert chosen.shape == (0,)
        assert chosen.dtype == np.int32
        assert sums.shape == (len(centers), 5) and not sums.any()
        assert counts.shape == (len(centers),) and not counts.any()
        assert np.array_equal(labels, tiles.ravel())


def _connectivity_matches_reference(backend, labels):
    """The fused connectivity entry equals the reference at a small, a
    mid and an everything-is-small ``min_size``: a component the backend
    split or joined by mistake changes what merges where."""
    area = labels.size
    for min_size in (2, max(2, area // 4), area + 1):
        want = get_backend("reference").enforce_connectivity(labels, min_size)
        got = get_backend(backend).enforce_connectivity(labels, min_size)
        assert np.array_equal(got, want), min_size


@pytest.mark.parametrize("backend", OPTIMIZED)
class TestConnectedComponentsIdentity:
    """Component labeling inside the fused connectivity entry."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_labels=st.integers(1, 8),
        h=st.integers(1, 40),
        w=st.integers(1, 40),
    )
    def test_random_maps_identical(self, backend, seed, n_labels, h, w):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_labels, size=(h, w)).astype(np.int32)
        _connectivity_matches_reference(backend, labels)

    def test_spiral_chain_identical(self, backend):
        """A single long snaking component — worst case for propagation
        depth, exercising the pointer-jumping convergence loop."""
        h, w = 31, 31
        labels = np.ones((h, w), dtype=np.int32)
        # Comb pattern: vertical teeth connected only along the top row.
        for x in range(1, w, 2):
            labels[1:, x] = 0
        _connectivity_matches_reference(backend, labels)


class TestEngineBackendEquivalence:
    def test_end_to_end_labels_identical(self):
        from repro.core import slic

        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        results = {
            name: slic(image, n_superpixels=30, kernel_backend=name)
            for name in available_backends()
        }
        base = results["reference"].labels
        for name, res in results.items():
            assert np.array_equal(base, res.labels), name

    def test_end_to_end_cpa_fixed_identical(self):
        from repro.core import slic

        rng = np.random.default_rng(12)
        image = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        results = {
            name: slic(
                image,
                n_superpixels=24,
                architecture="cpa",
                datapath=FixedDatapath(bits=8),
                kernel_backend=name,
            )
            for name in available_backends()
        }
        base = results["reference"].labels
        for name, res in results.items():
            assert np.array_equal(base, res.labels), name


#: C parameter and return types -> the ctypes spelling ``native.py``
#: may declare for them.
_C_TYPES = {
    "void": (None,),
    "int64_t": (ctypes.c_int64,),
    "double": (ctypes.c_double,),
    "double*": ("float64",),
    "int64_t*": ("int64", ctypes.c_int64),
    "int32_t*": ("int32", ctypes.c_int32),
    "uint8_t*": ("uint8",),
}


def _declared(argtype):
    """What a declared ctypes type points at: a dtype name for an
    ``ndpointer``, the pointee for a ``POINTER``, else the type itself."""
    dtype = getattr(argtype, "_dtype_", None)
    if dtype is not None:
        return dtype.name
    pointee = getattr(argtype, "_type_", None)
    return pointee if isinstance(pointee, type) else argtype


def _c_exports():
    """``name -> (return type, [parameter types])`` for every function
    ``_native.c`` defines without ``static``; types drop ``const`` and
    parameter names (``"const double *lab"`` -> ``"double*"``)."""
    src = re.sub(r"/\*.*?\*/", "", native_mod._SRC.read_text(), flags=re.S)
    exports = {}
    for m in re.finditer(
        r"^([A-Za-z_][\w \t*]*?)\b(\w+)\(([^)]*)\)\s*\{", src, re.M
    ):
        ret, name, params = m.groups()
        if "static" in ret.split():
            continue
        types = []
        for param in params.split(","):
            words = param.replace("*", " * ").split()
            words = [w for w in words if w != "const"]
            if words != ["void"]:
                types.append(words[0] + "*" * words.count("*"))
        exports[name] = (ret.strip(), types)
    return exports


class TestNativeBackend:
    def test_probe_does_not_raise(self):
        assert native_mod.is_available() in (True, False)

    def test_ctypes_signatures_match_the_c_exports(self):
        """``native.SIGNATURES`` declares exactly the functions the C
        source exports, with their parameter and return types: an export
        without a signature (ctypes would pass C ints) or a stale one
        fails here rather than when it is called."""
        exports = _c_exports()
        assert set(exports) == set(native_mod.SIGNATURES)
        assert len(exports) == 10
        for name, (restype, argtypes) in native_mod.SIGNATURES.items():
            c_ret, c_params = exports[name]
            assert restype in _C_TYPES[c_ret], name
            assert len(argtypes) == len(c_params), name
            for i, (argtype, c_type) in enumerate(zip(argtypes, c_params)):
                assert _declared(argtype) in _C_TYPES[c_type], (name, i)

    @pytest.mark.skipif(
        "native-mt" not in OPTIMIZED_NAMES,
        reason="no C compiler in environment",
    )
    def test_compile_cache_reused(self, tmp_path, monkeypatch):
        """A fresh cache dir gets exactly one .so; a second build reuses
        it (hash-keyed, so reruns don't recompile)."""
        import repro.kernels.native as native

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        first = native._build()
        assert first.exists() and first.parent == tmp_path
        mtime = first.stat().st_mtime_ns
        second = native._build()
        assert second == first
        assert second.stat().st_mtime_ns == mtime

    def test_failed_load_keeps_no_caller_frames(self, monkeypatch):
        """A failed load is memoized, and each probe raises a fresh error:
        re-raising one stored error would append every probe's frames to
        its traceback and keep each caller's locals alive."""
        import gc
        import weakref

        builds = []

        def no_compiler():
            builds.append(1)
            raise ConfigurationError("no C compiler found (test)")

        monkeypatch.setattr(native_mod, "_lib", None)
        monkeypatch.setattr(native_mod, "_load_error", None)
        monkeypatch.setattr(native_mod, "_build", no_compiler)

        class Local:
            pass

        def probe():
            local = Local()
            assert not native_mod.is_available()
            return weakref.ref(local)

        refs = [probe() for _ in range(4)]
        with pytest.raises(ConfigurationError, match="no C compiler"):
            native_mod.load()
        gc.collect()
        assert [r() for r in refs] == [None] * 4
        assert len(builds) == 1  # the failure is memoized, not retried

    def test_host_without_compiler_runs_reference(self, tmp_path):
        """With no C compiler on the host, ``auto`` resolves to the spec,
        supervision demotes an explicit ``native-mt`` to it, and ``slic``
        runs end to end."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        empty = tmp_path / "bin"
        empty.mkdir()
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("CC", "REPRO_KERNEL_BACKEND")
        }
        env.update(
            PATH=str(empty),
            REPRO_KERNEL_CACHE=str(tmp_path / "cache"),
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        script = """
import numpy as np
from repro.core import slic
from repro.kernels import available_backends, resolve_name
from repro.kernels.supervisor import supervised_resolve

assert available_backends() == ("reference",), available_backends()
assert resolve_name("auto") == "reference"
verdict = supervised_resolve("native-mt")
assert verdict.name == "reference", verdict.name
assert verdict.demoted_from == "native-mt", verdict.demoted_from
image = np.random.default_rng(5).integers(0, 256, (24, 32, 3), np.uint8)
auto = slic(image, n_superpixels=12, max_iterations=2)
spec = slic(image, n_superpixels=12, max_iterations=2,
            kernel_backend="reference")
assert np.array_equal(auto.labels, spec.labels)
print("ok")
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestLabCodesIdentity:
    """Every backend's Lab codes against the ``convert_codes_reference``
    spec; the codes come from the one conversion kernel,
    ``lab_from_codes``."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize("bits,uniform", [(8, True), (10, True), (8, False)])
    def test_matches_reference(self, name, bits, uniform):
        from repro.color.hw_convert import (
            HwColorConverter,
            LabEncoding,
            convert_codes_reference,
        )

        rng = np.random.default_rng(bits * 7 + uniform)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
        want = convert_codes_reference(conv, rgb)
        _, codes = get_backend(name).lab_from_codes(conv, rgb)
        assert np.array_equal(codes, want)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_extreme_colors_match(self, name):
        """Saturation corners: black, white, pure primaries."""
        from repro.color.hw_convert import (
            HwColorConverter,
            convert_codes_reference,
        )

        corners = np.array(
            [
                [0, 0, 0], [255, 255, 255], [255, 0, 0],
                [0, 255, 0], [0, 0, 255], [255, 255, 0],
                [0, 255, 255], [255, 0, 255], [1, 1, 1],
            ],
            dtype=np.uint8,
        ).reshape(3, 3, 3)
        conv = HwColorConverter()
        want = convert_codes_reference(conv, corners)
        lab, codes = get_backend(name).lab_from_codes(conv, corners)
        assert np.array_equal(codes, want)
        assert np.array_equal(lab, conv.encoding.decode(want))

    def test_convert_codes_dispatches_per_backend(self):
        """``HwColorConverter.convert_codes`` runs the spec, and every
        backend's ``lab_from_codes`` returns the same codes."""
        from repro.color.hw_convert import HwColorConverter

        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        conv = HwColorConverter()
        base = conv.convert_codes(rgb)
        for name in available_backends():
            _, codes = get_backend(name).lab_from_codes(conv, rgb)
            assert np.array_equal(codes, base), name


class TestLabFromCodesIdentity:
    """The fused conversion kernel: (decoded lab, codes) in one pass."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize("bits,uniform", [(8, True), (10, True), (8, False)])
    def test_matches_reference(self, name, bits, uniform):
        from repro.color.hw_convert import HwColorConverter, LabEncoding

        rng = np.random.default_rng(bits * 11 + uniform)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
        # The C pixel loop rounds with 1 << (shift - 1), so both of the
        # pipeline's rounding shifts must be positive.
        pwl = conv.pwl
        mat_shift = (
            conv.gamma_frac_bits + conv._matrix_fmt.frac_bits
            - pwl.in_fmt.frac_bits
        )
        out_shift = (
            pwl.coeff_fmt.frac_bits + pwl.in_fmt.frac_bits
            - pwl.out_fmt.frac_bits
        )
        assert mat_shift > 0 and out_shift > 0
        want_lab, want_codes = get_backend("reference").lab_from_codes(
            conv, rgb
        )
        got_lab, got_codes = get_backend(name).lab_from_codes(conv, rgb)
        assert np.array_equal(got_lab, want_lab)
        assert np.array_equal(got_codes, want_codes)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_equals_two_step_sequence(self, name):
        """Fused output must be bitwise the spec's convert-then-decode
        result."""
        from repro.color.hw_convert import (
            HwColorConverter,
            convert_codes_reference,
        )

        rng = np.random.default_rng(17)
        rgb = rng.integers(0, 256, size=(20, 31, 3), dtype=np.uint8)
        conv = HwColorConverter()
        codes = convert_codes_reference(conv, rgb)
        lab = conv.encoding.decode(codes)
        got_lab, got_codes = get_backend(name).lab_from_codes(conv, rgb)
        assert np.array_equal(got_codes, codes)
        assert np.array_equal(got_lab, lab)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 17),
        w=st.integers(1, 23),
    )
    def test_property_tiny_shapes(self, seed, h, w):
        """Down to 1x1: every backend matches the reference pair."""
        from repro.color.hw_convert import HwColorConverter

        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        conv = HwColorConverter()
        want_lab, want_codes = get_backend("reference").lab_from_codes(
            conv, rgb
        )
        for name in OPTIMIZED_NAMES:
            got_lab, got_codes = get_backend(name).lab_from_codes(conv, rgb)
            assert np.array_equal(got_lab, want_lab), name
            assert np.array_equal(got_codes, want_codes), name

    def test_convert_matches_every_backend(self):
        """``HwColorConverter.convert`` (the spec's decode) equals the
        Lab half of every backend's ``lab_from_codes``."""
        from repro.color.hw_convert import HwColorConverter

        rng = np.random.default_rng(19)
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        conv = HwColorConverter()
        base_lab = conv.convert(rgb)
        base_codes = conv.convert_codes(rgb)
        for name in available_backends():
            lab, codes = get_backend(name).lab_from_codes(conv, rgb)
            assert np.array_equal(lab, base_lab), name
            assert np.array_equal(codes, base_codes), name


class TestSigmaAccumulateIdentity:
    """The one-pass sigma accumulation kernel across backends."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 24),
        w=st.integers(1, 31),
        k=st.integers(1, 40),
        stride=st.sampled_from([0, 1, 2, 5]),
    )
    def test_float_rows_bit_identical(self, seed, h, w, k, stride):
        """Float lab rows, full frame and strided subsets, K clusters
        with arbitrary empty ones (labels drawn from [0, K))."""
        rng = np.random.default_rng(seed)
        lab_flat = rng.standard_normal((h * w, 3)) * 40.0
        if stride == 0:
            idx = None
            m = h * w
        else:
            idx = np.arange(0, h * w, stride, dtype=np.int64)
            m = len(idx)
        labels = rng.integers(0, k, size=m).astype(np.int32)
        want_s, want_c = get_backend("reference").sigma_accumulate(
            labels, k, w, lab_flat=lab_flat, idx=idx
        )
        for name in OPTIMIZED_NAMES:
            got_s, got_c = get_backend(name).sigma_accumulate(
                labels, k, w, lab_flat=lab_flat, idx=idx
            )
            assert np.array_equal(got_s, want_s), name
            assert np.array_equal(got_c, want_c), name

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 24),
        bits=st.sampled_from([8, 10]),
    )
    def test_fixed_codes_bit_identical(self, seed, k, bits):
        from repro.color.hw_convert import LabEncoding

        rng = np.random.default_rng(seed)
        enc = LabEncoding(bits)
        h, w = 13, 17
        codes_flat = rng.integers(
            0, enc.code_max + 1, size=(h * w, 3)
        ).astype(np.int64)
        idx = rng.permutation(h * w)[: h * w // 2].astype(np.int64)
        labels = rng.integers(0, k, size=len(idx)).astype(np.int32)
        want_s, want_c = get_backend("reference").sigma_accumulate(
            labels, k, w, codes_flat=codes_flat, encoding=enc, idx=idx
        )
        for name in OPTIMIZED_NAMES:
            got_s, got_c = get_backend(name).sigma_accumulate(
                labels, k, w, codes_flat=codes_flat, encoding=enc, idx=idx
            )
            assert np.array_equal(got_s, want_s), name
            assert np.array_equal(got_c, want_c), name

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_empty_batch(self, name):
        """M == 0 returns all-zero partials (empty-cluster fallback is
        the accumulator's job; the kernel just reports zero counts)."""
        want_s, want_c = get_backend("reference").sigma_accumulate(
            np.array([], dtype=np.int32), 7, 5,
            lab_flat=np.zeros((0, 3)),
        )
        got_s, got_c = get_backend(name).sigma_accumulate(
            np.array([], dtype=np.int32), 7, 5,
            lab_flat=np.zeros((0, 3)),
        )
        assert np.array_equal(got_s, want_s) and (got_s == 0).all()
        assert np.array_equal(got_c, want_c) and (got_c == 0).all()

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_matches_accumulator_add(self, name):
        """The kernel partials equal SigmaAccumulator.add on the
        materialized (M, 5) values matrix — the lab5 contract."""
        from repro.core.accumulators import SigmaAccumulator

        rng = np.random.default_rng(23)
        h, w = 11, 13
        lab_flat = rng.standard_normal((h * w, 3)) * 30.0
        labels = rng.integers(0, 9, size=h * w).astype(np.int32)
        vals = np.empty((h * w, 5))
        vals[:, 0:3] = lab_flat
        vals[:, 3] = np.arange(h * w) % w
        vals[:, 4] = np.arange(h * w) // w
        acc = SigmaAccumulator(9)
        acc.add(vals, labels)
        got_s, got_c = get_backend(name).sigma_accumulate(
            labels, 9, w, lab_flat=lab_flat
        )
        assert np.array_equal(got_s, acc.sums)
        assert np.array_equal(got_c, acc.counts)


class TestIndexValidation:
    """Out-of-range indices fail with ConfigurationError on every backend,
    before any kernel reads or writes with them (the compiled kernels
    would otherwise drop a label >= K or read past ``centers``). The CPA
    scan rejects non-finite centers and buffers that do not match the
    frame the same way, and the connectivity pass what its int32 map
    cannot hold."""

    SHAPE = (6, 8)

    def _frame(self):
        h, w = self.SHAPE
        rng = np.random.default_rng(0)
        lab = rgb_to_lab(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        centers = initial_centers(lab, 4)
        gh, gw, _, _ = grid_geometry((h, w), 4)
        assert len(centers) == 4
        return lab, centers, tile_map((h, w), gh, gw), candidate_map(gh, gw)

    @pytest.mark.parametrize("backend", kernel_cases())
    @pytest.mark.parametrize(
        "case", ["label-equals-k", "negative-label", "idx-past-end",
                 "negative-idx", "width-0", "width-minus-1"],
    )
    def test_sigma_accumulate(self, backend, case):
        lab, _, _, _ = self._frame()
        h, w = self.SHAPE
        labels = (np.arange(h * w) % 4).astype(np.int32)
        idx = np.arange(h * w, dtype=np.int64)
        if case == "label-equals-k":
            labels[5] = 4
        elif case == "negative-label":
            labels[0] = -1
        elif case == "idx-past-end":
            idx[-1] = h * w
        elif case == "negative-idx":
            idx[3] = -2
        else:
            # The C loop divides by the width, and C's % truncates where
            # numpy's floors, so neither may reach a kernel.
            w = 0 if case == "width-0" else -1
        with pytest.raises(ConfigurationError):
            get_backend(backend).sigma_accumulate(
                labels, 4, w, lab_flat=lab.reshape(-1, 3), idx=idx
            )

    @pytest.mark.parametrize("backend", kernel_cases())
    @pytest.mark.parametrize(
        "case", ["candidate-7", "negative-candidate", "subset-past-end",
                 "negative-subset", "nan-center"],
    )
    def test_ppa_assign(self, backend, case):
        lab, centers, tiles, cands = self._frame()
        h, w = self.SHAPE
        cands = cands.copy()
        subset = np.arange(0, h * w, 2, dtype=np.int64)
        if case == "candidate-7":
            cands[0, 4] = 7
        elif case == "negative-candidate":
            cands[-1, 0] = -1
        elif case == "subset-past-end":
            subset[-1] = h * w
        elif case == "negative-subset":
            subset[0] = -1
        else:  # np.argmin picks a NaN distance, a strict < never does
            centers = centers.copy()
            centers[2, 0] = np.nan
        labels = tiles.ravel().astype(np.int32)
        with pytest.raises(ConfigurationError):
            get_backend(backend).ppa_assign(
                PixelArrays(lab, tiles), subset, cands, centers, 0.5,
                labels_out=labels,
            )
        assert np.array_equal(labels, tiles.ravel())  # nothing written


    @pytest.mark.parametrize("backend", kernel_cases())
    @pytest.mark.parametrize(
        "case", ["cluster-equals-k", "negative-cluster", "nan-center",
                 "short-buffer", "float-labels", "one-channel-lab"],
    )
    def test_cpa_assign(self, backend, case):
        lab, centers, _, _ = self._frame()
        h, w = self.SHAPE
        clusters = np.arange(len(centers))
        labels = np.full((h, w), -1, dtype=np.int32)
        if case == "cluster-equals-k":  # the scan would read past centers
            clusters[-1] = len(centers)
        elif case == "negative-cluster":  # ... or before them
            clusters[0] = -1
        elif case == "nan-center":  # C's cast of NaN to an integer is UB
            centers = centers.copy()
            centers[2, 3] = np.nan
        elif case == "short-buffer":
            labels = np.full((h - 1, w), -1, dtype=np.int32)
        elif case == "float-labels":
            labels = np.full((h, w), -1.0)
        else:  # C reads three channels per pixel
            lab = np.ascontiguousarray(lab[:, :, 0])
        dist = np.full((h, w), np.inf)
        with pytest.raises(ConfigurationError):
            get_backend(backend).cpa_assign(
                lab, centers, 0.5, 3.0, dist, labels,
                cluster_indices=clusters,
            )
        assert (labels == -1).all() and np.isinf(dist).all()  # nothing written

    @pytest.mark.parametrize("backend", OPTIMIZED)
    def test_cpa_assign_int64_labels(self, backend):
        """A label buffer the compiled scan cannot take runs the spec."""
        lab, centers, _, _ = self._frame()
        runs = []
        for name in ("reference", backend):
            dist = np.full(self.SHAPE, np.inf)
            labels = np.full(self.SHAPE, -1, dtype=np.int64)
            n = get_backend(name).cpa_assign(
                lab, centers, 0.5, 3.0, dist, labels
            )
            runs.append((n, labels, dist))
        (n_r, l_r, d_r), (n_o, l_o, d_o) = runs
        assert n_o == n_r and l_o.dtype == np.int64
        assert np.array_equal(l_o, l_r)
        assert d_o.tobytes() == d_r.tobytes()

    @pytest.mark.parametrize("backend", kernel_cases())
    @pytest.mark.parametrize(
        "case", ["label-2^32", "label-2^31", "float-min-size"]
    )
    def test_enforce_connectivity(self, backend, case):
        # Label 0 in columns 0-2 and a wide label in columns 3-5: an
        # int32 cast would wrap 2^32 to 0 and join the two regions.
        labels = np.zeros((4, 6), dtype=np.int64)
        min_size, error = 2, ImageError
        if case == "label-2^32":
            labels[:, 3:] = 2**32
        elif case == "label-2^31":
            labels[:, 3:] = 2**31
        else:
            labels[:, 3:] = 1
            min_size, error = 2.0, ConfigurationError
        with pytest.raises(error):
            get_backend(backend).enforce_connectivity(labels, min_size)
        labels[:, 3:] = 2**31 - 1  # the widest label int32 holds
        out = get_backend(backend).enforce_connectivity(labels, 2)
        assert np.array_equal(out, labels)


class TestMergeSmallIdentity:
    """The enforce_connectivity merge walk across backends."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize("min_size", [2, 5, 25, 400])
    def test_enforce_connectivity_matches_reference(self, name, min_size):
        rng = np.random.default_rng(min_size)
        labels = rng.integers(0, 15, size=(H, W)).astype(np.int32)
        want = get_backend("reference").enforce_connectivity(labels, min_size)
        got = get_backend(name).enforce_connectivity(labels, min_size)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_tie_breaks_match_reference(self, name):
        """Equal border weights must resolve to the same neighbor."""
        # A one-pixel stray with symmetric borders to two regions.
        labels = np.zeros((9, 9), dtype=np.int32)
        labels[:, 5:] = 1
        labels[4, 4] = 2
        want = get_backend("reference").enforce_connectivity(labels, 3)
        got = get_backend(name).enforce_connectivity(labels, 3)
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 200), min_size=st.integers(2, 60))
    @settings(max_examples=25, deadline=None)
    def test_property_random_maps(self, seed, min_size):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 8, size=(24, 30)).astype(np.int32)
        want = get_backend("reference").enforce_connectivity(labels, min_size)
        for name in OPTIMIZED_NAMES:
            got = get_backend(name).enforce_connectivity(labels, min_size)
            assert np.array_equal(got, want), name

