"""The repro.kernels layer: dispatch rules and backend bit-identity.

Every optimized backend must reproduce the reference loops *exactly* —
same labels, same distance buffers, same touched counts, same component
numbering — across the float and fixed datapaths. The property tests
here are the contract ``docs/kernels.md`` promises; the speedup side is
asserted in ``benchmarks/bench_kernels.py``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.core import (
    FixedDatapath,
    SlicParams,
    candidate_map,
    grid_geometry,
    initial_centers,
    spatial_weight,
    tile_map,
)
from repro.core.assignment import PixelArrays
from repro.errors import ConfigurationError
from repro.kernels import (
    BACKEND_NAMES,
    DEMOTION_CHAIN,
    available_backends,
    get_backend,
    resolve_name,
    validate_name,
)
from repro.kernels import native as native_mod

from .kernel_cases import kernel_cases

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
    def test_reference_and_vectorized_always_available(self):
        names = available_backends()
        assert "reference" in names
        assert "vectorized" in names

    def test_validate_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            validate_name("cuda")

    def test_validate_name_accepts_all_known(self):
        for name in BACKEND_NAMES:
            assert validate_name(name.upper()) == name

    def test_resolve_name_concrete_passthrough(self):
        assert resolve_name("reference") == "reference"
        assert resolve_name("vectorized") == "vectorized"

    def test_resolve_name_auto_is_concrete(self):
        assert resolve_name("auto") in ("native-mt", "vectorized")

    def test_one_compiled_backend(self):
        """Serial is ``native-mt`` at one thread, not its own backend."""
        assert BACKEND_NAMES == ("auto", "reference", "vectorized", "native-mt")
        assert DEMOTION_CHAIN == ("native-mt", "vectorized", "reference")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            validate_name("native")

    def test_auto_picks_compiled_backend_on_one_core(self, monkeypatch):
        """``auto`` does not depend on the core count: a one-core process
        gets ``native-mt``, whose default width is then one thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        want = "native-mt" if native_mod.is_available() else "vectorized"
        assert resolve_name("auto") == want

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert resolve_name(None) == "reference"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        with pytest.raises(ConfigurationError):
            resolve_name(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert resolve_name("vectorized") == "vectorized"

    def test_get_backend_has_kernel_surface(self):
        for name in available_backends():
            mod = get_backend(name)
            assert callable(mod.cpa_assign)
            assert callable(mod.ppa_assign)
            assert callable(mod.connected_components)

    def test_params_validate_backend_name(self):
        assert SlicParams(kernel_backend="Vectorized").kernel_backend == (
            "vectorized"
        )
        with pytest.raises(ConfigurationError):
            SlicParams(kernel_backend="fpga")

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
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(8, 48),
        m=st.floats(1.0, 40.0),
        n_subsets=st.sampled_from([1, 2, 4]),
    )
    def test_float64_bit_identical(self, backend, seed, k, m, n_subsets):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(seed, k, m)
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)[::n_subsets]
        ref = get_backend("reference").ppa_assign(
            pixels, idx, cands, centers, weight
        )
        opt = get_backend(backend).ppa_assign(
            pixels, idx, cands, centers, weight
        )
        assert np.array_equal(ref, opt)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 32))
    def test_fixed_datapath_bit_identical(self, backend, seed, k):
        lab, centers, tiles, cands, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
        idx = np.arange(pixels.n_pixels)
        kw = dict(compactness=10.0, grid_s=s)
        ref = get_backend("reference").ppa_assign(
            pixels, idx, cands, centers, weight, **kw
        )
        opt = get_backend(backend).ppa_assign(
            pixels, idx, cands, centers, weight, **kw
        )
        assert np.array_equal(ref, opt)

    def test_empty_subset(self, backend):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(1, 12, 10.0)
        pixels = PixelArrays(lab, tiles)
        out = get_backend(backend).ppa_assign(
            pixels, np.array([], dtype=np.int64), cands, centers, weight
        )
        assert out.shape == (0,)
        assert out.dtype == np.int32


@pytest.mark.parametrize("backend", OPTIMIZED)
class TestConnectedComponentsIdentity:
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
        ref_c, ref_n = get_backend("reference").connected_components(labels)
        opt_c, opt_n = get_backend(backend).connected_components(labels)
        assert ref_n == opt_n
        assert np.array_equal(ref_c, opt_c)

    def test_spiral_chain_identical(self, backend):
        """A single long snaking component — worst case for propagation
        depth, exercising the pointer-jumping convergence loop."""
        h, w = 31, 31
        labels = np.ones((h, w), dtype=np.int32)
        # Comb pattern: vertical teeth connected only along the top row.
        for x in range(1, w, 2):
            labels[1:, x] = 0
        ref_c, ref_n = get_backend("reference").connected_components(labels)
        opt_c, opt_n = get_backend(backend).connected_components(labels)
        assert ref_n == opt_n
        assert np.array_equal(ref_c, opt_c)


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


class TestNativeBackend:
    def test_probe_does_not_raise(self):
        assert native_mod.is_available() in (True, False)

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
        assert np.array_equal(conv.convert_codes(rgb, backend=name), want)

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
        from repro.color.hw_convert import HwColorConverter

        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        conv = HwColorConverter()
        base = conv.convert_codes(rgb, backend="reference")
        for name in OPTIMIZED_NAMES:
            assert np.array_equal(conv.convert_codes(rgb, backend=name), base)


class TestLabFromCodesIdentity:
    """The fused conversion kernel: (decoded lab, codes) in one pass."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize("bits,uniform", [(8, True), (10, True), (8, False)])
    def test_matches_reference(self, name, bits, uniform):
        from repro.color.hw_convert import HwColorConverter, LabEncoding

        rng = np.random.default_rng(bits * 11 + uniform)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
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

    def test_convert_fused_dispatches_per_backend(self):
        from repro.color.hw_convert import HwColorConverter

        rng = np.random.default_rng(19)
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        conv = HwColorConverter()
        base_lab, base_codes = conv.convert_fused(rgb, backend="reference")
        assert np.array_equal(base_codes, conv.convert_codes(rgb))
        for name in OPTIMIZED_NAMES:
            lab, codes = conv.convert_fused(rgb, backend=name)
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


class TestMergeSmallIdentity:
    """The enforce_connectivity merge walk across backends."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    @pytest.mark.parametrize("min_size", [2, 5, 25, 400])
    def test_enforce_connectivity_matches_reference(self, name, min_size):
        from repro.core.connectivity import enforce_connectivity

        rng = np.random.default_rng(min_size)
        labels = rng.integers(0, 15, size=(H, W)).astype(np.int32)
        want = enforce_connectivity(labels, min_size, backend="reference")
        got = enforce_connectivity(labels, min_size, backend=name)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_tie_breaks_match_reference(self, name):
        """Equal border weights must resolve to the same neighbor."""
        from repro.core.connectivity import enforce_connectivity

        # A one-pixel stray with symmetric borders to two regions.
        labels = np.zeros((9, 9), dtype=np.int32)
        labels[:, 5:] = 1
        labels[4, 4] = 2
        want = enforce_connectivity(labels, 3, backend="reference")
        got = enforce_connectivity(labels, 3, backend=name)
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 200), min_size=st.integers(2, 60))
    @settings(max_examples=25, deadline=None)
    def test_property_random_maps(self, seed, min_size):
        from repro.core.connectivity import enforce_connectivity

        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 8, size=(24, 30)).astype(np.int32)
        want = enforce_connectivity(labels, min_size, backend="reference")
        for name in OPTIMIZED_NAMES:
            got = enforce_connectivity(labels, min_size, backend=name)
            assert np.array_equal(got, want), name


class TestMetricKernelsIdentity:
    """contingency_table / chamfer_distance across backends."""

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_contingency_table_matches(self, name):
        from repro.metrics import contingency_table

        rng = np.random.default_rng(5)
        a = rng.integers(0, 11, size=(40, 55)).astype(np.int32)
        b = rng.integers(0, 6, size=(40, 55)).astype(np.int32)
        want = contingency_table(a, b, backend="reference")
        got = contingency_table(a, b, backend=name)
        assert np.array_equal(got, want)
        assert got.sum() == a.size

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_chamfer_matches_on_sparse_and_dense_masks(self, name):
        from repro.metrics import chamfer_distance

        rng = np.random.default_rng(9)
        for density in (0.002, 0.05, 0.6):
            mask = rng.random((48, 64)) < density
            want = chamfer_distance(mask, backend="reference")
            got = chamfer_distance(mask, backend=name)
            assert np.array_equal(got, want), density

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_chamfer_all_false_is_inf(self, name):
        from repro.metrics import chamfer_distance

        out = chamfer_distance(np.zeros((7, 8), dtype=bool), backend=name)
        assert np.isinf(out).all()

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_chamfer_all_true_is_zero(self, name):
        from repro.metrics import chamfer_distance

        out = chamfer_distance(np.ones((7, 8), dtype=bool), backend=name)
        assert (out == 0).all()
