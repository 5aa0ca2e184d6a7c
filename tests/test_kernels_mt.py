"""The ``native-mt`` backend: differential identity and thread safety.

The contract under test is stronger than "fast": every threaded kernel
must be **bit-identical** to the reference loops at *any* thread count.
The differential harness here runs each kernel at 1, 2, 4 and 7 threads
(1 is the serial case, run inline; odd counts catch remainder-tile bugs
in the ownership partition), including degenerate shapes where the
frame is thinner or smaller than one tile. The concurrency half asserts
that two engines segmenting at the same time in one process — each with
its own ambient thread count — cannot corrupt each other, that
one-thread calls from concurrent callers overlap, and that the
supervisor's first-dispatch memo is race-free.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.color.hw_convert import (
    HwColorConverter,
    LabEncoding,
    convert_codes_reference,
)
from repro.color.lut import reset_lut_caches
from repro.core import (
    FixedDatapath,
    candidate_map,
    grid_geometry,
    initial_centers,
    slic,
    spatial_weight,
    tile_map,
)
from repro.core.assignment import PixelArrays
from repro.kernels import (
    available_backends,
    reference,
    supervisor,
    usable_cores,
)
from repro.kernels import native_mt
from repro.kernels.native_mt import resolve_threads, thread_context

pytestmark = pytest.mark.skipif(
    "native-mt" not in available_backends(),
    reason="no C compiler in environment",
)

#: Odd counts (7) exercise uneven remainder tiles; 1 exercises the
#: inline serial path; 2 and 4 are the common mobile widths.
THREADS = [1, 2, 4, 7]

H, W = 37, 53


def _setup(seed, k, m, fixed=False, h=H, w=W):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    lab = rgb_to_lab(image)
    centers = initial_centers(lab, k).copy()
    centers[:, 3] += rng.uniform(-2, 2, len(centers))
    centers[:, 4] += rng.uniform(-2, 2, len(centers))
    gh, gw, _, _ = grid_geometry((h, w), k)
    tiles = tile_map((h, w), gh, gw)
    cands = candidate_map(gh, gw)
    s = float(np.sqrt(h * w / len(centers)))
    weight = spatial_weight(m, s)
    dp = FixedDatapath(bits=8) if fixed else None
    codes = dp.encode_image(lab) if fixed else None
    return lab, centers, tiles, cands, s, weight, dp, codes


def _cpa_buffers(h, w):
    return (
        np.full((h, w), np.inf),
        np.full((h, w), -1, dtype=np.int32),
    )


@pytest.mark.parametrize("nt", THREADS)
class TestCpaDifferential:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 40),
           m=st.floats(1.0, 40.0))
    def test_float64(self, nt, seed, k, m):
        lab, centers, _, _, s, weight, _, _ = _setup(seed, k, m)
        d_r, l_r = _cpa_buffers(H, W)
        d_m, l_m = _cpa_buffers(H, W)
        n_r = reference.cpa_assign(lab, centers, weight, s, d_r, l_r)
        n_m = native_mt.cpa_assign(
            lab, centers, weight, s, d_m, l_m, n_threads=nt
        )
        assert n_r == n_m
        assert np.array_equal(l_r, l_m)
        assert np.array_equal(d_r, d_m)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 32))
    def test_fixed_datapath(self, nt, seed, k):
        lab, centers, _, _, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        kw = dict(datapath=dp, compactness=10.0, codes=codes)
        d_r, l_r = _cpa_buffers(H, W)
        d_m, l_m = _cpa_buffers(H, W)
        reference.cpa_assign(lab, centers, weight, s, d_r, l_r, **kw)
        native_mt.cpa_assign(
            lab, centers, weight, s, d_m, l_m, n_threads=nt, **kw
        )
        assert np.array_equal(l_r, l_m)
        assert np.array_equal(d_r, d_m)

    def test_center_subset(self, nt):
        lab, centers, _, _, s, weight, _, _ = _setup(7, 24, 12.0)
        subset = np.arange(len(centers))[::3]
        d_r, l_r = _cpa_buffers(H, W)
        d_m, l_m = _cpa_buffers(H, W)
        reference.cpa_assign(
            lab, centers, weight, s, d_r, l_r, cluster_indices=subset
        )
        native_mt.cpa_assign(
            lab, centers, weight, s, d_m, l_m,
            cluster_indices=subset, n_threads=nt,
        )
        assert np.array_equal(l_r, l_m)
        assert np.array_equal(d_r, d_m)


@pytest.mark.parametrize("nt", THREADS)
class TestPpaDifferential:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 40),
           m=st.floats(1.0, 40.0), stride=st.sampled_from([1, 2, 5]))
    def test_float64(self, nt, seed, k, m, stride):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(seed, k, m)
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)[::stride]
        ref = reference.ppa_assign(pixels, idx, cands, centers, weight)
        got = native_mt.ppa_assign(
            pixels, idx, cands, centers, weight, n_threads=nt
        )
        assert np.array_equal(ref, got)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(8, 32))
    def test_fixed_datapath(self, nt, seed, k):
        lab, centers, tiles, cands, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
        idx = np.arange(pixels.n_pixels)
        kw = dict(compactness=10.0, grid_s=s)
        ref = reference.ppa_assign(pixels, idx, cands, centers, weight, **kw)
        got = native_mt.ppa_assign(
            pixels, idx, cands, centers, weight, n_threads=nt, **kw
        )
        assert np.array_equal(ref, got)

    def test_subset_smaller_than_thread_count(self, nt):
        """Fewer pixels than threads: trailing chunks must be empty,
        not out of bounds."""
        lab, centers, tiles, cands, s, weight, _, _ = _setup(3, 12, 10.0)
        pixels = PixelArrays(lab, tiles)
        for n in (0, 1, 3):
            idx = np.arange(pixels.n_pixels)[:n]
            ref = reference.ppa_assign(pixels, idx, cands, centers, weight)
            got = native_mt.ppa_assign(
                pixels, idx, cands, centers, weight, n_threads=nt
            )
            assert np.array_equal(ref, got)


@pytest.mark.parametrize("nt", THREADS)
class TestLabCodesDifferential:
    """``HwColorConverter.convert_codes`` on ``native-mt`` against the
    ``convert_codes_reference`` spec."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000),
           bits=st.sampled_from([8, 10]), uniform=st.booleans())
    def test_random_images(self, nt, seed, bits, uniform):
        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
        want = convert_codes_reference(conv, rgb)
        with thread_context(nt):
            got = conv.convert_codes(rgb, backend="native-mt")
        assert np.array_equal(got, want)


@pytest.mark.parametrize("nt", THREADS)
class TestLabFromCodesDifferential:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000),
           bits=st.sampled_from([8, 10]), uniform=st.booleans())
    def test_random_images(self, nt, seed, bits, uniform):
        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
        want_lab, want_codes = reference.lab_from_codes(conv, rgb)
        got_lab, got_codes = native_mt.lab_from_codes(conv, rgb, n_threads=nt)
        assert np.array_equal(got_lab, want_lab)
        assert np.array_equal(got_codes, want_codes)


@pytest.mark.parametrize("nt", THREADS)
class TestSigmaAccumulateDifferential:
    """Cluster-ownership partitioning: bit-identical at any width."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 40),
           stride=st.sampled_from([0, 1, 3]))
    def test_float_rows(self, nt, seed, k, stride):
        rng = np.random.default_rng(seed)
        lab_flat = rng.standard_normal((H * W, 3)) * 40.0
        if stride == 0:
            idx, m = None, H * W
        else:
            idx = np.arange(0, H * W, stride, dtype=np.int64)
            m = len(idx)
        labels = rng.integers(0, k, size=m).astype(np.int32)
        want_s, want_c = reference.sigma_accumulate(
            labels, k, W, lab_flat=lab_flat, idx=idx
        )
        got_s, got_c = native_mt.sigma_accumulate(
            labels, k, W, lab_flat=lab_flat, idx=idx, n_threads=nt
        )
        assert np.array_equal(got_s, want_s)
        assert np.array_equal(got_c, want_c)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 24),
           bits=st.sampled_from([8, 10]))
    def test_fixed_codes(self, nt, seed, k, bits):
        rng = np.random.default_rng(seed)
        enc = LabEncoding(bits)
        codes_flat = rng.integers(
            0, enc.code_max + 1, size=(H * W, 3)
        ).astype(np.int64)
        idx = rng.permutation(H * W)[: H * W // 2].astype(np.int64)
        labels = rng.integers(0, k, size=len(idx)).astype(np.int32)
        want_s, want_c = reference.sigma_accumulate(
            labels, k, W, codes_flat=codes_flat, encoding=enc, idx=idx
        )
        got_s, got_c = native_mt.sigma_accumulate(
            labels, k, W, codes_flat=codes_flat, encoding=enc, idx=idx,
            n_threads=nt,
        )
        assert np.array_equal(got_s, want_s)
        assert np.array_equal(got_c, want_c)

    def test_fewer_clusters_than_threads(self, nt):
        """K < width: trailing ownership bands are empty, not OOB."""
        rng = np.random.default_rng(5)
        lab_flat = rng.standard_normal((60, 3))
        labels = rng.integers(0, 2, size=60).astype(np.int32)
        want = reference.sigma_accumulate(labels, 2, 6, lab_flat=lab_flat)
        got = native_mt.sigma_accumulate(
            labels, 2, 6, lab_flat=lab_flat, n_threads=nt
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("nt", THREADS)
class TestContingencyDifferential:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), n_a=st.integers(1, 12),
           n_b=st.integers(1, 9), n=st.sampled_from([0, 3, 101, 4097]))
    def test_random_labelings(self, nt, seed, n_a, n_b, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n_a, size=n).astype(np.int64)
        b = rng.integers(0, n_b, size=n).astype(np.int64)
        want = reference.contingency_table(a, b, n_a, n_b)
        got = native_mt.contingency_table(a, b, n_a, n_b, n_threads=nt)
        assert np.array_equal(got, want)
        assert got.sum() == n


class TestDegenerateShapes:
    """Frames thinner or smaller than one tile, at 7 threads."""

    SHAPES = [(1, 40), (40, 1), (2, 3), (3, 2), (1, 1), (5, 5)]

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_cpa(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        lab = rgb_to_lab(
            rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        )
        n_centers = 2
        centers = np.stack(
            [
                rng.uniform(0, 100, n_centers),
                rng.uniform(-40, 40, n_centers),
                rng.uniform(-40, 40, n_centers),
                rng.uniform(0, max(w - 1, 1), n_centers),
                rng.uniform(0, max(h - 1, 1), n_centers),
            ],
            axis=1,
        )
        s = max(float(np.sqrt(h * w / n_centers)), 1.0)
        weight = spatial_weight(10.0, s)
        d_r, l_r = _cpa_buffers(h, w)
        d_m, l_m = _cpa_buffers(h, w)
        n_r = reference.cpa_assign(lab, centers, weight, s, d_r, l_r)
        n_m = native_mt.cpa_assign(
            lab, centers, weight, s, d_m, l_m, n_threads=7
        )
        assert n_r == n_m
        assert np.array_equal(l_r, l_m)
        assert np.array_equal(d_r, d_m)

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_lab_codes(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        conv = HwColorConverter()
        want = convert_codes_reference(conv, rgb)
        with thread_context(7):
            got = conv.convert_codes(rgb, backend="native-mt")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_lab_from_codes(self, h, w):
        rng = np.random.default_rng(h * 10 + w + 1)
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        conv = HwColorConverter()
        want_lab, want_codes = reference.lab_from_codes(conv, rgb)
        got_lab, got_codes = native_mt.lab_from_codes(conv, rgb, n_threads=7)
        assert np.array_equal(got_lab, want_lab)
        assert np.array_equal(got_codes, want_codes)

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_sigma_accumulate(self, h, w):
        rng = np.random.default_rng(h * 10 + w + 2)
        lab_flat = rng.standard_normal((h * w, 3))
        labels = rng.integers(0, 3, size=h * w).astype(np.int32)
        want = reference.sigma_accumulate(labels, 3, w, lab_flat=lab_flat)
        got = native_mt.sigma_accumulate(
            labels, 3, w, lab_flat=lab_flat, n_threads=7
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_serial_delegates_unaffected_by_ambient_threads(self):
        """A pinned ambient thread count must not change the output of
        the row-banded CC or of chamfer, which has no threaded form."""
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 6, size=(20, 24)).astype(np.int32)
        mask = rng.random((20, 24)) < 0.1
        want_cc = reference.connected_components(labels)
        want_ch = reference.chamfer_distance(mask)
        with thread_context(7):
            got_cc = native_mt.connected_components(labels)
            got_ch = native_mt.chamfer_distance(mask)
        assert want_cc[1] == got_cc[1]
        assert np.array_equal(want_cc[0], got_cc[0])
        assert np.array_equal(want_ch, got_ch)


class TestThreadResolution:
    def test_explicit_kwarg_wins(self):
        with thread_context(5):
            assert resolve_threads(2) == 2

    def test_ambient_beats_env(self, monkeypatch):
        monkeypatch.setenv(native_mt.ENV_THREADS, "3")
        assert resolve_threads() == 3
        with thread_context(5):
            assert resolve_threads() == 5
        assert resolve_threads() == 3

    def test_env_garbage_falls_through(self, monkeypatch):
        monkeypatch.setenv(native_mt.ENV_THREADS, "not-a-number")
        assert resolve_threads() >= 1

    def test_default_follows_cpu_affinity(self, monkeypatch):
        """A process pinned to one core of an 8-core machine defaults to
        one thread, not eight."""
        monkeypatch.delenv(native_mt.ENV_THREADS, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cores() == 1
        assert resolve_threads() == 1

    def test_clamped_to_valid_range(self):
        assert resolve_threads(0) == 1
        assert resolve_threads(-4) == 1
        assert resolve_threads(10_000) == native_mt.MAX_THREADS

    def test_context_is_thread_local(self):
        """Two threads pin different ambient counts without interfering."""
        seen = {}
        barrier_a, barrier_b = [], []

        def pin(name, n, other):
            with thread_context(n):
                other.append(1)  # signal: my context is active
                deadline = time.monotonic() + 5.0
                while not barrier_a or not barrier_b:
                    if time.monotonic() > deadline:  # pragma: no cover
                        break
                    time.sleep(0.001)
                seen[name] = resolve_threads()

        with ThreadPoolExecutor(2) as ex:
            fa = ex.submit(pin, "a", 2, barrier_a)
            fb = ex.submit(pin, "b", 7, barrier_b)
            fa.result()
            fb.result()
        assert seen == {"a": 2, "b": 7}


class TestConcurrentEngines:
    """Two segmentations running at once in one process must be
    bit-identical to their serial runs — no scratch-buffer or LUT-cache
    corruption."""

    @pytest.fixture(autouse=True)
    def _fresh_luts(self):
        reset_lut_caches()
        yield
        reset_lut_caches()

    def _image(self, seed, h=40, w=56):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)

    def test_float_engines_concurrently(self):
        img_a = self._image(21)
        img_b = self._image(22, 48, 40)

        def run_a():
            return slic(
                img_a, n_superpixels=24,
                kernel_backend="native-mt", n_threads=2,
            ).labels

        def run_b():
            return slic(
                img_b, n_superpixels=18,
                kernel_backend="native-mt", n_threads=3,
            ).labels

        base_a, base_b = run_a(), run_b()
        with ThreadPoolExecutor(2) as ex:
            for _ in range(3):
                fa, fb = ex.submit(run_a), ex.submit(run_b)
                assert np.array_equal(fa.result(), base_a)
                assert np.array_equal(fb.result(), base_b)

    def test_fixed_datapath_engines_share_lut_caches(self):
        """The fixed path hits the shared color LUT caches from both
        engine threads at once."""
        img_a = self._image(31)
        img_b = self._image(32, 36, 44)

        def run(img, k, nt):
            return slic(
                img, n_superpixels=k, architecture="cpa",
                datapath=FixedDatapath(bits=8),
                kernel_backend="native-mt", n_threads=nt,
            ).labels

        base_a = run(img_a, 20, 2)
        base_b = run(img_b, 12, 7)
        reset_lut_caches()  # concurrent runs rebuild the caches racing
        with ThreadPoolExecutor(2) as ex:
            fa = ex.submit(run, img_a, 20, 2)
            fb = ex.submit(run, img_b, 12, 7)
            assert np.array_equal(fa.result(), base_a)
            assert np.array_equal(fb.result(), base_b)

    def test_ambient_context_matches_explicit_param(self):
        img = self._image(41)
        explicit = slic(
            img, n_superpixels=20, kernel_backend="native-mt", n_threads=3
        ).labels
        with thread_context(3):
            ambient = slic(
                img, n_superpixels=20, kernel_backend="native-mt"
            ).labels
        assert np.array_equal(explicit, ambient)


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
class TestInlineWidth:
    """One-thread calls run inline, outside the pool's dispatch lock, so
    two callers at ``n_threads=1`` run side by side instead of taking
    turns (as thread-mode serving with one kernel thread does)."""

    def test_concurrent_one_thread_calls_overlap(self):
        """Callers taking turns would finish one whole call apart;
        overlapping calls finish together (the gap is independent of how
        much parallel speedup the host's cores can give)."""
        rng = np.random.default_rng(8)
        rgb = rng.integers(0, 256, size=(540, 960, 3), dtype=np.uint8)
        conv = HwColorConverter()

        def call():
            t0 = time.perf_counter()
            native_mt.lab_from_codes(conv, rgb, n_threads=1)
            return time.perf_counter() - t0

        def finish_gap():
            start = threading.Barrier(2)
            ends = []

            def run():
                start.wait(timeout=30)
                call()
                ends.append(time.perf_counter())

            other = threading.Thread(target=run)
            other.start()
            run()
            other.join(timeout=30)
            assert not other.is_alive() and len(ends) == 2
            return abs(ends[0] - ends[1])

        call()  # warm the library and the LUT caches
        one = min(call() for _ in range(5))
        gap = min(finish_gap() for _ in range(5))
        assert gap <= 0.5 * one, f"finish gap {gap:.4f}s, one call {one:.4f}s"


class TestSupervisorMemoRace:
    @pytest.fixture(autouse=True)
    def _fresh_supervision(self):
        supervisor.reset_supervision()
        yield
        supervisor.reset_supervision()

    def test_concurrent_first_dispatch_runs_self_test_once(
        self, monkeypatch
    ):
        calls = []
        orig = supervisor.self_test

        def slow_self_test(name):
            calls.append(name)
            time.sleep(0.05)  # widen the race window
            return orig(name)

        monkeypatch.setattr(supervisor, "self_test", slow_self_test)
        with ThreadPoolExecutor(8) as ex:
            verdicts = list(
                ex.map(
                    lambda _: supervisor.supervised_resolve("native-mt"),
                    range(8),
                )
            )
        # One self-test, one shared verdict object — no torn memo.
        assert calls == ["native-mt"]
        assert len({id(v) for v in verdicts}) == 1
        assert all(v.name == "native-mt" for v in verdicts)
        assert all(not v.demoted for v in verdicts)
