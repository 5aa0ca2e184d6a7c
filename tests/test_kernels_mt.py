"""The ``native-mt`` backend: differential identity and thread safety.

The contract under test is stronger than "fast": every threaded kernel
must be **bit-identical** to the reference loops at *any* thread count.
The differential harness here runs each kernel at 1, 2, 4 and 7 threads
(1 is the serial case, run inline; odd counts catch remainder-tile bugs
in the ownership partition), including degenerate shapes where the
frame is thinner or smaller than one tile, every entry once at the
pool's cap of 64 threads, and every entry at 4 threads in a child
process that cannot start a thread. The concurrency half
asserts that two engines segmenting at the same time in one process —
each with its own thread count — cannot corrupt each other, that
one-thread calls from concurrent callers overlap, and that the
supervisor's first-dispatch memo is race-free.
"""

import ctypes
import functools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.color.hw_convert import (
    HwColorConverter,
    LabEncoding,
    convert_codes_reference,
)
from repro.color.reference import BAND_PIXELS
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
from repro.kernels import native, native_mt
from repro.kernels.native_mt import resolve_threads

from .kernel_cases import (
    PPA_SUBSET_KINDS,
    assert_ppa_matches_reference,
    ppa_cluster_counts,
    ppa_subset,
    tie_centers,
)

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


def _at(nt):
    """``native_mt.ppa_assign`` pinned to ``nt`` threads."""

    def ppa_assign(*args, **kwargs):
        return native_mt.ppa_assign(*args, n_threads=nt, **kwargs)

    return ppa_assign


#: Entries per range in the continuation layouts.
_BLOCK = 12


def _continuation_layout(case, width):
    """The cluster each entry chooses, for a pass of ``width`` ranges of
    ``_BLOCK`` entries. Cluster ``4 + t`` fills range ``t``; clusters 0
    and 1 straddle ranges:

    * ``every-range``: cluster 0 has entries inside every range;
    * ``skips-a-range``: cluster 1's head is range 1 and it appears again
      only in range 3 (the last range, below 4 ranges);
    * ``range-without``: range 1 holds no straddling entry;
    * ``last-entry``: a straddling entry ends every range.
    """
    blocks = [[4 + t] * _BLOCK for t in range(width)]
    if case == "every-range":
        for block in blocks:
            block[2] = block[7] = 0
    elif case == "skips-a-range":
        blocks[1][:3] = [1, 1, 1]
        later = min(3, width - 1)
        if later > 1:
            blocks[later][5] = 1
    elif case == "range-without":
        blocks[0][0] = 0
        for block in blocks[2:]:
            block[4] = 0
    elif case == "last-entry":
        for block in blocks:
            block[-1] = 0
    return np.concatenate(blocks)


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
    """The fused pass at every width: chosen labels, the in-place label
    map and the sigma partials equal the reference."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), k=ppa_cluster_counts(8, 40),
           m=st.floats(1.0, 40.0), stride=st.sampled_from([1, 2, 5]),
           kind=st.sampled_from(PPA_SUBSET_KINDS), ties=st.booleans())
    @example(seed=2, k=2, m=10.0, stride=1, kind="blocks", ties=True)
    def test_float64(self, nt, seed, k, m, stride, kind, ties):
        lab, centers, tiles, cands, s, weight, _, _ = _setup(seed, k, m)
        if ties:
            centers = tie_centers(centers, cands)
        pixels = PixelArrays(lab, tiles)
        idx = ppa_subset(kind, H, W, stride, seed, tiles)
        assert_ppa_matches_reference(
            _at(nt), pixels, idx, cands, centers, weight
        )

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000), k=ppa_cluster_counts(8, 32),
           kind=st.sampled_from(PPA_SUBSET_KINDS), ties=st.booleans())
    @example(seed=0, k=16, kind="strided",
             ties=False)  # one subset: the whole frame
    @example(seed=2, k=2, kind="blocks", ties=True)
    def test_fixed_datapath(self, nt, seed, k, kind, ties):
        lab, centers, tiles, cands, s, weight, dp, codes = _setup(
            seed, k, 10.0, fixed=True
        )
        if ties:
            centers = tie_centers(centers, cands)
        pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
        idx = ppa_subset(kind, H, W, 1 + seed % 3, seed, tiles)
        assert_ppa_matches_reference(
            _at(nt), pixels, idx, cands, centers, weight,
            compactness=10.0, grid_s=s,
        )

    def test_subset_smaller_than_thread_count(self, nt):
        """Fewer pixels than threads: trailing chunks must be empty,
        not out of bounds."""
        lab, centers, tiles, cands, s, weight, _, _ = _setup(3, 12, 10.0)
        pixels = PixelArrays(lab, tiles)
        for n in (0, 1, 3):
            idx = np.arange(pixels.n_pixels)[:n]
            assert_ppa_matches_reference(
                _at(nt), pixels, idx, cands, centers, weight
            )

    @pytest.mark.parametrize("h,w,k", [(1, 40, 4), (40, 1, 4), (9, 11, 1)])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_degenerate_frames(self, nt, h, w, k, fixed):
        """1xN and Nx1 frames, a single cluster, and the empty subset."""
        lab, centers, tiles, cands, s, weight, dp, codes = _setup(
            h * w + k, k, 10.0, fixed=fixed, h=h, w=w
        )
        pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
        kw = dict(compactness=10.0, grid_s=s) if fixed else {}
        for idx in (
            np.arange(h * w, dtype=np.int64),
            ppa_subset("unsorted-dup", h, w, 2, k),
            np.array([], dtype=np.int64),
        ):
            assert_ppa_matches_reference(
                _at(nt), pixels, idx, cands, centers, weight, **kw
            )


    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize(
        "case",
        ["every-range", "skips-a-range", "range-without", "last-entry"],
    )
    def test_continuation_layouts(self, nt, case, fixed):
        """The serial continuation folds exactly each range's straddling
        entries, wherever they sit. Each entry's tile has nine equal
        candidates, so the layout fixes which clusters straddle which
        ranges. One thread has no continuation: that instance runs at
        three."""
        width = nt if nt > 1 else 3
        layout = _continuation_layout(case, width)
        k = 4 + width
        lab, _, _, _, s, weight, dp, codes = _setup(width, 8, 10.0,
                                                    fixed=fixed)
        rng = np.random.default_rng(width)
        centers = np.column_stack([
            rng.uniform(0, 100, k), rng.uniform(-40, 40, (k, 2)),
            rng.uniform(0, W, k), rng.uniform(0, H, k),
        ])
        tiles = np.zeros(H * W, dtype=np.int32)
        tiles[: len(layout)] = layout
        pixels = PixelArrays(lab, tiles.reshape(H, W), datapath=dp,
                             codes=codes)
        cands = np.repeat(np.arange(k, dtype=np.int32)[:, None], 9, axis=1)
        kw = dict(compactness=10.0, grid_s=s) if fixed else {}
        chosen, _, _ = assert_ppa_matches_reference(
            _at(width), pixels, np.arange(len(layout)), cands, centers,
            weight, **kw,
        )
        assert np.array_equal(chosen, layout)


@pytest.mark.skipif(
    "native-mt" not in available_backends() or native.ppa_lanes() == 1,
    reason="the library already runs the scalar PPA loops on this CPU",
)
def test_scalar_ppa_build_matches_lanes(tmp_path, monkeypatch):
    """Where the library picks the lane bodies, the scalar loops that
    every other host runs would go unexercised: a second build with the
    lane bodies compiled out must agree with it on the fused contract."""
    so = tmp_path / "scalar_only.so"
    subprocess.run(
        [native._compiler(), *native._CFLAGS, "-DPPA_SCALAR_ONLY",
         "-o", str(so), str(native._SRC), "-lm"],
        check=True, capture_output=True, timeout=120,
    )
    scalar = ctypes.CDLL(str(so))
    native._declare(scalar)
    assert scalar.ppa_lanes() == 1
    libs = (native.load(), scalar)
    for kind in PPA_SUBSET_KINDS:
        for k, fixed in ((3, False), (16, True)):
            lab, centers, tiles, cands, s, weight, dp, codes = _setup(
                k, k, 10.0, fixed=fixed
            )
            pixels = PixelArrays(lab, tiles, datapath=dp, codes=codes)
            kw = dict(compactness=10.0, grid_s=s) if fixed else {}
            idx = ppa_subset(kind, H, W, 2, k, tiles)
            prior = (np.arange(H * W) % len(centers)).astype(np.int32)
            for nt in (1, 2, 3):
                outs = []
                for lib in libs:
                    monkeypatch.setattr(native, "_lib", lib)
                    label_map = prior.copy()
                    out = native_mt.ppa_assign(
                        pixels, idx, cands, centers, weight,
                        labels_out=label_map, n_threads=nt, **kw,
                    )
                    outs.append((*out, label_map))
                for field, a, b in zip(
                    ("chosen", "sums", "counts", "labels_out"), *outs
                ):
                    assert np.array_equal(a, b), (kind, fixed, nt, field)


@pytest.mark.parametrize("nt", THREADS)
class TestLabCodesDifferential:
    """The codes of ``native-mt``'s ``lab_from_codes`` against the
    ``convert_codes_reference`` spec."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000),
           bits=st.sampled_from([8, 10]), uniform=st.booleans())
    def test_random_images(self, nt, seed, bits, uniform):
        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, size=(H, W, 3), dtype=np.uint8)
        conv = HwColorConverter(encoding=LabEncoding(bits, uniform=uniform))
        want = convert_codes_reference(conv, rgb)
        got = native_mt.lab_from_codes(conv, rgb, n_threads=nt)[1]
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
        got = native_mt.lab_from_codes(conv, rgb, n_threads=7)[1]
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

    @pytest.mark.parametrize("h,w", SHAPES)
    def test_enforce_connectivity(self, h, w):
        rng = np.random.default_rng(h * 10 + w + 3)
        labels = rng.integers(0, 3, size=(h, w)).astype(np.int32)
        for min_size in (2, max(2, h * w // 4), h * w + 1):
            want = reference.enforce_connectivity(labels, min_size)
            got = native_mt.enforce_connectivity(
                labels, min_size, n_threads=7
            )
            assert np.array_equal(got, want), min_size


def _entry_cases(nt):
    """Every ``native_mt`` entry at ``nt`` threads, as ``(name, run,
    want)``: ``run()`` calls the entry and returns its outputs, and
    ``want`` holds ``reference``'s, computed here. The inputs give each
    of up to 64 participants work: 72 rows for the CPA scan and the
    connectivity pass, 96 clusters for the sigma accumulation, 2,880
    entries for both PPA passes (each run once writing a label map and
    once without one) and ``lab_from_codes``. The float color image is
    two bands of the row-band walk, so a second slab exists."""
    h, w, k = 72, 40, 96
    lab, centers, tiles, cands, s, weight, dp, codes = _setup(
        64, k, 10.0, fixed=True, h=h, w=w
    )
    rng = np.random.default_rng(nt)
    rows = rng.standard_normal((h * w, 3)) * 40.0
    labels = rng.integers(0, k, size=h * w).astype(np.int32)
    rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    two_bands = rng.integers(
        0, 256, size=(2, BAND_PIXELS // 2 + 1, 3), dtype=np.uint8
    )
    conv = HwColorConverter()
    regions = rng.integers(0, 4, size=(h, w)).astype(np.int32)
    idx = np.arange(h * w)
    prior = (idx % k).astype(np.int32)

    def cpa(mod, n):
        dist, out = _cpa_buffers(h, w)
        touched = mod.cpa_assign(
            lab, centers, weight, s, dist, out, n_threads=n
        )
        return np.int64(touched), out, dist

    def ppa(mod, n, pixels, **kw):
        label_map = prior.copy()
        mapped = mod.ppa_assign(
            pixels, idx, cands, centers, weight, labels_out=label_map,
            n_threads=n, **kw,
        )
        unmapped = mod.ppa_assign(
            pixels, idx, cands, centers, weight, n_threads=n, **kw
        )
        return (*mapped, label_map, *unmapped)

    cases = {
        "cpa_assign": cpa,
        "ppa_assign": lambda mod, n: ppa(mod, n, PixelArrays(lab, tiles)),
        "ppa_assign.fixed": lambda mod, n: ppa(
            mod, n, PixelArrays(lab, tiles, datapath=dp, codes=codes),
            compactness=10.0, grid_s=s,
        ),
        "lab_from_codes": lambda mod, n: mod.lab_from_codes(
            conv, rgb, n_threads=n
        ),
        "lab_from_rgb": lambda mod, n: (
            mod.lab_from_rgb(two_bands, n_threads=n),
        ),
        "sigma_accumulate": lambda mod, n: mod.sigma_accumulate(
            labels, k, w, lab_flat=rows, n_threads=n
        ),
        "enforce_connectivity": lambda mod, n: (
            mod.enforce_connectivity(regions, 6, n_threads=n),
        ),
    }
    return [
        (name, functools.partial(case, native_mt, nt), case(reference, 1))
        for name, case in cases.items()
    ]


def _assert_same_bits(name, got, want):
    assert len(got) == len(want), name
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, (name, i)
        assert a.tobytes() == b.tobytes(), (name, i)


def test_every_entry_at_max_threads(monkeypatch):
    """Every entry matches the reference at the C pool's cap, 64 threads.

    Runs in the test process: the 63 workers it leaves parked do not
    slow later calls, which wake only the workers they use."""
    nt = native_mt.MAX_THREADS
    seen = set()
    resolve = native_mt.resolve_threads

    def spy(n_threads=None):
        width = resolve(n_threads)
        seen.add(width)
        return width

    monkeypatch.setattr(native_mt, "resolve_threads", spy)
    for name, run, want in _entry_cases(nt):
        _assert_same_bits(name, run(), want)
    assert seen == {nt}


def _every_entry_without_threads(nt=4):
    """Run every entry at ``nt`` threads in this process after capping its
    address space a few MB above what it maps, so no thread stack fits.

    Call only in a child process: the cap holds for the rest of the
    process. The inputs, the ``reference`` results and the library are
    ready before the cap. Returns ``"skip"`` if a thread still starts,
    else ``"ok"``; a mismatch raises ``AssertionError``."""
    import resource

    cases = _entry_cases(nt)
    native.load()
    with open("/proc/self/status") as status:
        vm_kb = next(
            int(line.split()[1]) for line in status
            if line.startswith("VmSize:")
        )
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, ((vm_kb + 7 * 1024) * 1024, hard))
    probe = threading.Thread(target=lambda: None)
    try:
        probe.start()
    except RuntimeError:
        pass
    else:
        probe.join()
        return "skip"
    for name, run, want in cases:
        _assert_same_bits(name, run(), want)
    return "ok"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads the process's mapped size from /proc",
)
def test_every_entry_when_no_thread_starts():
    """With no thread to spare, every entry still runs each of its ``nt``
    slices, the missing workers' and helpers' on the caller, and matches
    the reference bit for bit. The split never depends on how many
    threads started, so no entry re-partitions or falls back."""
    from pathlib import Path

    import repro

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(root)]
    ))
    script = (
        "from tests.test_kernels_mt import _every_entry_without_threads\n"
        "print(_every_entry_without_threads())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "skip":
        pytest.skip("a thread still starts under the address-space cap")
    assert proc.stdout.strip() == "ok"


class TestThreadResolution:
    def test_explicit_kwarg_wins(self, monkeypatch):
        """The ``n_threads`` argument beats ``REPRO_KERNEL_THREADS``,
        which beats the core count."""
        monkeypatch.setenv(native_mt.ENV_THREADS, "3")
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2

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


def _clear_lut_caches():
    """Empty the per-process color LUT memos."""
    from repro.color import lut
    from repro.color import reference as color_reference

    for cached in (
        lut.build_gamma_lut, lut._fit_cbrt_pwl, color_reference._gamma_lut_u8
    ):
        cached.cache_clear()


class TestConcurrentEngines:
    """Two segmentations running at once in one process must be
    bit-identical to their serial runs — no scratch-buffer or LUT-cache
    corruption."""

    @pytest.fixture(autouse=True)
    def _fresh_luts(self):
        _clear_lut_caches()
        yield
        _clear_lut_caches()

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
        _clear_lut_caches()  # concurrent runs rebuild the caches racing
        with ThreadPoolExecutor(2) as ex:
            fa = ex.submit(run, img_a, 20, 2)
            fb = ex.submit(run, img_b, 12, 7)
            assert np.array_equal(fa.result(), base_a)
            assert np.array_equal(fb.result(), base_b)


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
