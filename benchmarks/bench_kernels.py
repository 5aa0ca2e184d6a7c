"""Kernel backend benchmark: bit-identity plus speedup gates.

The ``repro.kernels`` contract has two halves and this bench asserts
both on a VGA frame (480x640, 300 superpixels — the paper's Table 2
operating point scaled to one sweep):

1. **Bit-identity** — every available optimized backend must reproduce
   the reference loops exactly: same labels, same distance buffers, same
   touched-pixel counts, same component numbering.
2. **Speed** — the fastest available backend must beat the reference by
   at least 3x on the CPA sweep and 1.3x on the PPA pass. The CPA gate
   needs the compiled ``native-mt`` backend; when no compiler is present
   the gate is reported as skipped rather than failed, because the
   pure-numpy fallback intentionally trades speed for portability.
3. **Threading** — on a machine with >= 4 cores, ``native-mt`` on its
   thread pool must beat ``native-mt`` at one thread on the CPA sweep.
   On smaller machines the numbers are still recorded (with the thread
   count used) but the gate is reported as skipped — a 1-core container
   cannot exhibit the parallel speedup.
"""

import contextlib
import time

import numpy as np
import pytest

from repro.color import rgb_to_lab
from repro.core import (
    candidate_map,
    grid_geometry,
    initial_centers,
    spatial_weight,
    tile_map,
)
from repro.core.assignment import PixelArrays
from repro.data import SceneConfig, generate_scene
from repro.kernels import available_backends, get_backend, usable_cores

H, W, K = 480, 640, 300

CPA_SPEEDUP_GATE = 3.0
PPA_SPEEDUP_GATE = 1.3
#: native-mt on its pool must beat native-mt at one thread on CPA by
#: this factor when the machine actually has cores to fan out over.
MT_CPA_GATE = 1.3
MT_GATE_CORES = 4


@pytest.fixture(scope="module")
def setup():
    scene = generate_scene(
        SceneConfig(height=H, width=W, n_regions=24, n_disks=4), seed=7
    )
    lab = rgb_to_lab(scene.image)
    centers = initial_centers(lab, K)
    gh, gw, _, _ = grid_geometry((H, W), K)
    tiles = tile_map((H, W), gh, gw)
    cands = candidate_map(gh, gw)
    s = float(np.sqrt(H * W / len(centers)))
    weight = spatial_weight(10.0, s)
    return lab, centers, tiles, cands, s, weight


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_kernel_backends(setup, emit, bench_scale):
    lab, centers, tiles, cands, s, weight = setup
    repeats = 5 if bench_scale == "full" else 3
    backends = available_backends()
    optimized = [b for b in backends if b != "reference"]
    cores = usable_cores()

    # Pin the native-mt ambient thread count for the whole bench: up to
    # 4 threads when the cores exist, 2 on smaller machines so the pool
    # and stitch paths still execute (identity is checked regardless).
    mt_threads = min(cores, 4) if cores > 1 else 2
    if "native-mt" in backends:
        from repro.kernels.native_mt import thread_context

        pin = thread_context(mt_threads)
    else:
        pin = contextlib.nullcontext()

    def cpa_run(backend):
        dist = np.full((H, W), np.inf)
        labels = np.full((H, W), -1, dtype=np.int32)
        n = get_backend(backend).cpa_assign(lab, centers, weight, s, dist, labels)
        return labels, dist, n

    def ppa_run(backend):
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        return get_backend(backend).ppa_assign(pixels, idx, cands, centers, weight)

    with pin:
        # --- bit-identity across every available backend ---------------
        ref_cpa = cpa_run("reference")
        ref_ppa = ppa_run("reference")
        ref_cc = get_backend("reference").connected_components(
            ref_ppa.reshape(H, W)
        )
        for b in optimized:
            got_l, got_d, got_n = cpa_run(b)
            assert np.array_equal(got_l, ref_cpa[0]), f"{b}: CPA labels differ"
            assert np.array_equal(got_d, ref_cpa[1]), f"{b}: CPA dist differs"
            assert got_n == ref_cpa[2], f"{b}: CPA touched count differs"
            assert np.array_equal(ppa_run(b), ref_ppa), f"{b}: PPA labels differ"
            got_c, got_k = get_backend(b).connected_components(
                ref_ppa.reshape(H, W)
            )
            assert got_k == ref_cc[1] and np.array_equal(got_c, ref_cc[0]), (
                f"{b}: components differ"
            )

        # --- timings ---------------------------------------------------
        cpa_t = {b: _best_of(lambda b=b: cpa_run(b), repeats) for b in backends}
        ppa_t = {b: _best_of(lambda b=b: ppa_run(b), repeats) for b in backends}

    rows, records = [], []
    header = f"{'backend':<12}{'CPA ms':>10}{'x':>7}{'PPA ms':>10}{'x':>7}"
    rows.append(header)
    rows.append("-" * len(header))
    for b in backends:
        cx = cpa_t["reference"] / cpa_t[b]
        px = ppa_t["reference"] / ppa_t[b]
        rows.append(
            f"{b:<12}{cpa_t[b] * 1e3:>10.2f}{cx:>7.2f}"
            f"{ppa_t[b] * 1e3:>10.2f}{px:>7.2f}"
        )
        record = {
            "backend": b,
            "cpa_ms": cpa_t[b] * 1e3,
            "cpa_speedup": cx,
            "ppa_ms": ppa_t[b] * 1e3,
            "ppa_speedup": px,
            "bit_identical": True,
        }
        if b == "native-mt":
            record["n_threads"] = mt_threads
        records.append(record)

    best_cpa = max(cpa_t["reference"] / cpa_t[b] for b in optimized)
    best_ppa = max(ppa_t["reference"] / ppa_t[b] for b in optimized)
    rows.append("")
    rows.append(
        f"best speedup: CPA {best_cpa:.2f}x (gate {CPA_SPEEDUP_GATE}x), "
        f"PPA {best_ppa:.2f}x (gate {PPA_SPEEDUP_GATE}x)"
    )
    if "native-mt" not in backends:
        rows.append(
            "native-mt backend unavailable (no C compiler): CPA gate skipped"
        )

    # --- threading gate: native-mt at mt_threads over one thread -------
    mt_gain = None
    mt_gate_eligible = False
    if "native-mt" in backends:
        with thread_context(1):
            got_l, got_d, got_n = cpa_run("native-mt")
            assert np.array_equal(got_l, ref_cpa[0]) and np.array_equal(
                got_d, ref_cpa[1]
            ) and got_n == ref_cpa[2], "native-mt@1t: CPA differs"
            serial_t = _best_of(lambda: cpa_run("native-mt"), repeats)
        mt_gain = serial_t / cpa_t["native-mt"]
        mt_gate_eligible = cores >= MT_GATE_CORES
        rows.append(
            f"native-mt CPA gain over one thread: {mt_gain:.2f}x "
            f"at {mt_threads} threads (gate {MT_CPA_GATE}x)"
        )
        if not mt_gate_eligible:
            rows.append(
                f"{cores} core(s) < {MT_GATE_CORES}: native-mt speedup "
                f"gate skipped (numbers recorded only)"
            )
        records.append(
            {
                "backend": "native-mt-gate",
                "one_thread_cpa_ms": serial_t * 1e3,
                "gain_over_one_thread": mt_gain,
                "n_threads": mt_threads,
                "cores": cores,
                "eligible": mt_gate_eligible,
            }
        )
    emit("kernels", "\n".join(rows), records=records)

    assert best_ppa >= PPA_SPEEDUP_GATE, (
        f"PPA speedup {best_ppa:.2f}x below the {PPA_SPEEDUP_GATE}x gate"
    )
    if "native-mt" in backends:
        assert best_cpa >= CPA_SPEEDUP_GATE, (
            f"CPA speedup {best_cpa:.2f}x below the {CPA_SPEEDUP_GATE}x gate"
        )
    if mt_gate_eligible:
        assert mt_gain >= MT_CPA_GATE, (
            f"native-mt CPA gain {mt_gain:.2f}x over one thread is below "
            f"the {MT_CPA_GATE}x gate on a {cores}-core machine"
        )
