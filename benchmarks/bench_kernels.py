"""Kernel backend benchmark: bit-identity plus speedup gates.

The ``repro.kernels`` contract has two halves and this bench asserts
both on a VGA frame (480x640, 300 superpixels — the paper's Table 2
operating point scaled to one sweep):

1. **Bit-identity** — the compiled ``native-mt`` backend must reproduce
   the reference loops exactly: same labels, same distance buffers, same
   touched-pixel counts, same sigma partials and written label map from
   the fused PPA pass, same output from the connectivity pass.
2. **Speed** — ``native-mt`` must beat the reference by at least 3x on
   the CPA sweep and 1.3x on the fused PPA pass (assignment, label write
   and sigma partials). When no compiler is present the reference is the
   only backend, and both gates are reported as skipped rather than
   failed.
3. **Threading** — on a machine with >= 4 cores, ``native-mt`` on its
   thread pool must beat ``native-mt`` at one thread on the CPA sweep.
   On smaller machines the numbers are still recorded (with the thread
   count used) but the gate is reported as skipped — a 1-core container
   cannot exhibit the parallel speedup.

The table also times the whole connectivity pass (``conn ms``) on the
PPA pass's label map with the engine's default ``min_size`` (a quarter
of the nominal superpixel area). No gate reads it.

A last, ungated row times the float color conversion on the same frame:
the whole-frame numpy chain, ``rgb_to_lab``'s row-band walk at one
thread and at the ``native-mt`` thread count, and ``native-mt``'s
``lab_from_rgb`` (the same walk with its C band loops) at both thread
counts. All of them must agree bit for bit.

Every timing is a best-of-N over rounds in which each contender runs
once, round-robin, starting one place later each round. Timing one
contender's N calls after another's lets a slow stretch of the host land
on whichever ran last; the rotation spreads it over all of them.

Every row records ``ppa_lanes``: 8 when the compiled library runs the
PPA pass's AVX-512 lane bodies on this CPU, 1 for its scalar loops, and
``None`` for ``reference`` — so a PPA number recorded on one host can be
explained on another.
"""

import time

import numpy as np
import pytest

from repro.color import linear_rgb_to_xyz, rgb_to_lab, xyz_to_lab
from repro.color.reference import BAND_PIXELS, _gamma_lut_u8
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
    return scene.image, lab, centers, tiles, cands, s, weight


def _interleaved_best(fns, repeats):
    """Best wall time of each callable in ``fns`` (a name -> callable
    dict) over ``repeats`` rotated round-robin rounds."""
    names = list(fns)
    best = dict.fromkeys(names, np.inf)
    for rnd in range(repeats):
        for i in range(len(names)):
            name = names[(rnd + i) % len(names)]
            t0 = time.perf_counter()
            fns[name]()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def test_kernel_backends(setup, emit, bench_scale):
    image, lab, centers, tiles, cands, s, weight = setup
    repeats = 5 if bench_scale == "full" else 3
    backends = available_backends()
    optimized = [b for b in backends if b != "reference"]
    cores = usable_cores()

    # Every timed call passes its thread count: up to 4 threads when the
    # cores exist, 2 on smaller machines so the pool and stitch paths
    # still execute (identity is checked regardless). The reference
    # ignores it.
    mt_threads = min(cores, 4) if cores > 1 else 2
    lanes = None
    if "native-mt" in backends:
        from repro.kernels.native import ppa_lanes

        lanes = ppa_lanes()

    def cpa_run(backend, n_threads=mt_threads):
        dist = np.full((H, W), np.inf)
        labels = np.full((H, W), -1, dtype=np.int32)
        n = get_backend(backend).cpa_assign(
            lab, centers, weight, s, dist, labels, n_threads=n_threads
        )
        return labels, dist, n

    def ppa_run(backend):
        """The fused pass: ``(chosen, sums, counts, label_map)``."""
        pixels = PixelArrays(lab, tiles)
        idx = np.arange(pixels.n_pixels)
        label_map = tiles.ravel().astype(np.int32)
        chosen, sums, counts = get_backend(backend).ppa_assign(
            pixels, idx, cands, centers, weight, labels_out=label_map,
            n_threads=mt_threads,
        )
        return chosen, sums, counts, label_map

    # --- bit-identity across every available backend -------------------
    ref_cpa = cpa_run("reference")
    ref_ppa = ppa_run("reference")
    # The connectivity pass runs on the PPA pass's label map, at
    # SlicParams' default min_size_factor of 0.25.
    conn_map = ref_ppa[0].reshape(H, W)
    min_size = int(0.25 * s * s)

    def conn_run(backend):
        return get_backend(backend).enforce_connectivity(
            conn_map, min_size, n_threads=mt_threads
        )

    ref_conn = conn_run("reference")
    for b in optimized:
        got_l, got_d, got_n = cpa_run(b)
        assert np.array_equal(got_l, ref_cpa[0]), f"{b}: CPA labels differ"
        assert np.array_equal(got_d, ref_cpa[1]), f"{b}: CPA dist differs"
        assert got_n == ref_cpa[2], f"{b}: CPA touched count differs"
        for field, got, want in zip(
            ("labels", "sigma sums", "sigma counts", "label map"),
            ppa_run(b),
            ref_ppa,
        ):
            assert np.array_equal(got, want), f"{b}: PPA {field} differ"
        assert np.array_equal(conn_run(b), ref_conn), (
            f"{b}: connectivity output differs"
        )

    cpa_fns = {b: (lambda b=b: cpa_run(b)) for b in backends}
    if "native-mt" in backends:
        got_l, got_d, got_n = cpa_run("native-mt", n_threads=1)
        assert np.array_equal(got_l, ref_cpa[0]) and np.array_equal(
            got_d, ref_cpa[1]
        ) and got_n == ref_cpa[2], "native-mt@1t: CPA differs"
        cpa_fns["native-mt@1t"] = lambda: cpa_run("native-mt", n_threads=1)

    def whole_frame_color():
        return xyz_to_lab(linear_rgb_to_xyz(_gamma_lut_u8()[image]))

    color_fns = {
        "whole_frame": whole_frame_color,
        "band_1t": lambda: rgb_to_lab(image, n_threads=1),
        "band_mt": lambda: rgb_to_lab(image, n_threads=mt_threads),
    }
    if "native-mt" in backends:
        native_rgb = get_backend("native-mt").lab_from_rgb
        color_fns["native_1t"] = lambda: native_rgb(image, n_threads=1)
        color_fns["native_mt"] = lambda: native_rgb(
            image, n_threads=mt_threads
        )
    want_lab = whole_frame_color().view(np.uint64)
    for name, fn in color_fns.items():
        assert np.array_equal(fn().view(np.uint64), want_lab), (
            f"rgb_to_lab {name} differs from the whole-frame chain"
        )

    # --- timings -------------------------------------------------------
    cpa_t = _interleaved_best(cpa_fns, repeats)
    ppa_t = _interleaved_best(
        {b: (lambda b=b: ppa_run(b)) for b in backends}, repeats
    )
    conn_t = _interleaved_best(
        {b: (lambda b=b: conn_run(b)) for b in backends}, repeats
    )
    color_t = _interleaved_best(color_fns, repeats)

    rows, records = [], []
    header = (
        f"{'backend':<12}{'CPA ms':>10}{'x':>7}{'PPA ms':>10}{'x':>7}"
        f"{'conn ms':>10}{'x':>7}{'lanes':>7}"
    )
    rows.append(header)
    rows.append("-" * len(header))
    for b in backends:
        cx = cpa_t["reference"] / cpa_t[b]
        px = ppa_t["reference"] / ppa_t[b]
        kx = conn_t["reference"] / conn_t[b]
        b_lanes = lanes if b == "native-mt" else None
        rows.append(
            f"{b:<12}{cpa_t[b] * 1e3:>10.2f}{cx:>7.2f}"
            f"{ppa_t[b] * 1e3:>10.2f}{px:>7.2f}"
            f"{conn_t[b] * 1e3:>10.2f}{kx:>7.2f}{b_lanes or '-':>7}"
        )
        record = {
            "backend": b,
            "cpa_ms": cpa_t[b] * 1e3,
            "cpa_speedup": cx,
            "ppa_ms": ppa_t[b] * 1e3,
            "ppa_speedup": px,
            "conn_ms": conn_t[b] * 1e3,
            "conn_speedup": kx,
            "ppa_lanes": b_lanes,
            "bit_identical": True,
        }
        if b == "native-mt":
            record["n_threads"] = mt_threads
        records.append(record)

    rows.append("")
    if "native-mt" in backends:
        cpa_x = cpa_t["reference"] / cpa_t["native-mt"]
        ppa_x = ppa_t["reference"] / ppa_t["native-mt"]
        rows.append(
            f"native-mt speedup: CPA {cpa_x:.2f}x (gate {CPA_SPEEDUP_GATE}x), "
            f"PPA {ppa_x:.2f}x (gate {PPA_SPEEDUP_GATE}x)"
        )
    else:
        rows.append(
            "native-mt backend unavailable (no C compiler): CPA and PPA "
            "gates skipped"
        )

    # --- threading gate: native-mt at mt_threads over one thread -------
    mt_gain = None
    mt_gate_eligible = False
    if "native-mt" in backends:
        serial_t = cpa_t["native-mt@1t"]
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
                "ppa_lanes": lanes,
            }
        )
    color_ms = {name: t * 1e3 for name, t in color_t.items()}
    rows.append(
        f"rgb_to_lab: whole frame {color_ms['whole_frame']:.2f} ms, "
        f"bands at 1 thread {color_ms['band_1t']:.2f} ms, "
        f"at {mt_threads} threads {color_ms['band_mt']:.2f} ms "
        f"({BAND_PIXELS}-pixel bands, ungated)"
    )
    if "native-mt" in backends:
        rows.append(
            f"native-mt lab_from_rgb: at 1 thread "
            f"{color_ms['native_1t']:.2f} ms, at {mt_threads} threads "
            f"{color_ms['native_mt']:.2f} ms (same bands, ungated)"
        )
    records.append(
        {
            "backend": "rgb_to_lab",
            **{f"{name}_ms": ms for name, ms in color_ms.items()},
            "n_threads": mt_threads,
            "band_pixels": BAND_PIXELS,
            "bit_identical": True,
        }
    )
    emit("kernels", "\n".join(rows), records=records)

    if "native-mt" in backends:
        assert ppa_x >= PPA_SPEEDUP_GATE, (
            f"PPA speedup {ppa_x:.2f}x below the {PPA_SPEEDUP_GATE}x gate"
        )
        assert cpa_x >= CPA_SPEEDUP_GATE, (
            f"CPA speedup {cpa_x:.2f}x below the {CPA_SPEEDUP_GATE}x gate"
        )
    if mt_gate_eligible:
        assert mt_gain >= MT_CPA_GATE, (
            f"native-mt CPA gain {mt_gain:.2f}x over one thread is below "
            f"the {MT_CPA_GATE}x gate on a {cores}-core machine"
        )
