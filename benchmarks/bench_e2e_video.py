"""End-to-end video throughput: serial vs pickle-pool vs shm-pool (ISSUE 5).

Runs warm-started synthetic video through the full pipeline at VGA and
1080p under three configurations — serial, 4-worker pickle transport,
4-worker shared-memory transport — and records frames/sec plus the
per-phase time breakdown for each. The rows land in two artifacts:

* ``benchmarks/output/bench_e2e_video.{txt,jsonl}`` via the shared
  ``emit`` fixture (like every other bench), and
* ``BENCH_e2e.json`` at the repo root — the committed perf trajectory
  the ISSUE asks for, so throughput regressions show up in review.

The hard gate — 4-worker shm must be >= 1.3x faster than 4-worker
pickle at 1080p, where frame payloads are large enough for transport
cost to dominate — only asserts when the machine exposes >= 4 cores;
below that the pool is time-sliced on too few cores for transport to be
the bottleneck and the numbers are recorded without the assertion.

Since the native-mt PR a fourth configuration rides along:
``native-mt-1p`` — one process, the threaded C backend fanning each
frame over 4 in-process threads ("one process per stream, threads per
frame"). Its gate: at 1080p on >= 4 cores it must beat both the serial
run *and* the 4-worker shm pool, because it parallelizes the
same arithmetic with zero transport cost. On smaller machines the rows
are recorded and the gate reports skipped, like the shm gate.

Since the fused-color/sigma-kernel PR two more gates ride along, read
against the committed artifact the same way:

* **fused_sigma** — the serial 1080p ``center_update`` +
  ``color_conversion`` combined phase time must drop to half the
  committed number (the fused conversion and the one-pass sigma kernel
  exist to kill exactly those two serial leaders). Anti-ratcheted like
  the connectivity gate: once the post-fusion artifact is committed the
  jump is banked.
* **e2e_2x** — serial 1080p fps must reach 2x the frozen pre-CCL
  baseline (0.2597 fps, recorded before the CCL kernel landed) — the
  ROADMAP's end-to-end goal, an absolute target rather than a ratchet.

A second budget rides along since the telemetry PR: per-span resource
profiling (``--profile-spans``) must cost **<= 5% wall time** on a
traced VGA serial run. Both the profiled and unprofiled configurations
take the best of two runs so a one-off scheduler hiccup cannot fail the
gate, and the measured overhead lands in ``BENCH_e2e.json`` under
``profiling``.

Since the CCL-kernel PR a third gate rides along: the committed
baseline's 1080p serial run spent 6.3s of 15.4s in connectivity
enforcement, and the native two-pass union-find kernel plus incremental
video connectivity exist to kill exactly that. The gate reads the
**committed** ``BENCH_e2e.json`` *before* overwriting it and requires
1080p serial fps >= 2x the committed number — but only when the
baseline predates the CCL kernel (no ``connectivity`` gate block yet):
once the post-kernel artifact is committed the 2x jump is banked and
further drift is the regress sentinel's job, not a ratchet that doubles
every run. Like the other gates it records its numbers everywhere and
asserts only on >= 4 cores with a same-core-count baseline.
"""

import json
import platform
import time
from pathlib import Path

import pytest

from repro.core import SlicParams
from repro.kernels import available_backends, usable_cores
from repro.obs import MemorySink, Tracer
from repro.obs.regress import BENCH_SCHEMA_VERSION
from repro.parallel import ParallelRunner, shm_available, synthetic_streams

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_e2e.json"

SPEEDUP_FLOOR = 1.3
GATE_WORKERS = 4
GATE_RESOLUTION = "1080p"

#: The CCL-kernel PR must at least double committed 1080p serial
#: throughput (connectivity was 41% of the serial frame budget).
CONNECTIVITY_SPEEDUP_FLOOR = 2.0

#: Per-span profiling may add at most this fraction of wall time to a
#: traced VGA serial run (the repro.obs.profile budget).
PROFILING_OVERHEAD_CEILING = 0.05

#: The fused color path + one-pass sigma kernel must at least halve the
#: committed serial 1080p center_update + color_conversion time.
FUSED_PHASE_SPEEDUP_FLOOR = 2.0

#: Serial 1080p fps recorded immediately before the CCL kernel landed —
#: the frozen denominator of the ROADMAP's "2x end-to-end" goal.
PRE_CCL_BASELINE_FPS = 0.2597

#: End-to-end target: serial 1080p must reach this multiple of the
#: frozen pre-CCL baseline.
E2E_SPEEDUP_FLOOR = 2.0

#: The two serial phases the fused/sigma kernels attack.
FUSED_GATE_PHASES = ("center_update", "color_conversion")

RESOLUTIONS = {
    "vga": (480, 640),
    "1080p": (1080, 1920),
}

CONFIGS = (
    # (label, n_workers, transport, kernel_backend, n_threads)
    ("serial", 1, "pickle", None, None),
    ("pickle-4w", GATE_WORKERS, "pickle", None, None),
    ("shm-4w", GATE_WORKERS, "shm", None, None),
    # One process, threads per frame: the in-process threaded backend
    # against the process pools it is meant to beat.
    ("native-mt-1p", 1, "pickle", "native-mt", GATE_WORKERS),
)


def _profiling_overhead(params, bench_scale) -> dict:
    """Measure the wall-time cost of per-span resource profiling.

    Runs the same traced VGA serial workload with profiling off and on,
    best of two each (back-to-back, so thermal/cache state is shared),
    and reports the relative overhead. Uses in-memory sinks so disk I/O
    does not pollute the comparison.
    """
    n_streams, n_frames = {"quick": (2, 3), "full": (4, 6)}[bench_scale]
    height, width = RESOLUTIONS["vga"]

    def run_once(profile: bool) -> float:
        tracer = Tracer(MemorySink(), profile=profile)
        runner = ParallelRunner(
            params, n_workers=1, tracer=tracer, collect_worker_traces=True
        )
        streams = synthetic_streams(
            n_streams, n_frames, height=height, width=width, seed=11
        )
        start = time.perf_counter()
        result = runner.run_streams(streams)
        elapsed = time.perf_counter() - start
        assert result.n_failed == 0
        tracer.close()
        return elapsed

    run_once(False)  # warm caches/imports outside the timed pairs
    plain = min(run_once(False) for _ in range(2))
    profiled = min(run_once(True) for _ in range(2))
    overhead = (profiled - plain) / plain if plain > 0 else 0.0
    return {
        "workload": f"vga serial, {n_streams}x{n_frames} frames, traced",
        "plain_elapsed_s": round(plain, 4),
        "profiled_elapsed_s": round(profiled, 4),
        "overhead_pct": round(max(0.0, overhead) * 100.0, 2),
        "budget_pct": PROFILING_OVERHEAD_CEILING * 100.0,
    }


def _committed_baseline() -> dict:
    """The committed ``BENCH_e2e.json``, read before this run overwrites it.

    Returns ``{}`` when the artifact is absent or unreadable (a fresh
    clone, or a hand-truncated file) — the connectivity gate then skips
    rather than inventing a baseline.
    """
    try:
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


def _phase_breakdown(records) -> dict:
    """Aggregate per-phase engine seconds across a run's frame records."""
    totals = {}
    for rec in records:
        for phase, seconds in rec.result.timings.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return {k: round(v, 4) for k, v in sorted(totals.items())}


def test_e2e_video_throughput(emit, bench_scale, bench_trace_id):
    # Per-resolution (n_streams, n_frames): enough frames for warm-start
    # chains to matter, few enough that 1080p stays CI-tolerable.
    shape = {
        "quick": {"vga": (2, 3), "1080p": (2, 2)},
        "full": {"vga": (4, 6), "1080p": (4, 3)},
    }[bench_scale]
    params = SlicParams(
        n_superpixels=200,
        max_iterations=3,
        subsample_ratio=0.25,
        convergence_threshold=0.0,  # fixed work per frame -> fair timing
    )

    cores = usable_cores()
    backends = available_backends()
    baseline = _committed_baseline()  # before this run overwrites it
    rows = []
    for res_name, (height, width) in RESOLUTIONS.items():
        n_streams, n_frames = shape[res_name]
        total_frames = n_streams * n_frames
        for label, workers, transport, backend, n_threads in CONFIGS:
            if backend is not None and backend not in backends:
                continue  # no C compiler: record nothing, gate skips
            cfg_params = params
            if backend is not None:
                cfg_params = params.with_(kernel_backend=backend)
            runner = ParallelRunner(
                cfg_params,
                n_workers=workers,
                transport=transport,
                n_threads=n_threads,
            )
            streams = synthetic_streams(
                n_streams, n_frames, height=height, width=width, seed=7
            )
            start = time.perf_counter()
            result = runner.run_streams(streams)
            elapsed = time.perf_counter() - start
            assert result.n_failed == 0
            assert result.n_ok == total_frames
            rows.append(
                {
                    "resolution": res_name,
                    "width": width,
                    "height": height,
                    "config": label,
                    "workers": workers,
                    "transport_requested": transport,
                    "transport_used": result.transport,
                    "kernel_backend": backend,
                    "n_threads": n_threads,
                    "frames": total_frames,
                    "elapsed_s": round(elapsed, 4),
                    "fps": round(total_frames / elapsed, 4),
                    "phase_seconds": _phase_breakdown(result.records),
                }
            )

    by_key = {(r["resolution"], r["config"]): r for r in rows}
    pickle_row = by_key[(GATE_RESOLUTION, f"pickle-{GATE_WORKERS}w")]
    shm_row = by_key[(GATE_RESOLUTION, f"shm-{GATE_WORKERS}w")]
    shm_speedup = round(shm_row["fps"] / pickle_row["fps"], 3)
    gate_eligible = cores >= GATE_WORKERS and shm_row["transport_used"] == "shm"
    if gate_eligible:
        gate = "pass" if shm_speedup >= SPEEDUP_FLOOR else "fail"
    elif shm_row["transport_used"] != "shm":
        gate = "skipped: shm transport unavailable (fell back to pickle)"
    else:
        gate = (
            f"skipped: {cores} core(s) < {GATE_WORKERS}; transport cost "
            f"is not the bottleneck on a time-sliced pool"
        )

    # --- native-mt gate: one threaded process beats the process pool ---
    serial_row = by_key[(GATE_RESOLUTION, "serial")]
    mt_row = by_key.get((GATE_RESOLUTION, "native-mt-1p"))
    mt_over_serial = mt_over_shm = None
    mt_gate_eligible = False
    if mt_row is None:
        mt_gate = "skipped: native-mt backend unavailable (no C compiler)"
    else:
        mt_over_serial = round(mt_row["fps"] / serial_row["fps"], 3)
        mt_over_shm = round(mt_row["fps"] / shm_row["fps"], 3)
        mt_gate_eligible = cores >= GATE_WORKERS
        if mt_gate_eligible:
            mt_gate = (
                "pass"
                if mt_over_serial >= 1.0 and mt_over_shm >= 1.0
                else "fail"
            )
        else:
            mt_gate = (
                f"skipped: {cores} core(s) < {GATE_WORKERS}; in-process "
                f"threads are time-sliced like the pool"
            )

    # --- connectivity gate: the CCL kernel must double serial 1080p ----
    baseline_serial = next(
        (
            r
            for r in baseline.get("rows", [])
            if isinstance(r, dict)
            and r.get("resolution") == GATE_RESOLUTION
            and r.get("config") == "serial"
        ),
        {},
    )
    baseline_fps = baseline_serial.get("fps")
    baseline_cores = baseline.get("cores")
    baseline_gate = baseline.get("gate") or {}
    fps_over_baseline = None
    conn_gate_eligible = False
    if not isinstance(baseline_fps, (int, float)) or baseline_fps <= 0:
        conn_gate = (
            "skipped: no committed 1080p serial baseline to compare against"
        )
    else:
        fps_over_baseline = round(serial_row["fps"] / baseline_fps, 3)
        if "connectivity" in baseline_gate:
            # Anti-ratchet: the committed artifact already includes the
            # CCL kernel, so the 2x jump is banked — further drift is the
            # regress sentinel's job, not a gate that compounds per run.
            conn_gate = (
                "skipped: committed baseline already includes the CCL "
                "kernel; drift is covered by the regress sentinel"
            )
        elif cores < GATE_WORKERS:
            conn_gate = (
                f"skipped: {cores} core(s) < {GATE_WORKERS}; numbers "
                f"recorded without the assertion"
            )
        elif baseline_cores is not None and baseline_cores != cores:
            conn_gate = (
                f"skipped: committed baseline ran on {baseline_cores} "
                f"core(s), this host has {cores} — not comparable"
            )
        else:
            conn_gate_eligible = True
            conn_gate = (
                "pass"
                if fps_over_baseline >= CONNECTIVITY_SPEEDUP_FLOOR
                else "fail"
            )

    # --- fused_sigma gate: color+center combined phase time halves -----
    combined = sum(
        serial_row["phase_seconds"].get(p, 0.0) for p in FUSED_GATE_PHASES
    )
    baseline_phases = baseline_serial.get("phase_seconds") or {}
    baseline_combined = sum(
        baseline_phases.get(p, 0.0) for p in FUSED_GATE_PHASES
    )
    phase_speedup = None
    fused_gate_eligible = False
    if baseline_combined <= 0 or combined <= 0:
        fused_gate = (
            "skipped: no committed 1080p serial phase breakdown to "
            "compare against"
        )
    else:
        phase_speedup = round(baseline_combined / combined, 3)
        if "fused_sigma" in baseline_gate:
            fused_gate = (
                "skipped: committed baseline already includes the fused "
                "color/sigma kernels; drift is covered by the regress "
                "sentinel"
            )
        elif cores < GATE_WORKERS:
            fused_gate = (
                f"skipped: {cores} core(s) < {GATE_WORKERS}; numbers "
                f"recorded without the assertion"
            )
        elif baseline_cores is not None and baseline_cores != cores:
            fused_gate = (
                f"skipped: committed baseline ran on {baseline_cores} "
                f"core(s), this host has {cores} — not comparable"
            )
        else:
            fused_gate_eligible = True
            fused_gate = (
                "pass"
                if phase_speedup >= FUSED_PHASE_SPEEDUP_FLOOR
                else "fail"
            )

    # --- e2e_2x gate: serial 1080p vs the frozen pre-CCL baseline ------
    e2e_over_preccl = round(serial_row["fps"] / PRE_CCL_BASELINE_FPS, 3)
    e2e_gate_eligible = cores >= GATE_WORKERS
    if e2e_gate_eligible:
        e2e_gate = "pass" if e2e_over_preccl >= E2E_SPEEDUP_FLOOR else "fail"
    else:
        e2e_gate = (
            f"skipped: {cores} core(s) < {GATE_WORKERS}; numbers "
            f"recorded without the assertion"
        )

    profiling = _profiling_overhead(params, bench_scale)

    payload = {
        "bench": "bench_e2e_video",
        "schema": BENCH_SCHEMA_VERSION,
        "trace": bench_trace_id,
        "scale": bench_scale,
        "cores": cores,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "shm_available": shm_available(),
        "params": {
            "n_superpixels": params.n_superpixels,
            "max_iterations": params.max_iterations,
            "subsample_ratio": params.subsample_ratio,
        },
        "gate": {
            "rule": (
                f"{GATE_WORKERS}-worker shm >= {SPEEDUP_FLOOR}x "
                f"{GATE_WORKERS}-worker pickle at {GATE_RESOLUTION}"
            ),
            "cores": cores,
            "shm_over_pickle": shm_speedup,
            "result": gate,
            "native_mt": {
                "rule": (
                    f"single-process native-mt ({GATE_WORKERS} threads) "
                    f">= serial and >= {GATE_WORKERS}-worker shm at "
                    f"{GATE_RESOLUTION}"
                ),
                "cores": cores,
                "mt_over_serial": mt_over_serial,
                "mt_over_shm": mt_over_shm,
                "result": mt_gate,
            },
            "connectivity": {
                "rule": (
                    f"{GATE_RESOLUTION} serial fps >= "
                    f"{CONNECTIVITY_SPEEDUP_FLOOR}x the committed pre-CCL "
                    f"baseline"
                ),
                "cores": cores,
                "baseline_cores": baseline_cores,
                "baseline_fps": baseline_fps,
                "fps": serial_row["fps"],
                "fps_over_baseline": fps_over_baseline,
                "result": conn_gate,
            },
            "fused_sigma": {
                "rule": (
                    f"{GATE_RESOLUTION} serial "
                    f"{' + '.join(FUSED_GATE_PHASES)} seconds <= "
                    f"committed / {FUSED_PHASE_SPEEDUP_FLOOR}"
                ),
                "cores": cores,
                "baseline_cores": baseline_cores,
                "baseline_combined_s": (
                    round(baseline_combined, 4) if baseline_combined else None
                ),
                "combined_s": round(combined, 4),
                "speedup": phase_speedup,
                "result": fused_gate,
            },
            "e2e_2x": {
                "rule": (
                    f"{GATE_RESOLUTION} serial fps >= {E2E_SPEEDUP_FLOOR}x "
                    f"the frozen pre-CCL baseline "
                    f"({PRE_CCL_BASELINE_FPS} fps)"
                ),
                "cores": cores,
                "pre_ccl_fps": PRE_CCL_BASELINE_FPS,
                "fps": serial_row["fps"],
                "fps_over_pre_ccl": e2e_over_preccl,
                "result": e2e_gate,
            },
        },
        "profiling": profiling,
        "rows": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"end-to-end video throughput — K={params.n_superpixels}, "
        f"{params.max_iterations} sweeps, warm-started streams "
        f"({bench_scale} scale, {cores} core(s) available)",
        "",
        f"{'resolution':>10} {'config':>10} {'transport':>10} "
        f"{'frames':>7} {'elapsed':>9} {'fps':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['resolution']:>10} {r['config']:>10} "
            f"{r['transport_used']:>10} {r['frames']:>7} "
            f"{r['elapsed_s']:>8.2f}s {r['fps']:>8.3f}"
        )
    lines.append("")
    lines.append(
        f"shm over pickle at {GATE_RESOLUTION} ({GATE_WORKERS} workers): "
        f"{shm_speedup:.2f}x — gate {gate}"
    )
    if mt_row is not None:
        lines.append(
            f"native-mt-1p at {GATE_RESOLUTION} ({GATE_WORKERS} threads): "
            f"{mt_over_serial:.2f}x over serial, {mt_over_shm:.2f}x over "
            f"shm-{GATE_WORKERS}w — gate {mt_gate}"
        )
    else:
        lines.append(f"native-mt-1p — gate {mt_gate}")
    if fps_over_baseline is not None:
        lines.append(
            f"serial {GATE_RESOLUTION} over committed baseline: "
            f"{fps_over_baseline:.2f}x ({baseline_fps:.3f} -> "
            f"{serial_row['fps']:.3f} fps) — connectivity gate {conn_gate}"
        )
    else:
        lines.append(f"connectivity gate {conn_gate}")
    if phase_speedup is not None:
        lines.append(
            f"serial {GATE_RESOLUTION} color+center phases: "
            f"{baseline_combined:.2f}s -> {combined:.2f}s "
            f"({phase_speedup:.2f}x) — fused_sigma gate {fused_gate}"
        )
    else:
        lines.append(f"fused_sigma gate {fused_gate}")
    lines.append(
        f"serial {GATE_RESOLUTION} over frozen pre-CCL baseline: "
        f"{e2e_over_preccl:.2f}x ({PRE_CCL_BASELINE_FPS:.3f} -> "
        f"{serial_row['fps']:.3f} fps) — e2e_2x gate {e2e_gate}"
    )
    lines.append(
        f"per-span profiling overhead ({profiling['workload']}): "
        f"{profiling['overhead_pct']:.1f}% "
        f"(budget {profiling['budget_pct']:.0f}%)"
    )
    lines.append(f"wrote {BENCH_JSON.name} at the repo root")
    emit("bench_e2e_video", "\n".join(lines), records=rows)

    if gate_eligible:
        assert shm_speedup >= SPEEDUP_FLOOR, (
            f"shm transport only {shm_speedup:.2f}x over pickle at "
            f"{GATE_RESOLUTION} with {GATE_WORKERS} workers on {cores} "
            f"cores (floor {SPEEDUP_FLOOR}x)"
        )
    if mt_gate_eligible:
        assert mt_over_serial >= 1.0 and mt_over_shm >= 1.0, (
            f"single-process native-mt at {GATE_RESOLUTION} is "
            f"{mt_over_serial:.2f}x over serial and {mt_over_shm:.2f}x over "
            f"the {GATE_WORKERS}-worker shm pool on {cores} cores — it must "
            f"beat both (same arithmetic, zero transport cost)"
        )
    if conn_gate_eligible:
        assert fps_over_baseline >= CONNECTIVITY_SPEEDUP_FLOOR, (
            f"serial {GATE_RESOLUTION} is only {fps_over_baseline:.2f}x "
            f"the committed pre-CCL baseline ({baseline_fps:.3f} -> "
            f"{serial_row['fps']:.3f} fps, floor "
            f"{CONNECTIVITY_SPEEDUP_FLOOR}x) — the CCL kernel should "
            f"have killed the connectivity bottleneck"
        )
    if fused_gate_eligible:
        assert phase_speedup >= FUSED_PHASE_SPEEDUP_FLOOR, (
            f"serial {GATE_RESOLUTION} color+center phase time only "
            f"improved {phase_speedup:.2f}x over the committed baseline "
            f"({baseline_combined:.2f}s -> {combined:.2f}s, floor "
            f"{FUSED_PHASE_SPEEDUP_FLOOR}x) — the fused conversion and "
            f"one-pass sigma kernel should have halved it"
        )
    if e2e_gate_eligible:
        assert e2e_over_preccl >= E2E_SPEEDUP_FLOOR, (
            f"serial {GATE_RESOLUTION} is only {e2e_over_preccl:.2f}x the "
            f"frozen pre-CCL baseline ({PRE_CCL_BASELINE_FPS:.3f} -> "
            f"{serial_row['fps']:.3f} fps, floor {E2E_SPEEDUP_FLOOR}x) — "
            f"the ROADMAP's end-to-end goal"
        )
    assert profiling["overhead_pct"] <= profiling["budget_pct"], (
        f"per-span profiling cost {profiling['overhead_pct']:.1f}% wall "
        f"time on {profiling['workload']} "
        f"(budget {profiling['budget_pct']:.0f}%)"
    )
