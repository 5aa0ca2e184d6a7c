"""The repository benchmark: S-SLIC on video, on a worker pool, and as a service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload video-1080p --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

``video-1080p``
    Two warm-started 1920x1080 streams through ``StreamSegmenter.process``
    in one process, float datapath, ``auto`` kernel backend at up to two
    threads. Fixed work per frame (K=200, S-SLIC 0.25, 3 sweeps, no early
    exit), so whole-frame passes (color, initialization, connectivity)
    dominate and the working set exceeds the last-level cache.
``pool-vga-q8``
    Four warm-started 640x480 static-camera streams on the paper's 8-bit
    datapath through ``ParallelRunner.run_streams`` (one worker process
    per core up to two, shm transport, one kernel thread each). The
    iteration kernels dominate, and work per frame follows warm-start
    quality (up to 10 sweeps, 0.3 px convergence).
``serve-qvga-open``
    A ``repro.serve.BackgroundServer`` in its own process receives
    320x240 frames from four camera streams as ``image_b64`` bodies, sent
    open-loop by one asyncio generator over a ladder of fixed total rates.
    The only workload where HTTP, admission and JSON/base64 decode run.

What is timed: only the calls into each layer's public entry point.
Frames are rendered and request bodies encoded before any clock starts,
and the first frame of every stream is a warm-up counted in ``setup_s``.
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes of the
time from process start to the first completed result (import, native
library load from the build cache, LUT builds, pool spawn or server
bind); compiling the native library happens before, off every clock.

Correctness is checked on every frame: label SHA-256 digests must equal
the list stored in ``digests.json`` (regenerated only by
``--regen-digests``), and served digests must equal the in-process
``StreamSegmenter`` chain over the same frames. A mismatch counts as a
failed operation and makes the run incorrect.

``--trace 1`` runs the workload untraced, then again over the same
frames with a ``repro.obs.Tracer`` at the public entry points and the
kernel meters of ``tracing.py``, and reports the per-layer metrics plus
the traced/untraced wall ratio as ``obs.trace_overhead_frac``. Metrics a
workload does not exercise are reported as 0.

The last stdout line is the JSON result; the line before it stamps the
host and the resolved configuration.

Self-test (tiny inputs, every workload): ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "perfbench"

#: Fresh processes whose set-up time feeds the ``setup_s`` median.
SETUP_SAMPLES = 3
#: Wall budget for one invocation (the contract allows 180 s).
BUDGET_S = 170.0
#: Serving latency limit on p95 for a ladder rung to count as good.
LATENCY_LIMIT_MS = 250.0
PHASES = ("color_conversion", "initialization", "distance_min",
          "center_update", "connectivity")

METRICS_FILE = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The run could not produce a result."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_KERNEL_CACHE"] = str(BUILD / "repro-kernels")
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.pop("REPRO_KERNEL_THREADS", None)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def build(deadline: Deadline) -> None:
    """Compile the native kernels into the build cache and byte-compile
    the package, so that set-up probes load both warm."""
    code = (
        "from repro.kernels import native; native.is_available(); "
        "import repro.core, repro.parallel, repro.serve, repro.metrics"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), timeout=deadline.left(),
    )
    if proc.returncode != 0:
        raise BenchError("building the package failed")


class Child:
    """One ``child.py`` process, timed from its start to its ready line."""

    def __init__(self, args, deadline: Deadline):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(),
            text=True,
        )

    def ready(self) -> str:
        """Wait for the ready line; returns it. Kills the process on failure."""
        try:
            while True:
                readable, _, _ = select.select(
                    [self.proc.stdout], [], [], self.deadline.left()
                )
                if not readable:
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError(
                        "measured process exited before it was ready"
                    )
                if line.startswith(("READY", "PORT")):
                    return line.strip()
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def finish(self) -> None:
        """Close stdin (the server's stop signal) and wait for the exit."""
        try:
            self.proc.stdin.close()
            code = self.proc.wait(timeout=self.deadline.left())
        except (BenchError, subprocess.TimeoutExpired):
            self.kill()
            raise BenchError("measured process did not finish in time")
        self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"measured process exited with code {code}")


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linearly interpolated percentile; ``inf`` entries count as misses."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def step_rate(steps) -> float:
    """Median over the run's steps of frames per second of call time.

    A step is one frame per stream (video) or one ``run_streams`` call
    (pool); the median keeps a host hiccup in one step from moving the
    run's figure.
    """
    return statistics.median(n / wall for n, wall in steps)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# video-1080p and pool-vga-q8
# ----------------------------------------------------------------------
def measure_offline(workload, frames, gt, expected, opts, deadline) -> dict:
    import numpy as np

    paths = (WORK / f"{workload.name}-frames.npy",
             WORK / f"{workload.name}-gt.npy")
    np.save(paths[0], frames)
    np.save(paths[1], gt)
    out_path = WORK / f"{workload.name}-result.json"
    args = ["--workload", workload.name, "--frames", str(paths[0]),
            "--gt", str(paths[1]), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)] + (["--tiny"] if opts.tiny else [])
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        child = Child(args + ["--setup-only"], deadline)
        child.ready()
        setup.append(time.perf_counter() - child.started)
        child.finish()
    child = Child(args + ["--out", str(out_path)], deadline)
    child.ready()
    setup.append(time.perf_counter() - child.started)
    child.finish()
    out = _read_json(out_path)
    out["setup"] = setup
    return offline_metrics(workload, out, expected, opts.trace)


def _check(rows, expected) -> int:
    """Count rows whose digest differs from ``expected[stream][index]``."""
    return sum(
        1 for r in rows
        if r["digest"] != expected[r["stream"]][r["index"]]
    )


def _phase_layer(rows) -> dict:
    """Per-frame engine phase seconds, unattributed time and coverage."""
    n = len(rows)
    layer = {
        f"engine.{p}_s": _ratio(sum(r["timings"].get(p, 0.0) for r in rows), n)
        for p in PHASES
    }
    covered = [sum(r["timings"].values()) for r in rows]
    layer["engine.unattributed_s"] = _ratio(
        sum(r["latency_s"] - c for r, c in zip(rows, covered)), n
    )
    layer["engine.phase_coverage_min_frac"] = min(
        (_ratio(c, r["latency_s"]) for r, c in zip(rows, covered)), default=0.0
    )
    return layer


def _kernel_layer(kernels: dict, n_frames: int) -> dict:
    layer = {}
    for key, stats in kernels.items():
        layer[f"kernels.{key}.calls"] = _ratio(stats["calls"], n_frames)
        layer[f"kernels.{key}.s"] = _ratio(stats["s"], n_frames)
    ppa = kernels["ppa_assign"]
    layer["kernels.ppa_assign.mpix_per_s"] = _ratio(ppa["items"], ppa["s"]) / 1e6
    return layer


def _attribution_errors(layer: dict, floor: float) -> list:
    errors = []
    if layer["engine.phase_coverage_min_frac"] < floor:
        errors.append(
            f"engine phases cover only "
            f"{layer['engine.phase_coverage_min_frac']:.3f} of a process() "
            f"call (floor {floor})"
        )
    kernel_s = layer["kernels.ppa_assign.s"] + layer["kernels.sigma_accumulate.s"]
    phase_s = layer["engine.distance_min_s"] + layer["engine.center_update_s"]
    if kernel_s > phase_s:
        errors.append(
            f"ppa_assign + sigma_accumulate ({kernel_s:.4f} s/frame) exceed "
            f"distance_min + center_update ({phase_s:.4f} s/frame)"
        )
    return errors


def offline_metrics(workload, out, expected, trace) -> dict:
    from workloads import pipeline_width

    steps = out["plain"]
    plain = [f for step in steps for f in step["frames"]]
    bad = _check(plain, expected)
    latency = [f["latency_s"] * 1000 for f in plain]
    result = {
        "attempted": len(out["warmup"]) + len(plain),
        "failed": _check(out["warmup"], expected) + bad,
        "e2e": {
            "setup_s": statistics.median(out["setup"]),
            "fps": step_rate(
                (len(step["frames"]), step["wall_s"]) for step in steps
            ),
            "serve_p50_ms": percentile(latency, 50),
            "serve_p95_ms": percentile(latency, 95),
            "serve_goodput_rps": step_rate(
                (len(step["frames"]) - _check(step["frames"], expected),
                 step["wall_s"])
                for step in steps
            ),
            "boundary_recall": out["quality"]["boundary_recall"],
            "undersegmentation_error": out["quality"]["undersegmentation_error"],
            "peak_rss_mb": out["peak_rss_mb"],
        },
        "config": out,
        "errors": [],
    }
    if not trace:
        return result
    traced_steps = out["traced"]
    traced = [f for step in traced_steps for f in step["frames"]]
    result["failed"] += _check(traced, expected)
    result["attempted"] += len(traced)
    ok = [f for f in traced if f["digest"] is not None]
    counters = out["counters"]
    wall = sum(step["wall_s"] for step in steps)
    traced_wall = sum(step["wall_s"] for step in traced_steps)
    layer = _phase_layer(ok)
    layer.update(_kernel_layer(out["kernels"], len(traced)))
    # In-process runs count connectivity directly; pool workers ship
    # their counters back under a "worker." prefix.
    prefix = "worker." if workload.kind == "pool" else ""
    layer.update({
        "stream.warm_frac": mean(f["warm"] for f in ok),
        "stream.reanchor_frac": mean(f["reanchored"] for f in ok),
        "stream.sweeps_per_frame": mean(f["sweeps"] for f in ok),
        "connectivity.tiles_resolved_frac": _ratio(
            counters.get(prefix + "connectivity.tiles_resolved", 0),
            counters.get(prefix + "connectivity.tiles_total", 0),
        ),
        "obs.trace_overhead_frac": traced_wall / wall - 1.0,
    })
    if workload.kind == "pool":
        busy = sum(f["latency_s"] for f in traced)
        width = pipeline_width()
        layer.update({
            "parallel.worker_busy_frac": _ratio(busy, width * traced_wall),
            "parallel.overhead_ms_per_frame": _ratio(
                (width * traced_wall - busy) * 1000, len(traced)
            ),
            "parallel.transport_fallbacks": counters.get(
                "parallel.transport_fallbacks", 0
            ),
        })
    result["layer"] = layer
    result["errors"] = _attribution_errors(layer, workload.coverage_floor)
    return result


# ----------------------------------------------------------------------
# serve-qvga-open
# ----------------------------------------------------------------------
def _serve_once(workload, opts, trace, warm_req, requests, items, deadline):
    """Start a server process, drive it, stop it; returns its results."""
    from loadgen import run_load

    out_path = WORK / f"{workload.name}-server-{trace}.json"
    args = ["--workload", workload.name, "--trace", str(trace),
            "--out", str(out_path)] + (["--tiny"] if opts.tiny else [])
    child = Child(args, deadline)
    port = int(child.ready().split()[1])
    try:
        warm, warm_done, results, metrics_text = run_load(
            port, warm_req, requests, items
        )
    finally:
        child.finish()
    server = _read_json(out_path) if requests else {}
    return {
        "setup_s": warm_done - child.started, "warm": warm,
        "results": results, "metrics_text": metrics_text, "server": server,
    }


def _prometheus_total(text: str, family: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and not line.startswith("#"):
            name = line.split("{", 1)[0].split(" ", 1)[0]
            if name in (family, family + "_total"):
                total += float(line.rsplit(" ", 1)[1])
    return total


def _serve_outcomes(items, results, chain, warm, warm_expected) -> tuple:
    """Per-request verdicts and the failure count.

    A request fails when it is refused or errors, comes back degraded,
    or (up to its stream's first degraded response) carries a digest
    that differs from the in-process chain.
    """
    failed = 0
    status, body = warm
    if status != 200 or body.get("labels_sha256") != warm_expected:
        failed += 1
    degraded_seen = set()
    verdicts = []
    for (_, _, s, k), res in zip(items, results):
        body = res["body"]
        good = res["status"] == 200 and not body.get("degraded")
        if res["status"] == 200 and body.get("degraded"):
            degraded_seen.add(s)
        if good and s not in degraded_seen and (
            body.get("frame_index") != k
            or body.get("labels_sha256") != chain[s][k]
        ):
            good = False
        verdicts.append(good)
        failed += not good
    return verdicts, failed


def _rung_report(items, results, verdicts, rung) -> dict:
    idx = [n for n, item in enumerate(items) if item[1] == rung]
    latency = [
        (results[n]["done"] - results[n]["due"]) * 1000 if verdicts[n]
        else float("inf")
        for n in idx
    ]
    third = max(1, len(idx) // 3)
    head = statistics.median(latency[:third])
    tail = statistics.median(latency[-third:])
    ok = sum(verdicts[n] for n in idx)
    span = max(results[n]["done"] for n in idx) - min(results[n]["due"] for n in idx)
    p95 = percentile(latency, 95)
    return {
        "n": len(idx),
        "p50": percentile(latency, 50),
        "p95": p95,
        "good": (
            p95 <= LATENCY_LIMIT_MS
            and tail <= 2.0 * head + 50.0
            and len(idx) - ok <= 0.01 * len(idx)
        ),
        "goodput": ok / span,
    }


def measure_serve(workload, frames, gt, opts, deadline) -> dict:
    from loadgen import encode_request, schedule
    from workloads import quality, reference_chain

    def body(img):
        return {"image_b64": base64.b64encode(img.tobytes()).decode("ascii"),
                "height": workload.height, "width": workload.width}

    per_stream = [
        [encode_request(f"cam{s}", body(frames[s, i]))
         for i in range(workload.frames_per_stream)]
        for s in range(workload.n_streams)
    ]
    warm_req = encode_request("warmup", body(frames[0, 0]))
    items = schedule(workload, opts.seconds)
    requests = [per_stream[s][k % workload.frames_per_stream]
                for _, _, s, k in items]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(
            _serve_once(workload, opts, 0, warm_req, [], [], deadline)["setup_s"]
        )
    plain = _serve_once(workload, opts, 0, warm_req, requests, items, deadline)
    setup.append(plain["setup_s"])
    traced = None
    if opts.trace:
        traced = _serve_once(workload, opts, 1, warm_req, requests, items,
                             deadline)

    # The in-process chain over the same frames, off every clock.
    n_per_stream = [sum(1 for it in items if it[2] == s)
                    for s in range(workload.n_streams)]
    chain, segmenters, kept = reference_chain(
        workload, frames, n_per_stream, keep=workload.quality_frames
    )
    if opts.corrupt_digest:
        chain[0][0] = "0" * 64
    warm_expected = chain[0][0]
    verdicts, failed = _serve_outcomes(
        items, plain["results"], chain, plain["warm"], warm_expected
    )
    rungs = [_rung_report(items, plain["results"], verdicts, r)
             for r in range(len(workload.rates))]
    ref = workload.rates.index(workload.reference_rate)
    goodput = 0.0
    for report in rungs:
        if report["good"]:
            goodput = report["goodput"]
    res = plain["results"]
    span = max(r["done"] for r in res) - min(r["due"] for r in res)
    scores = quality(
        [lab for s in kept for lab in s],
        [gt[s, i] for s in range(workload.n_streams)
         for i in range(len(kept[s]))],
    )
    result = {
        "attempted": 1 + len(items),
        "failed": failed,
        "e2e": {
            "setup_s": statistics.median(setup),
            "fps": sum(verdicts) / span,
            "serve_p50_ms": rungs[ref]["p50"],
            "serve_p95_ms": rungs[ref]["p95"],
            "serve_goodput_rps": goodput,
            "boundary_recall": scores["boundary_recall"],
            "undersegmentation_error": scores["undersegmentation_error"],
            "peak_rss_mb": plain["server"]["peak_rss_mb"],
        },
        "config": plain["server"],
        "rungs": rungs,
        "errors": [],
    }
    if traced is not None:
        t_verdicts, t_failed = _serve_outcomes(
            items, traced["results"], chain, traced["warm"], warm_expected
        )
        result["failed"] += t_failed
        result["attempted"] += 1 + len(items)
        t_res = traced["results"]
        ok = [r for r, v in zip(t_res, t_verdicts) if v]
        text = traced["metrics_text"]
        history = [h for seg in segmenters for h in seg.history]

        def service(rs):
            return statistics.median(r["done"] - r["sent"] for r in rs)

        layer = {
            "serve.server_ms_p50": percentile(
                [r["body"]["elapsed_ms"] for r in ok], 50
            ),
            "serve.http_ms_p50": percentile(
                [(r["done"] - r["sent"]) * 1000 - r["body"]["elapsed_ms"]
                 for r in ok], 50
            ),
            "serve.shed_frac": _ratio(
                _prometheus_total(text, "repro_serve_shed"), len(items)
            ),
            "serve.degraded_frac": _ratio(
                _prometheus_total(text, "repro_serve_degraded"), len(items)
            ),
            "serve.gen_lag_ms_p99": percentile(
                [(r["sent"] - r["due"]) * 1000 for r in t_res], 99
            ),
            "stream.warm_frac": mean(h.warm_started for h in history),
            "stream.reanchor_frac": mean(h.reanchored for h in history),
            "stream.sweeps_per_frame": mean(h.sweeps for h in history),
            "obs.trace_overhead_frac": (
                service(t_res) / service(plain["results"]) - 1.0
            ),
        }
        layer.update(_kernel_layer(traced["server"]["kernels"], len(items)))
        result["layer"] = layer
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _stamp(workload, config: dict) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    from workloads import CONFIG_PATH, usable_cores

    resolved = {
        "kernel_backend": config.get("kernel_backend"),
        "n_threads": config.get("n_threads"),
        "transport_used": config.get("transport_used"),
    }
    recorded = json.loads(CONFIG_PATH.read_text())[workload.name]
    return {
        "workload": workload.name,
        "usable_cores": usable_cores(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **resolved,
        "recorded": recorded,
        "comparable": resolved == recorded,
    }


def report(workload, result, opts) -> int:
    attempted, failed = result["attempted"], result["failed"]
    spec = json.loads(METRICS_FILE.read_text())
    declared = spec["per_layer" if opts.trace else "end_to_end"]
    values = dict(result["e2e"])
    if opts.trace:
        values = {m["name"]: 0.0 for m in declared}
        values.update(result["layer"])
        values["fail_frac"] = _ratio(failed, attempted)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    stamp = _stamp(workload, result["config"])
    log = sys.stderr
    for error in result["errors"]:
        print(f"perfbench: attribution check failed: {error}", file=log)
    if not stamp["comparable"]:
        print("perfbench: resolved configuration differs from the recorded "
              "one; this run is a different configuration and is not "
              "comparable", file=log)
    print(f"perfbench {workload.name} seed={opts.seed} "
          f"fail_frac={_ratio(failed, attempted):.4f} "
          f"({failed}/{attempted} failed)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for rate, rung in zip(workload.rates, result.get("rungs", [])):
        print(f"  rung {rate:g} req/s: n={rung['n']} p50={rung['p50']:.2f} ms "
              f"p95={rung['p95']:.2f} ms good={rung['good']}")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
def regen_digests(workload, opts) -> int:
    from workloads import (
        N_VARIANTS, load_digests, reference_chain, render, save_digests,
    )

    table = load_digests(opts.digests)
    table[workload.name] = {}
    for variant in range(N_VARIANTS):
        frames, _ = render(workload, variant)
        table[workload.name][str(variant)] = reference_chain(workload, frames)[0]
        print(f"perfbench: {workload.name} variant {variant} digested",
              file=sys.stderr)
    save_digests(table, opts.digests)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down inputs (self-test)")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="stored digest list")
    parser.add_argument("--regen-digests", action="store_true",
                        help="recompute and store the digest list, then exit")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="self-test: flip one expected digest")
    opts = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not METRICS_FILE.is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({k: v for k, v in _env().items()
                       if k == "REPRO_KERNEL_CACHE"})
    from workloads import WORKLOADS, get_workload, load_digests, render, variant_of

    if opts.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {opts.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = get_workload(opts.workload, tiny=opts.tiny)
    deadline = Deadline(BUDGET_S)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        build(deadline)
        if opts.regen_digests:
            if workload.kind == "serve":
                print("perfbench: serve digests come from the in-process "
                      "chain; nothing to store", file=sys.stderr)
                return 0
            return regen_digests(workload, opts)
        frames, gt = render(workload, variant_of(opts.seed))
        if workload.kind == "serve":
            result = measure_serve(workload, frames, gt, opts, deadline)
        else:
            stored = load_digests(opts.digests).get(workload.name, {})
            expected = stored.get(str(variant_of(opts.seed)))
            if expected is None:
                raise BenchError(
                    f"no stored digests for {workload.name}; run with "
                    f"--regen-digests"
                )
            if opts.corrupt_digest:
                expected[0][0] = "0" * 64
            result = measure_offline(workload, frames, gt, expected, opts,
                                     deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return report(workload, result, opts)


if __name__ == "__main__":
    sys.exit(main())
