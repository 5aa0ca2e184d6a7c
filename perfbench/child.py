"""The measured process: one fresh interpreter per run or set-up probe.

``run.py`` starts this script and times it from process start to the
``READY`` line (``PORT <n>`` for the server), which the script prints
once its first result is complete. Everything after that line is off
the set-up clock. Results go to the ``--out`` JSON file.

Modes::

    child.py --workload video-1080p|pool-vga-q8 --frames F.npy --gt G.npy \\
        --seconds S --trace 0|1 --out R.json [--setup-only] [--tiny]
    child.py --workload serve-qvga-open --trace 0|1 --out R.json [--tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from tracing import peak_rss_mb
from workloads import get_workload, labels_digest, pipeline_width, quality


def _ready(line: str = "READY") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _resolved(params):
    from repro.kernels import resolve_name

    backend = resolve_name(params.kernel_backend)
    n_threads = None
    if backend == "native-mt":
        from repro.kernels.native_mt import resolve_threads

        n_threads = resolve_threads(params.n_threads)
    return backend, n_threads


def _keep_going(start: float, last: float, seconds: float) -> bool:
    """Start another step unless it would end past the budget."""
    return time.perf_counter() - start + 0.5 * last < seconds


def _counters(tracer) -> dict:
    """Counter totals with label sets folded into their family name."""
    totals = {}
    for key, value in tracer.metrics.snapshot()["counters"].items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


# ----------------------------------------------------------------------
# video-1080p and pool-vga-q8
# ----------------------------------------------------------------------
def _row(stream, index, result, latency_s, warm, reanchored) -> dict:
    return {
        "stream": stream, "index": index, "latency_s": latency_s,
        "digest": labels_digest(result.labels), "timings": result.timings,
        "sweeps": result.iterations, "warm": warm, "reanchored": reanchored,
    }


class _Video:
    """``StreamSegmenter.process`` in this process, one step per round of
    one frame per stream, until the pre-rendered cycle runs out."""

    transport = "none"

    def __init__(self, workload, params, tracer=None):
        from repro.core.streaming import StreamSegmenter

        self.workload = workload
        self.tracer = tracer
        self.segs = [StreamSegmenter(params, strict_shape=True)
                     for _ in range(workload.n_streams)]
        self.cursor = 0

    def _frame(self, s, image, tracer):
        t0 = time.perf_counter()
        result = self.segs[s].process(image, tracer=tracer)
        latency = time.perf_counter() - t0
        h = self.segs[s].history[-1]
        row = _row(s, self.cursor, result, latency, h.warm_started,
                   h.reanchored)
        return result, row

    def warm_up(self, first_frames, keep):
        """Frame 0 of every stream, untraced."""
        rows = []
        for s, image in enumerate(first_frames):
            result, row = self._frame(s, image[0], None)
            keep[(s, 0)] = result.labels
            rows.append(row)
        self.cursor = 1
        return rows

    def exhausted(self) -> bool:
        return self.cursor == self.workload.frames_per_stream

    def step(self, frames, keep) -> dict:
        rows = []
        for s in range(self.workload.n_streams):
            result, row = self._frame(s, frames[s, self.cursor], self.tracer)
            if self.cursor < self.workload.quality_frames:
                keep[(s, self.cursor)] = result.labels
            rows.append(row)
        self.cursor += 1
        return {"wall_s": sum(r["latency_s"] for r in rows), "frames": rows}


class _Pool:
    """``ParallelRunner.run_streams`` over the shm transport, one step per
    call; every call replays each stream's cycle from a cold start."""

    def __init__(self, workload, params, tracer=None):
        from repro.parallel import ParallelRunner

        self.workload = workload
        self.runner = ParallelRunner(
            params, n_workers=pipeline_width(), transport="shm", n_threads=1,
            tracer=tracer, collect_worker_traces=tracer is not None,
        )
        self.transport = None

    def _call(self, frames, keep) -> dict:
        t0 = time.perf_counter()
        result = self.runner.run_streams(list(frames))
        wall = time.perf_counter() - t0
        self.transport = result.transport
        rows = []
        for r in result.records:
            if not r.ok:
                rows.append({"stream": r.stream_id, "index": r.frame_index,
                             "digest": None, "latency_s": r.elapsed_s})
                continue
            if r.frame_index < self.workload.quality_frames:
                keep[(r.stream_id, r.frame_index)] = r.result.labels
            rows.append(_row(
                r.stream_id, r.frame_index, r.result, r.elapsed_s,
                r.warm_started, not r.warm_started and r.frame_index > 0,
            ))
        return {"wall_s": wall, "frames": rows}

    def warm_up(self, first_frames, keep):
        return self._call(first_frames, keep)["frames"]

    def exhausted(self) -> bool:
        return False

    def step(self, frames, keep) -> dict:
        return self._call(frames, keep)


def run_offline(args, workload, params, stepper_cls) -> dict:
    mm = np.load(args.frames, mmap_mode="r")
    first = [np.array(mm[s, :1]) for s in range(workload.n_streams)]
    del mm
    stepper, keep = stepper_cls(workload, params), {}
    warmup = stepper.warm_up(first, keep)
    _ready()
    if args.setup_only:
        return {}
    frames = np.load(args.frames)
    plain, start = [], time.perf_counter()
    while True:
        plain.append(stepper.step(frames, keep))
        if stepper.exhausted() or not _keep_going(
            start, plain[-1]["wall_s"], args.seconds
        ):
            break
    workers = pipeline_width() if stepper_cls is _Pool else 0
    peak = peak_rss_mb(workers) - frames.nbytes / 2**20
    out = {"warmup": warmup, "plain": plain, "peak_rss_mb": peak,
           "transport_used": stepper.transport}
    if args.trace:
        from repro.obs import MemorySink, Tracer
        from tracing import KernelMeter

        tracer, meter = Tracer(MemorySink()), KernelMeter()
        traced = stepper_cls(workload, params, tracer=tracer)
        if stepper_cls is _Video:
            traced.warm_up(first, {})  # pool calls cold-start every stream
        meter.install(_resolved(params)[0])  # before a pool forks workers
        try:
            out["traced"] = [traced.step(frames, {}) for _ in plain]
        finally:
            meter.uninstall()
        out["kernels"] = meter.snapshot()
        out["counters"] = _counters(tracer)
    gt = np.load(args.gt)
    scored = sorted(keep)
    out["quality"] = quality([keep[k] for k in scored],
                             [gt[s, i] for s, i in scored])
    return out


# ----------------------------------------------------------------------
# serve-qvga-open: repro.serve.BackgroundServer until told to stop
# ----------------------------------------------------------------------
def run_server(args, workload, params) -> dict:
    from repro.serve import BackgroundServer, ServeConfig

    tracer = meter = None
    if args.trace:
        from repro.obs import MemorySink, Tracer
        from tracing import KernelMeter

        tracer = Tracer(MemorySink())
        meter = KernelMeter()
        meter.install(_resolved(params)[0])
    config = ServeConfig(
        params=params, exec_mode="thread", n_workers=1, degrade_enabled=True,
    )
    server = BackgroundServer(config, tracer=tracer).start()
    try:
        _ready(f"PORT {server.port}")
        sys.stdin.readline()  # the load generator is done
    finally:
        server.drain()
    out = {"peak_rss_mb": peak_rss_mb(), "transport_used": "http"}
    if meter is not None:
        meter.uninstall()
        out["kernels"] = meter.snapshot()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--frames")
    parser.add_argument("--gt")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = get_workload(args.workload, tiny=args.tiny)
    params = workload.params()
    if workload.kind == "serve":
        out = run_server(args, workload, params)
    else:
        stepper = _Video if workload.kind == "video" else _Pool
        out = run_offline(args, workload, params, stepper)
    if args.out:
        backend, n_threads = _resolved(params)
        out.update(kernel_backend=backend, n_threads=n_threads)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
