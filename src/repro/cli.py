"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``segment``
    Segment a PPM image (or a generated synthetic scene) with SLIC/S-SLIC
    and write boundary / mean-color visualizations.
``batch``
    Segment a batch of images (directory/glob of PPMs or a synthetic
    spec, optionally as multi-frame video streams) across a worker pool
    — the ``repro.parallel`` engine.
``serve``
    Serve segmentation over HTTP (``repro.serve``): bounded admission
    with 429 load shedding, per-request deadlines, a graceful-
    degradation quality ladder, a backend circuit breaker, and
    drain-on-SIGTERM. See ``docs/serving.md``.
``experiment``
    Run one of the registered paper experiments and print its table.
``report``
    Print the accelerator report for a configuration (the Table 4 numbers
    for arbitrary resolutions / buffer sizes / widths).
``report-md``
    Aggregate the benchmark artifacts into a single markdown report.
``stats``
    Summarize a JSONL telemetry trace written with ``--trace``.
``regress``
    Compare benchmark artifacts (``BENCH_*.json``) against a baseline
    and exit nonzero on performance regressions.

Observability: ``segment`` and ``experiment`` accept ``--trace PATH``
(JSONL span/metric telemetry, see ``docs/observability.md``) and
``--manifest PATH`` (a single JSON artifact pinning params, seed,
versions, and final metrics). ``segment`` and ``batch`` additionally
accept ``--telemetry-port N`` (serve live ``/metrics`` + ``/spans``
over HTTP while the run executes; 0 picks an ephemeral port),
``--telemetry-linger S`` (keep the exporter up after the run so
scrapers can collect final values), and ``--profile-spans`` (attach
CPU / peak-RSS / GC deltas to every span).

Examples
--------
::

    python -m repro segment --input frame.ppm --superpixels 400 --out seg.ppm
    python -m repro segment --synthetic --seed 3 --trace run.jsonl \
        --manifest run.json
    python -m repro batch --synthetic 16 --workers 4 --trace batch.jsonl
    python -m repro batch --synthetic 4 --frames 8 --motion shake --workers 2
    python -m repro batch --images 'frames/*.ppm' --workers 4
    python -m repro stats run.jsonl
    python -m repro experiment table3
    python -m repro experiment fig6 --scale quick
    python -m repro report --width 1280 --height 768 --buffer-kb 1
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def _make_tracer(trace_path, telemetry_port=None, profile=False):
    """Build the run's tracer and (optionally) its telemetry exporter.

    Returns ``(tracer, server)``. ``--trace`` alone gets a JSONL-backed
    tracer; ``--telemetry-port`` alone gets an in-memory tracer whose
    recent spans the server rings; both together tee the sink. With
    neither, the shared disabled tracer (zero overhead) and no server.
    """
    from .obs import JsonlSink, Tracer
    from .obs.tracer import NULL_TRACER

    if trace_path:
        tracer = Tracer(JsonlSink(trace_path))
    elif telemetry_port is not None:
        tracer = Tracer()  # NullSink; the server swaps in its span ring
    else:
        return NULL_TRACER, None

    if profile:
        tracer.enable_profiling()

    server = None
    if telemetry_port is not None:
        from .obs import TelemetryServer

        server = TelemetryServer(tracer, port=telemetry_port).start()
        print(f"telemetry: serving {server.url}/metrics (trace {server.trace_id})")
    return tracer, server


def _finish_telemetry(tracer, server, linger=0.0) -> None:
    """Linger (so scrapers catch final values), then tear down."""
    if server is not None:
        if linger and linger > 0:
            import time

            print(f"telemetry: lingering {linger:g}s at {server.url}/metrics")
            time.sleep(linger)
        server.close()
    tracer.close()


def _cmd_segment(args) -> int:
    import numpy as np

    from .core import slic, sslic
    from .data import SceneConfig, generate_scene, read_ppm, write_ppm
    from .metrics import boundary_recall, undersegmentation_error
    from .obs import RunManifest
    from .viz import draw_boundaries, mean_color_image

    if args.synthetic:
        scene = generate_scene(
            SceneConfig(height=args.height or 240, width=args.width or 360),
            seed=args.seed,
        )
        image, gt = scene.image, scene.gt_labels
    else:
        if not args.input:
            print("segment: provide --input image.ppm or --synthetic", file=sys.stderr)
            return 2
        image, gt = read_ppm(args.input), None

    run = slic if args.algorithm == "slic" else sslic
    kwargs = dict(
        n_superpixels=args.superpixels,
        compactness=args.compactness,
        max_iterations=args.iterations,
        kernel_backend=args.kernel_backend,
        n_threads=args.kernel_threads,
    )
    if args.algorithm == "sslic":
        kwargs["subsample_ratio"] = args.ratio

    manifest = RunManifest.start(
        "segment",
        params=dict(kwargs, algorithm=args.algorithm,
                    height=image.shape[0], width=image.shape[1],
                    synthetic=bool(args.synthetic), input=args.input),
        seed=args.seed,
    )
    tracer, server = _make_tracer(
        args.trace, telemetry_port=args.telemetry_port,
        profile=args.profile_spans,
    )
    try:
        result = run(image, tracer=tracer, **kwargs)
    except BaseException:
        _finish_telemetry(tracer, server)
        if args.manifest:
            manifest.finish(status="error").write(args.manifest)
        raise
    print(
        f"{args.algorithm}: {result.n_superpixels} superpixels, "
        f"{result.iterations} sweeps, converged={result.converged}, "
        f"{result.total_time * 1e3:.1f} ms"
    )
    final_metrics = dict(
        iterations=result.iterations,
        subiterations=result.subiterations,
        converged=result.converged,
        realized_superpixels=result.n_superpixels,
        total_time_s=result.total_time,
    )
    if gt is not None:
        use = undersegmentation_error(result.labels, gt)
        recall = boundary_recall(result.labels, gt)
        final_metrics["undersegmentation_error"] = use
        final_metrics["boundary_recall"] = recall
        print(f"USE {use:.4f}  boundary recall {recall:.4f}")
    _finish_telemetry(tracer, server, args.telemetry_linger)
    if args.trace:
        print(f"wrote trace telemetry to {args.trace}")
    if args.manifest:
        manifest.finish(**final_metrics).write(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.out:
        write_ppm(args.out, draw_boundaries(image, result.labels))
        print(f"wrote boundary overlay to {args.out}")
    if args.mean_out:
        write_ppm(args.mean_out, mean_color_image(image, result.labels))
        print(f"wrote mean-color rendering to {args.mean_out}")
    return 0


def _cmd_batch(args) -> int:
    from .core import SlicParams
    from .errors import DatasetError
    from .obs import RunManifest
    from .parallel import (
        ParallelRunner,
        load_image_batch,
        synthetic_batch,
        synthetic_streams,
    )

    if not args.images and not args.synthetic:
        print("batch: provide --images DIR_OR_GLOB or --synthetic N",
              file=sys.stderr)
        return 2

    params = SlicParams(
        n_superpixels=args.superpixels,
        compactness=args.compactness,
        max_iterations=args.iterations,
        subsample_ratio=args.ratio,
        convergence_threshold=args.threshold,
        kernel_backend=args.kernel_backend,
        n_threads=args.kernel_threads,
    )
    manifest = RunManifest.start(
        "batch",
        params=dict(
            images=args.images, synthetic=args.synthetic, frames=args.frames,
            motion=args.motion, workers=args.workers,
            transport=args.transport,
            n_superpixels=args.superpixels, compactness=args.compactness,
            max_iterations=args.iterations, subsample_ratio=args.ratio,
        ),
        seed=args.seed,
    )
    if args.resume and not args.checkpoint:
        print("batch: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    faults = None
    if args.inject_faults:
        from .resilience import FaultPlan

        faults = FaultPlan.parse(
            args.inject_faults, seed=args.fault_seed, rate=args.fault_rate
        )
    retry = None
    if args.retries:
        from .resilience import RetryPolicy

        retry = RetryPolicy(retries=args.retries, retry_budget=args.retry_budget)
    tracer, server = _make_tracer(
        args.trace, telemetry_port=args.telemetry_port,
        profile=args.profile_spans,
    )
    runner = ParallelRunner(
        params,
        n_workers=args.workers,
        max_pending=args.max_pending,
        tracer=tracer,
        collect_worker_traces=bool(
            args.worker_traces and (args.trace or args.telemetry_port is not None)
        ),
        frame_timeout=args.frame_timeout,
        retry=retry,
        checkpoint=args.checkpoint,
        faults=faults,
        transport=args.transport,
    )
    try:
        if args.images:
            streams = [[image] for image in load_image_batch(args.images)]
        elif args.frames > 1:
            streams = synthetic_streams(
                args.synthetic, args.frames,
                height=args.height or 120, width=args.width or 160,
                motion=args.motion, seed=args.seed,
            )
        else:
            streams = [
                [image]
                for image in synthetic_batch(
                    args.synthetic,
                    height=args.height or 120, width=args.width or 160,
                    seed=args.seed,
                )
            ]
        if args.resume:
            batch = runner.resume(streams)
        else:
            batch = runner.run_streams(streams)
    except DatasetError as exc:
        _finish_telemetry(tracer, server)
        if args.manifest:
            manifest.finish(status="error").write(args.manifest)
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        _finish_telemetry(tracer, server)
        if args.manifest:
            manifest.finish(status="error").write(args.manifest)
        raise

    n_streams = len({r.stream_id for r in batch.records})
    print(
        f"batch: {batch.n_frames} frames over {n_streams} stream(s), "
        f"{batch.n_workers} worker(s), {batch.transport} transport: "
        f"{batch.n_ok} ok, "
        f"{batch.n_failed} failed, {batch.elapsed_s:.2f} s "
        f"({batch.throughput_fps:.2f} fps)"
    )
    if (
        args.workers > 1
        and args.transport in ("shm", "auto")
        and batch.transport == "pickle"
    ):
        print("transport: shm unavailable, fell back to pickle")
    warm = sum(1 for r in batch.records if r.warm_started)
    if warm:
        print(f"warm-started frames: {warm}/{batch.n_frames}")
    if batch.resumed_frames:
        print(f"resumed from checkpoint: {batch.resumed_frames} frames replayed")
    if batch.retries_used or batch.timeouts or batch.n_quarantined:
        print(
            f"resilience: {batch.retries_used} retries "
            f"({batch.n_recovered} frames recovered), "
            f"{batch.timeouts} timeouts, {batch.n_quarantined} quarantined, "
            f"{batch.pool_restarts} pool restarts"
        )
    for rec in batch.failures:
        print(
            f"  FAILED stream {rec.stream_id} frame {rec.frame_index}: "
            f"[{rec.error_type}] {rec.error}",
            file=sys.stderr,
        )
    _finish_telemetry(tracer, server, args.telemetry_linger)
    if args.trace:
        print(f"wrote trace telemetry to {args.trace}")
    if args.manifest:
        manifest.finish(
            frames=batch.n_frames,
            ok=batch.n_ok,
            failed=batch.n_failed,
            elapsed_s=batch.elapsed_s,
            throughput_fps=batch.throughput_fps,
            pool_restarts=batch.pool_restarts,
            retries_used=batch.retries_used,
            timeouts=batch.timeouts,
            quarantined=batch.n_quarantined,
            resumed_frames=batch.resumed_frames,
            transport=batch.transport,
        ).write(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    return 1 if batch.n_failed else 0


def _cmd_experiment(args) -> int:
    from .analysis import render_table, run_experiment
    from .obs import RunManifest

    manifest = RunManifest.start(
        f"experiment:{args.name}", params={"scale": args.scale}
    )
    tracer, server = _make_tracer(args.trace)
    try:
        with tracer.span("experiment", experiment=args.name, scale=args.scale) as span:
            result = run_experiment(args.name, scale=args.scale)
            span.set(rows=len(result.rows))
    except BaseException:
        _finish_telemetry(tracer, server)
        if args.manifest:
            manifest.finish(status="error").write(args.manifest)
        raise
    print(render_table(result.headers, result.rows, title=result.title, precision=4))
    if result.notes:
        print(result.notes)
    _finish_telemetry(tracer, server)
    if args.trace:
        print(f"wrote trace telemetry to {args.trace}")
    if args.manifest:
        manifest.finish(rows=len(result.rows), title=result.title)
        manifest.write(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .core.params import SlicParams
    from .errors import ConfigurationError
    from .serve import ServeConfig, SuperpixelServer

    params = SlicParams(
        n_superpixels=args.superpixels,
        compactness=args.compactness,
        max_iterations=args.iterations,
        subsample_ratio=args.ratio,
        kernel_backend=args.kernel_backend,
        n_threads=args.kernel_threads,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        params=params,
        exec_mode=args.exec_mode,
        n_workers=args.workers,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        degrade_enabled=not args.no_degrade,
        drain_timeout_s=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
    )
    tracer = None
    if args.trace:
        from .obs import JsonlSink, Tracer

        tracer = Tracer(JsonlSink(args.trace))

    async def run() -> int:
        server = SuperpixelServer(config, tracer=tracer)
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        # The "listening" line is the readiness handshake for the CI
        # smoke job and the bench harness — keep it one line, flushed.
        print(
            f"serve: listening on http://{config.host}:{server.port} "
            f"(mode={config.exec_mode}, workers={config.n_workers}, "
            f"max_queue={config.max_queue})",
            flush=True,
        )
        serve_task = asyncio.create_task(server.serve_forever())
        await stop.wait()
        print("serve: draining (completing in-flight frames)", flush=True)
        clean = await server.drain()
        await serve_task
        print(
            "serve: drained clean" if clean
            else f"serve: drain timed out after {config.drain_timeout_s:g}s",
            flush=True,
        )
        return 0 if clean else 1

    try:
        rc = asyncio.run(run())
    except ConfigurationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
    return rc


def _cmd_stats(args) -> int:
    from .obs import format_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace)
    except FileNotFoundError:
        print(f"stats: no such trace file: {args.trace}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    try:
        print(format_summary(summary, title=f"trace summary: {args.trace}"))
    except BrokenPipeError:  # e.g. `repro stats t.jsonl | head`
        sys.stderr.close()  # suppress the interpreter's epipe warning
    return 0


def _cmd_regress(args) -> int:
    import glob
    import json

    from .errors import ConfigurationError
    from .obs import check_regressions
    from .obs.regress import DEFAULT_TOLERANCE

    patterns = args.baseline or ["BENCH_*.json"]
    baselines = sorted(p for pattern in patterns for p in glob.glob(pattern))
    if not baselines:
        print(
            f"regress: no baseline artifacts match {patterns!r}",
            file=sys.stderr,
        )
        return 2
    currents = None
    if args.current:
        currents = sorted(
            p for pattern in args.current for p in glob.glob(pattern)
        )
        if not currents:
            print(
                f"regress: no current artifacts match {args.current!r}",
                file=sys.stderr,
            )
            return 2
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    try:
        report = check_regressions(baselines, currents, tolerance=tolerance)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    print(report.format_text())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote regression report to {args.report}")
    return 0 if report.ok else 1


def _cmd_report_md(args) -> int:
    from .analysis.report import generate_report

    generate_report(output_path=args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_report(args) -> int:
    from .hw import AcceleratorConfig, AcceleratorModel, ClusterWays
    from .types import Resolution

    ways = {
        "1-1-1": ClusterWays(1, 1, 1),
        "9-9-6": ClusterWays(9, 9, 6),
    }.get(args.ways)
    if ways is None:
        d, m, a = (int(x) for x in args.ways.split("-"))
        ways = ClusterWays(d, m, a)
    config = AcceleratorConfig(
        resolution=Resolution(args.width, args.height),
        n_superpixels=args.superpixels,
        buffer_kb_per_channel=args.buffer_kb,
        bits=args.bits,
        n_cores=args.cores,
        ways=ways,
    )
    report = AcceleratorModel(config).report()
    lb = report.latency
    print(f"configuration: {config.resolution}, K={config.n_superpixels}, "
          f"{ways.label}, {args.bits}-bit, {args.buffer_kb} kB/channel, "
          f"{args.cores} core(s)")
    print(f"latency  : {report.latency_ms:.2f} ms  ({report.fps:.1f} fps, "
          f"real-time: {'yes' if report.real_time else 'no'})")
    print(f"           color {lb.color_conversion_ms:.2f} | compute "
          f"{lb.cluster_compute_ms:.2f} | centers {lb.center_update_ms:.2f} | "
          f"memory {lb.memory_ms:.2f}")
    print(f"power    : {report.power_mw:.1f} mW")
    print(f"energy   : {report.energy_per_frame_mj:.3f} mJ/frame")
    print(f"area     : {report.area_mm2:.4f} mm^2  "
          f"({report.perf_per_area_fps_mm2:.0f} fps/mm^2)")
    return 0


def _add_telemetry_args(cmd) -> None:
    cmd.add_argument("--telemetry-port", type=int, default=None, metavar="N",
                     help="serve live /metrics (Prometheus text), /healthz "
                          "and /spans on 127.0.0.1:N while the run executes "
                          "(0 = pick an ephemeral port)")
    cmd.add_argument("--telemetry-linger", type=float, default=0.0,
                     metavar="S",
                     help="keep the telemetry server up S seconds after the "
                          "run completes so scrapers catch final values")
    cmd.add_argument("--profile-spans", action="store_true",
                     help="attach per-span resource deltas (CPU user/sys, "
                          "peak RSS, GC collections) to the telemetry")


def _add_kernel_args(cmd) -> None:
    from .kernels import BACKEND_NAMES

    cmd.add_argument("--kernel-backend", default=None, choices=BACKEND_NAMES,
                     help="kernel backend for the hot loops (default: "
                          "$REPRO_KERNEL_BACKEND, then auto)")
    cmd.add_argument("--kernel-threads", type=int, default=None,
                     help="kernel threads per frame for native-mt; 1 runs "
                          "the compiled kernels serially (default: "
                          "$REPRO_KERNEL_THREADS, then usable cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-SLIC superpixels and the DAC'16 accelerator model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment an image")
    seg.add_argument("--input", help="input PPM (P6) image")
    seg.add_argument("--synthetic", action="store_true",
                     help="use a generated synthetic scene instead of --input")
    seg.add_argument("--seed", type=int, default=0)
    seg.add_argument("--width", type=int, default=None)
    seg.add_argument("--height", type=int, default=None)
    seg.add_argument("--algorithm", choices=("slic", "sslic"), default="sslic")
    seg.add_argument("--superpixels", type=int, default=200)
    seg.add_argument("--compactness", type=float, default=10.0)
    seg.add_argument("--iterations", type=int, default=10)
    _add_kernel_args(seg)
    seg.add_argument("--ratio", type=float, default=0.5,
                     help="S-SLIC subsample ratio (1/n)")
    seg.add_argument("--out", help="boundary-overlay PPM output path")
    seg.add_argument("--mean-out", help="mean-color PPM output path")
    seg.add_argument("--trace", metavar="PATH",
                     help="write JSONL span/metric telemetry to PATH")
    _add_telemetry_args(seg)
    seg.add_argument("--manifest", metavar="PATH",
                     help="write a JSON run manifest (params, seed, metrics)")
    seg.set_defaults(func=_cmd_segment)

    bat = sub.add_parser(
        "batch",
        help="segment a batch of images / video streams across a worker pool",
    )
    bat.add_argument("--images", metavar="DIR_OR_GLOB",
                     help="directory or glob of PPM stills")
    bat.add_argument("--synthetic", type=int, metavar="N", default=0,
                     help="generate N synthetic scenes (or streams with --frames)")
    bat.add_argument("--frames", type=int, default=1,
                     help="frames per synthetic stream (>1 enables warm starts)")
    bat.add_argument("--motion", choices=("shake", "pan", "static"),
                     default="shake", help="synthetic stream motion model")
    bat.add_argument("--seed", type=int, default=0)
    bat.add_argument("--width", type=int, default=None)
    bat.add_argument("--height", type=int, default=None)
    bat.add_argument("--superpixels", type=int, default=200)
    bat.add_argument("--compactness", type=float, default=10.0)
    bat.add_argument("--iterations", type=int, default=10)
    _add_kernel_args(bat)
    bat.add_argument("--ratio", type=float, default=0.5,
                     help="S-SLIC subsample ratio (1/n)")
    bat.add_argument("--threshold", type=float, default=0.25,
                     help="convergence threshold (px center movement)")
    bat.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = serial reference)")
    bat.add_argument("--max-pending", type=int, default=None,
                     help="in-flight frame cap (default 2x workers)")
    bat.add_argument("--transport", default="pickle",
                     choices=("pickle", "shm", "auto"),
                     help="frame transport to the pool: pickle (serialize "
                          "arrays), shm (zero-copy shared-memory slabs; "
                          "falls back to pickle if unavailable), or auto")
    bat.add_argument("--frame-timeout", type=float, default=None, metavar="S",
                     help="per-frame deadline in seconds; a hung worker "
                          "becomes a FrameTimeout record (default: no "
                          "deadline)")
    bat.add_argument("--retries", type=int, default=0,
                     help="retry transient frame failures up to N times "
                          "with exponential backoff (default 0 = off)")
    bat.add_argument("--retry-budget", type=int, default=None,
                     help="cap total retries across the whole batch")
    bat.add_argument("--checkpoint", metavar="PATH",
                     help="append per-frame records to a JSONL journal at "
                          "PATH as they complete")
    bat.add_argument("--resume", action="store_true",
                     help="resume from the --checkpoint journal: completed "
                          "frames replay bit-identically, the rest run")
    bat.add_argument("--inject-faults", metavar="SPEC",
                     help="deterministic chaos: comma list of "
                          "kind@stream:frame[:attempt][~dur] entries and/or "
                          "'random' (e.g. 'crash@0:1,random')")
    bat.add_argument("--fault-rate", type=float, default=0.05,
                     help="random-fault probability per frame when "
                          "--inject-faults includes 'random' (default 0.05)")
    bat.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the random fault field (default 0)")
    bat.add_argument("--trace", metavar="PATH",
                     help="write JSONL span/metric telemetry to PATH")
    bat.add_argument("--worker-traces", action="store_true",
                     help="merge per-worker span trees into the trace")
    _add_telemetry_args(bat)
    bat.add_argument("--manifest", metavar="PATH",
                     help="write a JSON run manifest (params, throughput)")
    bat.set_defaults(func=_cmd_batch)

    exp = sub.add_parser("experiment", help="run a registered paper experiment")
    exp.add_argument("name", help="fig2 | table1 | table2 | table3 | sec61 | "
                                  "fig6 | table4 | table5")
    exp.add_argument("--scale", choices=("quick", "full"), default="quick")
    exp.add_argument("--trace", metavar="PATH",
                     help="write JSONL span/metric telemetry to PATH")
    exp.add_argument("--manifest", metavar="PATH",
                     help="write a JSON run manifest (params, metrics)")
    exp.set_defaults(func=_cmd_experiment)

    srv = sub.add_parser(
        "serve",
        help="serve segmentation over HTTP with overload protection",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8000,
                     help="listen port (0 picks an ephemeral port)")
    srv.add_argument("--superpixels", type=int, default=200)
    srv.add_argument("--compactness", type=float, default=10.0)
    srv.add_argument("--iterations", type=int, default=10)
    srv.add_argument("--ratio", type=float, default=0.5,
                     help="S-SLIC subsample ratio (1/n)")
    _add_kernel_args(srv)
    srv.add_argument("--exec-mode", choices=("thread", "process"),
                     default="thread",
                     help="frame execution substrate (thread: in-process "
                          "pool + native-mt kernel threads; process: "
                          "ProcessPoolExecutor with watchdog teardown)")
    srv.add_argument("--workers", type=int, default=1,
                     help="concurrent frame executions")
    srv.add_argument("--max-queue", type=int, default=8,
                     help="max outstanding admitted requests before "
                          "shedding with 429")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-request deadline when the request "
                          "does not carry deadline_ms")
    srv.add_argument("--no-degrade", action="store_true",
                     help="disable the graceful-degradation quality "
                          "ladder (bit-identical output at any load)")
    srv.add_argument("--drain-timeout", type=float, default=10.0,
                     help="seconds to wait for in-flight frames on "
                          "SIGTERM before giving up")
    srv.add_argument("--breaker-threshold", type=int, default=5,
                     help="consecutive backend failures that open the "
                          "circuit breaker")
    srv.add_argument("--breaker-reset", type=float, default=5.0,
                     help="seconds an open breaker waits before its "
                          "half-open probe")
    srv.add_argument("--trace", metavar="PATH",
                     help="write JSONL span/metric telemetry to PATH")
    srv.set_defaults(func=_cmd_serve)

    sts = sub.add_parser("stats", help="summarize a JSONL telemetry trace")
    sts.add_argument("trace", help="trace file written with --trace")
    sts.set_defaults(func=_cmd_stats)

    rgr = sub.add_parser(
        "regress",
        help="compare benchmark artifacts against a baseline; exit 1 on "
             "performance regressions",
    )
    rgr.add_argument("--baseline", action="append", metavar="GLOB",
                     default=None,
                     help="baseline artifact glob(s) (default BENCH_*.json — "
                          "the committed history)")
    rgr.add_argument("--current", action="append", metavar="GLOB",
                     default=None,
                     help="current-run artifact glob(s); omitted = compare "
                          "the baseline against itself (sanity check)")
    rgr.add_argument("--tolerance", type=float, default=None,
                     help="allowed relative slack before a delta counts as "
                          "a regression (default 0.25)")
    rgr.add_argument("--report", metavar="PATH",
                     help="write the full delta report as JSON to PATH")
    rgr.set_defaults(func=_cmd_regress)

    rep = sub.add_parser("report", help="accelerator report for a configuration")
    rep.add_argument("--width", type=int, default=1920)
    rep.add_argument("--height", type=int, default=1080)
    rep.add_argument("--superpixels", type=int, default=5000)
    rep.add_argument("--buffer-kb", type=float, default=4.0)
    rep.add_argument("--bits", type=int, default=8)
    rep.add_argument("--cores", type=int, default=1)
    rep.add_argument("--ways", default="9-9-6",
                     help="cluster unit ways, e.g. 9-9-6 or 1-1-1")
    rep.set_defaults(func=_cmd_report)

    rmd = sub.add_parser(
        "report-md",
        help="aggregate benchmark artifacts into a markdown report",
    )
    rmd.add_argument("--output", default="REPORT.md")
    rmd.set_defaults(func=_cmd_report_md)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
