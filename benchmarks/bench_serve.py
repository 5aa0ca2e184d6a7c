"""Serving front end under load: latency, capacity, and overload behavior.

The acceptance contract of the serving PR, measured end to end over real
sockets against a :class:`~repro.serve.BackgroundServer`:

1. **Uncontended closed-loop** — one client, sequential requests:
   p50/p95/p99 latency and per-request throughput. This is the latency
   floor everything else is judged against.
2. **Closed-loop capacity** — a small closed-loop client pool drives
   the server flat out; completed-request rate is the **max sustained
   RPS** (with one worker this is the service rate, so the open-loop
   phase can be provisioned at a known multiple of it).
3. **Open-loop overload** — requests fired on a fixed schedule at
   ``OVERLOAD_FACTOR``x measured capacity, deliberately not waiting for
   responses (the muBench-style generator: offered load is independent
   of service rate). The gates:

   * the server **sheds** (429s appear) and the admission queue never
     exceeds its bound — overload never turns into an unbounded queue;
   * steady-state accepted-request p99 stays within
     ``LATENCY_BLOWUP_CEILING``x the uncontended p99 (the bounded queue
     plus the degradation ladder is what makes this hold);
   * degraded responses appeared and every one carried the explicit
     ``degraded`` marker (body field and ``X-Repro-Degraded`` header
     agree).

4. **Drain** — with a frame still in flight, drain the server: the
   in-flight request must complete with a real 200 and the drain must
   report clean.

Artifacts: the shared ``emit`` fixture writes
``benchmarks/output/bench_serve.{txt,jsonl}`` and the committed
``BENCH_serve.json`` lands at the repo root for ``repro regress``
(``p*_ms`` flatten as lower-is-better, ``*rps`` as higher-is-better).

The first ``hold_s`` of the overload phase runs at full quality by
design (the degradation dwell must elapse first), so the accepted-
latency percentile excludes a short warmup window and judges steady
state — the warmup tail is recorded separately, not hidden.
"""

import json
import platform
import threading
import time
from pathlib import Path

import pytest

from repro.core import SlicParams
from repro.kernels import usable_cores
from repro.obs.regress import BENCH_SCHEMA_VERSION
from repro.serve import BackgroundServer, ServeConfig

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_serve.json"

#: Offered load during the open-loop phase, as a multiple of measured
#: capacity (the ISSUE's ">= 2x measured capacity" bar).
OVERLOAD_FACTOR = 2.0

#: Accepted-request p99 under overload may be at most this multiple of
#: the uncontended p99.
LATENCY_BLOWUP_CEILING = 2.0

#: Samples inside this initial window of the overload phase are warmup
#: (the degradation dwell has not elapsed yet) and are excluded from the
#: steady-state percentile; their count is still recorded.
OVERLOAD_WARMUP_S = 1.0

FRAME = {"synthetic": {"seed": 3, "height": 64, "width": 80}}
PARAMS = SlicParams(n_superpixels=48, max_iterations=10)


def _request(port, body=FRAME, timeout=60):
    """One POST /v1/segment; returns (status, elapsed_s, payload, headers)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        start = time.perf_counter()
        conn.request("POST", "/v1/segment", json.dumps(body))
        resp = conn.getresponse()
        data = json.loads(resp.read())
        return (
            resp.status, time.perf_counter() - start, data,
            dict(resp.getheaders()),
        )
    finally:
        conn.close()


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


def _latency_stats(samples):
    return {
        "n": len(samples),
        "p50_ms": round(_percentile(samples, 50) * 1000, 3),
        "p95_ms": round(_percentile(samples, 95) * 1000, 3),
        "p99_ms": round(_percentile(samples, 99) * 1000, 3),
    }


def _uncontended(port, n_requests):
    latencies = []
    for _ in range(3):  # warm the kernels, the tracker, the connection path
        _request(port)
    for _ in range(n_requests):
        status, elapsed, _, _ = _request(port)
        assert status == 200
        latencies.append(elapsed)
    stats = _latency_stats(latencies)
    stats["rps"] = round(len(latencies) / sum(latencies), 2)
    return stats


def _closed_loop_capacity(port, duration_s, clients=2):
    """Completed 200s/sec with a small always-busy closed-loop pool."""
    done = []
    stop = time.perf_counter() + duration_s

    def worker():
        while time.perf_counter() < stop:
            status, elapsed, _, _ = _request(port)
            if status == 200:
                done.append(elapsed)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return len(done) / wall if wall > 0 else 0.0


async def _async_request(port, body):
    """One POST over a fresh connection, parsed with asyncio streams.

    The open-loop generator must not cost one OS thread per in-flight
    request — on a small host hundreds of client threads would contend
    with the server for the CPU and the measured latency would be the
    client's scheduler, not the service. A single-threaded asyncio
    client keeps the generator's footprint constant at any offered rate.
    """
    import asyncio

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        request = (
            "POST /v1/segment HTTP/1.1\r\n"
            "Host: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + body
        start = time.perf_counter()
        writer.write(request)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        elapsed_first = time.perf_counter() - start
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            key, sep, value = line.partition(":")
            if sep:
                headers[key.strip()] = value.strip()
        length = int(headers.get("Content-Length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = {}
        return status, elapsed_first, data, headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _open_loop_overload(port, offered_rps, duration_s):
    """Fire at a fixed schedule regardless of completions (open loop)."""
    import asyncio

    body = json.dumps(FRAME).encode()

    async def drive():
        results = []
        tasks = []
        interval = 1.0 / offered_rps
        t0 = time.perf_counter()
        n_fired = 0

        async def fire(at):
            try:
                outcome = await _async_request(port, body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                outcome = (0, 0.0, {}, {})
            results.append((at, *outcome))

        while True:
            now = time.perf_counter() - t0
            if now >= duration_s:
                break
            due = n_fired * interval
            if now < due:
                await asyncio.sleep(due - now)
                continue
            tasks.append(asyncio.ensure_future(fire(now)))
            n_fired += 1
        if tasks:
            await asyncio.wait(tasks, timeout=60)
        return results

    return asyncio.run(drive())


def test_serve_under_load(emit, bench_scale, bench_trace_id):
    cores = usable_cores()

    n_uncontended = 40 if bench_scale == "full" else 15
    overload_s = 10.0 if bench_scale == "full" else 6.0

    config = ServeConfig(
        params=PARAMS,
        n_workers=1,
        max_queue=1,          # bounded hard: accepted wait <= 1 service
        exec_mode="thread",
        degrade_enabled=True,
        overload_ratio=0.75,
        recover_ratio=0.25,
        degrade_hold_s=0.2,   # fast ladder for a short bench window
    )
    with BackgroundServer(config) as bg:
        port = bg.port

        # Phase 1: uncontended latency floor.
        uncontended = _uncontended(port, n_uncontended)

        # Phase 2: max sustained RPS (closed loop, always busy).
        capacity_rps = _closed_loop_capacity(port, duration_s=3.0)
        assert capacity_rps > 0

        # Let the ladder recover to full quality before overloading.
        time.sleep(3 * config.degrade_hold_s)

        # Phase 3: open-loop overload at OVERLOAD_FACTOR x capacity.
        offered_rps = OVERLOAD_FACTOR * capacity_rps
        overload = _open_loop_overload(port, offered_rps, overload_s)

        accepted = [r for r in overload if r[1] == 200]
        shed = [r for r in overload if r[1] == 429]
        steady = [r for r in accepted if r[0] >= OVERLOAD_WARMUP_S]
        steady_stats = _latency_stats([r[2] for r in steady])
        degraded = [r for r in accepted if r[3].get("degraded")]
        marker_consistent = all(
            r[4].get("X-Repro-Degraded") == "true" for r in degraded
        )
        peak_outstanding = bg.server.admission.peak_outstanding
        shed_rate = len(shed) / len(overload) if overload else 0.0

        shed_gate = (
            "pass"
            if shed and peak_outstanding <= config.max_queue
            else "fail"
        )
        blowup = (
            steady_stats["p99_ms"] / uncontended["p99_ms"]
            if uncontended["p99_ms"] > 0 and steady else float("inf")
        )
        latency_gate = (
            "pass" if steady and blowup <= LATENCY_BLOWUP_CEILING
            else "fail"
        )
        degrade_gate = (
            "pass" if degraded and marker_consistent else "fail"
        )

        # Phase 4: drain with a frame in flight.
        big = {"synthetic": {"seed": 1, "height": 128, "width": 160}}
        inflight = {}

        def slow_frame():
            inflight["result"] = _request(port, body=big)

        worker = threading.Thread(target=slow_frame)
        worker.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if bg.server.admission.outstanding > 0:
                break
            time.sleep(0.002)
        clean = bg.drain()
        worker.join(timeout=60)
        drained_status = inflight.get("result", (0,))[0]
        drain_gate = (
            "pass" if clean and drained_status == 200 else "fail"
        )

    rows = [
        {"phase": "uncontended", **uncontended},
        {
            "phase": "overload_steady",
            **steady_stats,
            "offered_rps": round(offered_rps, 2),
            "shed_rate": round(shed_rate, 4),
            "degraded_fraction": round(
                len(degraded) / len(accepted), 4
            ) if accepted else 0.0,
        },
    ]
    payload = {
        "bench": "bench_serve",
        "schema": BENCH_SCHEMA_VERSION,
        "trace": bench_trace_id,
        "scale": bench_scale,
        "cores": cores,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "params": {
            "n_superpixels": PARAMS.n_superpixels,
            "max_iterations": PARAMS.max_iterations,
            "subsample_ratio": PARAMS.subsample_ratio,
        },
        "config": {
            "n_workers": config.n_workers,
            "max_queue": config.max_queue,
            "exec_mode": config.exec_mode,
            "degrade_hold_s": config.degrade_hold_s,
        },
        "max_sustained_rps": round(capacity_rps, 2),
        "gate": {
            "shed": {
                "rule": (
                    f"at {OVERLOAD_FACTOR}x capacity the server sheds "
                    "429s and outstanding never exceeds max_queue"
                ),
                "cores": cores,
                "shed_count": len(shed),
                "shed_rate": round(shed_rate, 4),
                "peak_outstanding": peak_outstanding,
                "result": shed_gate,
            },
            "latency": {
                "rule": (
                    "steady-state accepted p99 under overload <= "
                    f"{LATENCY_BLOWUP_CEILING}x uncontended p99 "
                    f"(first {OVERLOAD_WARMUP_S}s excluded as "
                    "degradation-dwell warmup)"
                ),
                "cores": cores,
                "uncontended_p99_ms": uncontended["p99_ms"],
                "overload_p99_ms": steady_stats["p99_ms"],
                "blowup": round(blowup, 3) if steady else None,
                "warmup_samples_excluded": len(accepted) - len(steady),
                "result": latency_gate,
            },
            "degradation": {
                "rule": (
                    "overload produces degraded responses and every one "
                    "carries the explicit marker (body + header)"
                ),
                "cores": cores,
                "degraded_count": len(degraded),
                "marker_consistent": marker_consistent,
                "result": degrade_gate,
            },
            "drain": {
                "rule": (
                    "drain with a frame in flight completes it (200) "
                    "and reports clean"
                ),
                "cores": cores,
                "inflight_status": drained_status,
                "result": drain_gate,
            },
        },
        "rows": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"serving front end under load — K={PARAMS.n_superpixels}, "
        f"{config.n_workers} worker(s), max_queue={config.max_queue} "
        f"({bench_scale} scale, {cores} core(s) available)",
        "",
        f"  uncontended: p50 {uncontended['p50_ms']} ms, "
        f"p95 {uncontended['p95_ms']} ms, p99 {uncontended['p99_ms']} ms "
        f"({uncontended['rps']} rps)",
        f"  max sustained: {capacity_rps:.2f} rps (closed loop)",
        f"  overload ({offered_rps:.1f} rps offered, "
        f"{OVERLOAD_FACTOR}x capacity): "
        f"accepted p99 {steady_stats['p99_ms']} ms, "
        f"shed rate {shed_rate:.1%}, "
        f"{len(degraded)}/{len(accepted)} degraded",
        "",
        f"  gate shed:        {shed_gate} "
        f"(sheds={len(shed)}, peak_outstanding={peak_outstanding})",
        f"  gate latency:     {latency_gate} (blowup="
        f"{blowup if steady else 'n/a'})",
        f"  gate degradation: {degrade_gate} "
        f"(degraded={len(degraded)}, markers={marker_consistent})",
        f"  gate drain:       {drain_gate} (status={drained_status})",
        "",
        f"wrote {BENCH_JSON}",
    ]
    emit("bench_serve", "\n".join(lines), records=rows)

    assert shed_gate == "pass", payload["gate"]["shed"]
    assert latency_gate == "pass", payload["gate"]["latency"]
    assert degrade_gate == "pass", payload["gate"]["degradation"]
    assert drain_gate == "pass", payload["gate"]["drain"]
