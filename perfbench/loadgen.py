"""Open-loop HTTP load for the serving workload.

One single-threaded asyncio generator sends pre-encoded request bodies on
a fixed schedule over at most ``pipeline_width()`` keep-alive
connections. Each camera stream keeps to one connection, as a camera
would, so its frames reach the server in order (the server answers a
connection's requests one at a time). A request waits while its
connection is busy; its latency is timed from when it was *due*, so that
wait counts, and how late it was sent is reported as generator lag.
"""

from __future__ import annotations

import asyncio
import json
import time

from workloads import pipeline_width

#: Length of each goodput-probe rung as a share of ``--seconds``; the
#: reference rung runs for ``--seconds`` so that its p95 has at least ten
#: samples beyond it.
PROBE_SHARE = 0.15


def encode_request(stream_id: str, body: dict) -> bytes:
    payload = json.dumps(body).encode()
    return (
        f"POST /v1/streams/{stream_id}/frames HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode() + payload


class _Connection:
    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None
        self.lock = asyncio.Lock()  # FIFO: requests go out in due order

    async def open(self) -> "_Connection":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def exchange(self, request: bytes):
        """Send one request; returns ``(status, body bytes)``."""
        self.writer.write(request)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def ladder(workload, seconds: float) -> list:
    """``[(rate, start_s, duration_s), ...]`` for a run of ``seconds``."""
    rungs, start = [], 0.0
    for rate in workload.rates:
        duration = seconds if rate == workload.reference_rate else (
            PROBE_SHARE * seconds
        )
        rungs.append((rate, start, duration))
        start += duration
    return rungs


def schedule(workload, seconds: float) -> list:
    """Every request of the run: ``(due_s, rung, stream, k)``.

    Requests go round-robin over the camera streams; ``k`` counts the
    stream's requests, so a stream replays its frames as ``k % cycle``.
    """
    items, sent = [], [0] * workload.n_streams
    n = 0
    for rung, (rate, start, duration) in enumerate(ladder(workload, seconds)):
        for j in range(int(round(rate * duration))):
            s = n % workload.n_streams
            items.append((start + j / rate, rung, s, sent[s]))
            sent[s] += 1
            n += 1
    return items


async def _run(port: int, warmup: bytes, requests: list, items: list):
    conns = [await _Connection(port).open() for _ in range(pipeline_width())]
    try:
        # The warm-up request: the run's first frame, on its own stream.
        status, body = await conns[0].exchange(warmup)
        warm = (status, json.loads(body) if status == 200 else {})
        warm_done = time.perf_counter()

        results = [None] * len(items)
        t0 = time.perf_counter() + 0.05

        async def fire(n, due_s, stream, request):
            due = t0 + due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = conns[stream % len(conns)]
            async with conn.lock:
                sent = time.perf_counter()
                try:
                    status, body = await conn.exchange(request)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    status, body = 0, b""
                    await conn.close()
                    await conn.open()
                done = time.perf_counter()
            payload = {}
            if body:
                try:
                    payload = json.loads(body)
                except ValueError:
                    payload = {}
            results[n] = {
                "due": due, "sent": sent, "done": done, "status": status,
                "body": payload,
            }

        tasks = [
            asyncio.ensure_future(fire(n, item[0], item[2], request))
            for n, (item, request) in enumerate(zip(items, requests))
        ]
        await asyncio.gather(*tasks)
        status, body = await conns[0].exchange(
            b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n"
        )
        return warm, warm_done, results, body.decode()
    finally:
        for conn in conns:
            await conn.close()


def run_load(port: int, warmup: bytes, requests: list, items: list):
    """Warm up, then fire ``requests`` on ``items``' schedule.

    Returns ``(warm, warm_done, results, metrics_text)`` where ``warm`` is
    the warm-up's ``(status, body)`` and ``warm_done`` its completion time
    on the ``time.perf_counter`` clock.
    """
    return asyncio.run(_run(port, warmup, requests, items))
