"""The asyncio HTTP front end: superpixels as an overload-safe service.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server``
plus a hand-rolled request parser — no framework dependency) whose whole
reason to exist is *robust overload behavior*:

* every frame request passes through the :class:`AdmissionController`
  first — the queue is bounded, excess load is shed with ``429`` and a
  ``Retry-After`` derived from the observed service time, and requests
  whose deadline is already infeasible are rejected at admission;
* a :class:`CircuitBreaker` fed by frame failures and *new* kernel
  supervisor demotions refuses work up front (``503``) while the
  backend is suspect;
* a :class:`DegradeController` steps the quality ladder down under
  sustained queue pressure — every degraded response carries
  ``X-Repro-Degraded: true`` plus ``degraded``/``quality_rung`` body
  fields and increments ``serve.degraded``;
* ``SIGTERM`` triggers a drain: readiness fails first, new frame work is
  refused with ``503 draining``, in-flight frames complete, then the
  listener closes.

Endpoints::

    POST   /v1/segment                one-shot (cold) segmentation
    POST   /v1/streams/{id}/frames    warm-started per-stream frames
    DELETE /v1/streams/{id}           drop a stream's warm state
    GET    /healthz                   liveness (200 while the loop runs)
    GET    /readyz                    readiness (503 when draining/open)
    GET    /metrics                   Prometheus text (repro.obs.export)

Request bodies are JSON. The image arrives either as raw bytes
(``image_b64`` = base64 of H*W*3 uint8 RGB, with ``height``/``width``)
or as a recipe (``synthetic: {seed, height, width}`` rendered through
``repro.data.generate_scene`` — which is what lets the CI smoke job
drive the server from curl alone). ``deadline_ms`` bounds the request
end to end; ``params`` may override a safe subset of
:class:`~repro.core.params.SlicParams`; ``return_labels`` opts into the
full label map (responses always carry ``labels_sha256``, so clients —
and our bit-identity tests — can verify output without shipping it).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.params import SlicParams
from ..errors import ConfigurationError, ReproError, StreamError
from ..kernels.dispatch import requested_name
from ..obs import Tracer, render_prometheus
from ..parallel.records import FrameTask
from .admission import AdmissionController, CircuitBreaker, ServiceTimeTracker
from .degrade import DEFAULT_LADDER, DegradeController
from .executor import ServeExecutor
from .sessions import SessionRegistry

__all__ = ["ServeConfig", "SuperpixelServer", "BackgroundServer"]

#: Latency histogram buckets (seconds) — tuned for frame-sized work.
LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: SlicParams fields a request body may override. Deliberately narrow:
#: only knobs that change *this request's* quality/cost trade, never the
#: execution substrate (backend, threads) the operator configured.
_PARAM_OVERRIDES = (
    "n_superpixels", "compactness", "max_iterations", "subsample_ratio",
)

_MAX_HEADER_BYTES = 32 * 1024


def labels_digest(labels: np.ndarray) -> str:
    """Canonical SHA-256 of a label map: little-endian int32 raster."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype="<i4").tobytes()
    ).hexdigest()


@dataclass
class ServeConfig:
    """Everything the server needs, in one bag the CLI can fill.

    ``default_deadline_ms`` applies when a request does not carry its
    own ``deadline_ms``; ``None`` means no deadline unless requested.
    """

    host: str = "127.0.0.1"
    port: int = 0
    params: SlicParams = field(default_factory=SlicParams)
    exec_mode: str = "thread"
    n_workers: int = 1
    max_queue: int = 8
    default_deadline_ms: float | None = None
    degrade_enabled: bool = True
    overload_ratio: float = 0.75
    recover_ratio: float = 0.25
    degrade_hold_s: float = 2.0
    breaker_threshold: int = 5
    breaker_reset_s: float = 5.0
    max_sessions: int = 64
    session_ttl_s: float | None = 300.0
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 32 * 1024 * 1024
    service_time_prior_s: float = 0.05


class _HttpError(Exception):
    """Internal: carries (status, payload, headers) up to the dispatcher."""

    def __init__(self, status: int, payload: dict, headers=None):
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class SuperpixelServer:
    """The serving front end; construct, ``await start()``, ``await drain()``."""

    def __init__(self, config: ServeConfig | None = None, tracer=None,
                 clock=time.monotonic):
        self.config = config if config is not None else ServeConfig()
        # An unknown backend name, given or from $REPRO_KERNEL_BACKEND,
        # fails here, before a port is bound, not on every request.
        requested_name(self.config.params.kernel_backend)
        # The server always keeps live metrics (that is what /metrics
        # serves); an enabled tracer over a NullSink records metrics
        # without writing span events anywhere.
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.clock = clock
        cfg = self.config
        tracker = ServiceTimeTracker(prior_s=cfg.service_time_prior_s)
        self.admission = AdmissionController(
            max_queue=cfg.max_queue, n_workers=cfg.n_workers,
            tracker=tracker, clock=clock,
        )
        self.breaker = CircuitBreaker(
            threshold=cfg.breaker_threshold,
            reset_after_s=cfg.breaker_reset_s, clock=clock,
        )
        self.degrade = DegradeController(
            ladder=DEFAULT_LADDER, enabled=cfg.degrade_enabled,
            overload_ratio=cfg.overload_ratio,
            recover_ratio=cfg.recover_ratio,
            hold_s=cfg.degrade_hold_s, clock=clock,
        )
        self.sessions = SessionRegistry(
            cfg.params, max_sessions=cfg.max_sessions,
            ttl_s=cfg.session_ttl_s, clock=clock,
        )
        self.executor = ServeExecutor(
            mode=cfg.exec_mode, n_workers=cfg.n_workers, tracer=self.tracer,
        )
        self._server: asyncio.AbstractServer | None = None
        self._port: int | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._adhoc_counter = 0
        self._seen_demotions: set = set()
        self._started_at = None
        self._connections: set = set()
        self._last_shed: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice).

        Recorded at :meth:`start`, so it stays readable while
        :meth:`drain` closes the listener.
        """
        if self._port is None:
            raise ConfigurationError("server is not started")
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        if self._server is not None:
            raise ConfigurationError("server is already started")
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port,
                limit=_MAX_HEADER_BYTES,
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_at = self.clock()

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: fail readiness, finish in-flight, close.

        Order matters and is load-balancer-shaped: (1) flip draining so
        ``/readyz`` fails and new frame work gets ``503``; (2) wait for
        every admitted request to release (bounded by the timeout);
        (3) close the listener and the executor. Returns ``True`` when
        all in-flight frames completed inside the timeout.
        """
        timeout_s = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        self._draining = True
        if self.admission.outstanding == 0:
            self._drained.set()
        clean = True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout=timeout_s)
        except asyncio.TimeoutError:
            clean = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections are parked in readuntil(); close
        # their transports so every handler task unwinds before the
        # loop is allowed to stop.
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass
        deadline = self.clock() + 1.0
        while self._connections and self.clock() < deadline:
            await asyncio.sleep(0.01)
        self.executor.close()
        self.tracer.count("serve.drains", labels={
            "clean": "true" if clean else "false",
        })
        return clean

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain` (or cancellation) closes the listener."""
        server = self._server
        if server is None:
            raise ConfigurationError("server is not started")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # drain() closing the listener cancels serve_forever — that
            # is the normal shutdown path, not an error.
            pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    return
                try:
                    method, path, headers = _parse_head(head)
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request"},
                        close=True,
                    )
                    return
                body = b""
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0:  # non-numeric or negative: both are 400s
                    await self._respond(
                        writer, 400, {"error": "invalid Content-Length"},
                        close=True,
                    )
                    return
                if length:
                    if length > self.config.max_body_bytes:
                        await self._respond(
                            writer, 413,
                            {"error": (
                                f"body of {length} bytes exceeds the "
                                f"{self.config.max_body_bytes}-byte limit"
                            )},
                            close=True,
                        )
                        return
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        return
                close = headers.get("connection", "").lower() == "close"
                status, payload, extra = await self._dispatch(
                    method, path, body
                )
                await self._respond(
                    writer, status, payload, headers=extra, close=close
                )
                if close:
                    return
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer, status: int, payload, headers=None,
                       close: bool = False) -> None:
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload) + "\n").encode()
            ctype = "application/json"
        else:
            body = payload if isinstance(payload, bytes) else str(
                payload).encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for key, val in (headers or {}).items():
            lines.append(f"{key}: {val}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request; returns ``(status, payload, extra_headers)``."""
        endpoint, handler, args = self._route(method, path)
        try:
            status, payload, extra = await handler(body, *args)
        except _HttpError as exc:
            status, payload, extra = exc.status, exc.payload, exc.headers
        except ReproError as exc:
            status, payload, extra = 500, {
                "error": str(exc), "error_type": type(exc).__name__,
            }, {}
        except Exception as exc:  # noqa: BLE001 - the server must answer
            status, payload, extra = 500, {
                "error": str(exc), "error_type": type(exc).__name__,
            }, {}
        self.tracer.count("serve.requests", labels={
            "endpoint": endpoint, "status": str(status),
        })
        return status, payload, extra

    def _route(self, method: str, path: str):
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return "healthz", self._handle_healthz, ()
        if path == "/readyz" and method == "GET":
            return "readyz", self._handle_readyz, ()
        if path == "/metrics" and method == "GET":
            return "metrics", self._handle_metrics, ()
        if path == "/v1/segment" and method == "POST":
            return "segment", self._handle_segment, (None,)
        parts = [p for p in path.split("/") if p]
        if len(parts) == 4 and parts[:2] == ["v1", "streams"] and (
            parts[3] == "frames" and method == "POST"
        ):
            return "stream_frame", self._handle_segment, (parts[2],)
        if len(parts) == 3 and parts[:2] == ["v1", "streams"] and (
            method == "DELETE"
        ):
            return "stream_delete", self._handle_stream_delete, (parts[2],)
        return "unknown", self._handle_unknown, (method, path)

    async def _handle_unknown(self, body, method, path):
        return 404, {"error": f"no route for {method} {path}"}, {}

    async def _handle_healthz(self, body):
        return 200, {"status": "ok", "uptime_s": round(
            self.clock() - self._started_at, 3
        ) if self._started_at is not None else 0.0}, {}

    async def _handle_readyz(self, body):
        breaker_state = self.breaker.state
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}, {}
        if breaker_state == CircuitBreaker.OPEN:
            return 503, {"ready": False, "reason": "circuit_open"}, {}
        return 200, {
            "ready": True,
            "breaker": breaker_state,
            "outstanding": self.admission.outstanding,
            "degrade_level": self.degrade.level,
        }, {}

    async def _handle_metrics(self, body):
        self.tracer.gauge("serve.queue_depth", self.admission.outstanding)
        self.tracer.gauge("serve.degrade_level", self.degrade.level)
        self.tracer.gauge(
            "serve.breaker_open",
            1 if self.breaker.state == CircuitBreaker.OPEN else 0,
        )
        self.tracer.gauge("serve.sessions_active", len(self.sessions))
        text = render_prometheus(self.tracer.metrics, namespace="repro")
        return 200, text.encode(), {}

    async def _handle_stream_delete(self, body, stream_id):
        existed = self.sessions.close(stream_id)
        return 200, {"stream_id": stream_id, "closed": existed}, {}

    # ------------------------------------------------------------------
    # The frame path
    # ------------------------------------------------------------------
    async def _handle_segment(self, body, stream_id):
        arrival = self.clock()
        request = _parse_json(body)
        params = self._request_params(request)
        deadline_s = self._deadline_s(request)

        # Overload machinery, in refusal-cheapness order: drain flag,
        # breaker, then admission (which is also the degradation
        # controller's sampling point — sheds push the dwell timer too).
        if self._draining:
            raise _HttpError(503, {
                "error": "server is draining", "reason": "draining",
            }, _retry_headers(self.config.drain_timeout_s))
        # A half-open breaker admits exactly one probe; if this request
        # claims it (state is half-open and allow() passes), every exit
        # that skips _feed_breaker must release the slot again or the
        # breaker wedges — half-open, probe "in flight" forever, every
        # request refused with a retry hint of 0.
        probe = self.breaker.state == CircuitBreaker.HALF_OPEN
        if not self.breaker.allow():
            self.tracer.count("serve.shed", labels={"reason": "circuit_open"})
            raise _HttpError(503, {
                "error": "backend circuit breaker is open",
                "reason": "circuit_open",
            }, _retry_headers(self.breaker.retry_after_s()))
        try:
            self.degrade.observe(self._pressure())
            decision = self.admission.try_admit(deadline_s)
            if not decision.admitted:
                if decision.reason == "queue_full":
                    self._last_shed = self.clock()
                self.tracer.count(
                    "serve.shed", labels={"reason": decision.reason}
                )
                status = 429
                raise _HttpError(status, {
                    "error": (
                        "admission queue is full"
                        if decision.reason == "queue_full"
                        else (
                            "deadline cannot be met: predicted wait "
                            f"{decision.predicted_wait_s * 1000:.1f} ms plus "
                            "one service time exceeds the budget"
                        )
                    ),
                    "reason": decision.reason,
                    "retry_after_s": round(decision.retry_after_s, 4),
                    "predicted_wait_s": round(decision.predicted_wait_s, 4),
                }, _retry_headers(decision.retry_after_s))

            try:
                # Image decode happens only after admission: a shed
                # request must cost near-nothing, and "rejected before
                # burning a worker" includes not materializing its
                # pixels.
                image = self._decode_image(request)
                run_params, rung, degraded = self.degrade.apply(params)
                if degraded:
                    self.tracer.count("serve.degraded", labels={"rung": rung})
                if stream_id is None:
                    self._adhoc_counter += 1
                    task = FrameTask(
                        stream_id=f"adhoc-{self._adhoc_counter}",
                        frame_index=0, image=image, params=run_params,
                    )
                    record = await self.executor.run(
                        task, self._remaining(deadline_s, arrival)
                    )
                else:
                    record = await self._run_stream_frame(
                        stream_id, image, run_params, deadline_s, arrival
                    )
                elapsed = self.clock() - arrival
            except BaseException:
                # The slot release must be unconditional or one internal
                # error leaks queue capacity forever; service time is
                # only fed for frames that actually ran (the success arm
                # below).
                self.admission.release()
                self._wake_drain_if_idle()
                raise
            self.admission.release(service_s=elapsed)
            self._wake_drain_if_idle()
            return self._frame_response(
                record, request, rung, degraded, elapsed, probe
            )
        except BaseException:
            # Exited before _feed_breaker judged the probe (admission
            # shed, bad image, stream conflict, executor crash): the
            # backend was never exercised, so release the slot without
            # re-opening. A no-op when _feed_breaker already ran — the
            # state has left half-open by then.
            if probe:
                self.breaker.abort_probe()
            raise

    def _wake_drain_if_idle(self) -> None:
        if self._draining and self.admission.outstanding == 0:
            self._drained.set()

    def _pressure(self) -> float:
        """The degradation controller's load signal, in [0, 1].

        Instantaneous queue occupancy is a poor overload signal at small
        ``max_queue``: it flips 0 -> 1 -> 0 every few milliseconds, so a
        dwell timer sampled at request arrivals would reset on every
        idle instant even while half the offered load is being shed.
        A queue-full shed is unambiguous overload evidence, so it pins
        the signal at 1.0 for the controller's own dwell window; with no
        recent shed the signal is the live occupancy.
        """
        if self._last_shed is not None and (
            self.clock() - self._last_shed <= self.degrade.hold_s
        ):
            return 1.0
        return self.admission.queue_ratio

    async def _run_stream_frame(self, stream_id, image, run_params,
                                deadline_s, arrival):
        session = self.sessions.get_or_create(stream_id)
        async with session.lock:
            try:
                plan = session.segmenter.plan(image.shape)
            except StreamError as exc:
                raise _HttpError(409, {
                    "error": str(exc), "reason": "stream_conflict",
                }) from exc
            task = FrameTask(
                stream_id=stream_id,
                frame_index=plan.frame_index,
                image=image,
                params=run_params,
                warm_centers=plan.warm_centers,
                warm_labels=plan.warm_labels,
            )
            record = await self.executor.run(
                task, self._remaining(deadline_s, arrival)
            )
            if record.ok:
                session.segmenter.commit(plan, record.result)
                session.frames_served += 1
        return record

    def _frame_response(self, record, request, rung, degraded, elapsed,
                        probe):
        self._feed_breaker(record, probe)
        self.tracer.observe(
            "serve.latency_seconds", elapsed, LATENCY_BUCKETS,
            labels={"outcome": "ok" if record.ok else "error"},
        )
        if not record.ok:
            status = 504 if record.error_type == "FrameTimeout" else (
                409 if record.error_type == "StreamError" else 500
            )
            return status, {
                "error": record.error, "error_type": record.error_type,
                "stream_id": record.stream_id,
                "frame_index": record.frame_index,
            }, {}
        result = record.result
        payload = {
            "ok": True,
            "stream_id": record.stream_id,
            "frame_index": record.frame_index,
            "n_superpixels": int(result.labels.max()) + 1,
            "iterations": result.iterations,
            "subiterations": result.subiterations,
            "warm_started": record.warm_started,
            "kernel_backend": record.kernel_backend,
            "degraded": degraded,
            "quality_rung": rung,
            "elapsed_ms": round(elapsed * 1000, 3),
            "labels_sha256": labels_digest(result.labels),
        }
        if record.demoted_from:
            payload["demoted_from"] = record.demoted_from
        if request.get("return_labels"):
            labels = np.ascontiguousarray(result.labels, dtype="<i4")
            payload["labels_b64"] = base64.b64encode(
                labels.tobytes()
            ).decode("ascii")
            payload["labels_shape"] = list(labels.shape)
            payload["labels_dtype"] = "<i4"
        headers = {
            "X-Repro-Degraded": "true" if degraded else "false",
            "X-Repro-Quality-Rung": rung,
        }
        return 200, payload, headers

    def _feed_breaker(self, record, probe) -> None:
        """Frame outcome + deduplicated demotions -> breaker signals."""
        new_demotion = False
        if record.demoted_from:
            transition = (record.demoted_from, record.kernel_backend)
            if transition not in self._seen_demotions:
                self._seen_demotions.add(transition)
                new_demotion = True
                self.tracer.count("serve.backend_demotions", labels={
                    "from": transition[0], "to": str(transition[1]),
                })
        if not record.ok:
            self.breaker.record_failure()
        elif new_demotion and not probe:
            # The frame succeeded on the demoted backend, but the
            # demotion itself is a health event the breaker should see.
            self.breaker.record_failure()
        else:
            self.breaker.record_success()

    # ------------------------------------------------------------------
    # Request decoding
    # ------------------------------------------------------------------
    def _remaining(self, deadline_s, arrival) -> float | None:
        if deadline_s is None:
            return None
        return max(0.0, deadline_s - (self.clock() - arrival))

    def _deadline_s(self, request) -> float | None:
        raw = request.get("deadline_ms", self.config.default_deadline_ms)
        if raw is None:
            return None
        try:
            deadline_ms = float(raw)
        except (TypeError, ValueError):
            raise _HttpError(400, {
                "error": f"deadline_ms must be a number, got {raw!r}",
            }) from None
        if deadline_ms <= 0:
            raise _HttpError(400, {
                "error": f"deadline_ms must be > 0, got {deadline_ms}",
            })
        return deadline_ms / 1000.0

    def _request_params(self, request) -> SlicParams:
        overrides = request.get("params") or {}
        if not isinstance(overrides, dict):
            raise _HttpError(400, {"error": "params must be an object"})
        unknown = set(overrides) - set(_PARAM_OVERRIDES)
        if unknown:
            raise _HttpError(400, {
                "error": (
                    f"unsupported params override(s) {sorted(unknown)}; "
                    f"allowed: {list(_PARAM_OVERRIDES)}"
                ),
            })
        if not overrides:
            return self.config.params
        try:
            return self.config.params.with_(**overrides)
        except (ReproError, TypeError, ValueError) as exc:
            raise _HttpError(400, {"error": str(exc)}) from exc

    def _decode_image(self, request) -> np.ndarray:
        synthetic = request.get("synthetic")
        if synthetic is not None:
            if not isinstance(synthetic, dict):
                raise _HttpError(400, {"error": "synthetic must be an object"})
            from ..data import SceneConfig, generate_scene

            height = int(synthetic.get("height", 96))
            width = int(synthetic.get("width", 128))
            seed = int(synthetic.get("seed", 0))
            if not (8 <= height <= 4096 and 8 <= width <= 4096):
                raise _HttpError(400, {
                    "error": (
                        "synthetic height/width must be in [8, 4096], got "
                        f"{height}x{width}"
                    ),
                })
            scene = generate_scene(
                SceneConfig(height=height, width=width), seed=seed
            )
            return scene.image
        encoded = request.get("image_b64")
        if encoded is None:
            raise _HttpError(400, {
                "error": "request needs either image_b64 or synthetic",
            })
        try:
            height = int(request["height"])
            width = int(request["width"])
        except (KeyError, TypeError, ValueError):
            raise _HttpError(400, {
                "error": "image_b64 requires integer height and width",
            }) from None
        try:
            raw = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise _HttpError(400, {
                "error": f"image_b64 is not valid base64: {exc}",
            }) from exc
        expected = height * width * 3
        if len(raw) != expected:
            raise _HttpError(400, {
                "error": (
                    f"image_b64 decodes to {len(raw)} bytes; "
                    f"{height}x{width}x3 uint8 RGB needs {expected}"
                ),
            })
        return np.frombuffer(raw, dtype=np.uint8).reshape(
            (height, width, 3)
        ).copy()


def _retry_headers(retry_after_s: float) -> dict:
    """RFC-shaped ``Retry-After`` (integer seconds, never 0)."""
    return {"Retry-After": str(max(1, int(-(-retry_after_s // 1))))}


def _parse_json(body: bytes) -> dict:
    if not body:
        return {}
    try:
        request = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpError(400, {"error": f"body is not JSON: {exc}"}) from exc
    if not isinstance(request, dict):
        raise _HttpError(400, {"error": "body must be a JSON object"})
    return request


def _parse_head(head: bytes):
    """``(method, path, headers)`` from the raw request head."""
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"bad request line: {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line: {line!r}")
        headers[key.strip().lower()] = value.strip()
    return parts[0], parts[1], headers


class BackgroundServer:
    """Run a :class:`SuperpixelServer` on a private loop in a thread.

    The test/bench harness: synchronous callers (pytest, the load
    generator) start the server, talk plain ``http.client`` to it, and
    drain it — all without owning an event loop themselves. ``with``
    semantics drain on exit.
    """

    def __init__(self, config: ServeConfig | None = None, tracer=None):
        import threading

        self.server = SuperpixelServer(config, tracer=tracer)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._started.wait(timeout=30)
        if self._start_error is not None:
            raise self._start_error
        if not self._started.is_set():  # pragma: no cover - defensive
            raise ConfigurationError("server failed to start within 30 s")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.server.config.host}:{self.port}"

    def submit(self, coro):
        """Run ``coro`` on the server loop; returns a concurrent future."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def drain(self, timeout_s: float | None = None) -> bool:
        if self._closed:
            return True
        self._closed = True
        clean = self.submit(self.server.drain(timeout_s)).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        return clean

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()
