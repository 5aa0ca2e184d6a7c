"""End-to-end tests for the serving front end over real sockets.

Everything here talks plain ``http.client`` to a
:class:`~repro.serve.BackgroundServer` on an ephemeral port — the same
harness ``benchmarks/bench_serve.py`` uses.
"""

import asyncio
import base64
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core.engine import run_segmentation
from repro.core.params import SlicParams
from repro.data import SceneConfig, generate_scene
from repro.errors import ConfigurationError
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    ServeExecutor,
    SuperpixelServer,
)
from repro.serve.server import labels_digest

PARAMS = SlicParams(n_superpixels=32)
SYNTH = {"synthetic": {"seed": 3, "height": 48, "width": 64}}


def request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if isinstance(body, dict) else body
        conn.request(method, path, payload)
        resp = conn.getresponse()
        raw = resp.read()
        headers = dict(resp.getheaders())
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = raw
        return resp.status, data, headers
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(params=PARAMS, max_queue=8, n_workers=1)
    with BackgroundServer(config) as bg:
        yield bg


class TestEndpoints:
    def test_healthz(self, server):
        status, data, _ = request(server.port, "GET", "/healthz")
        assert status == 200
        assert data["status"] == "ok"

    def test_readyz_when_idle(self, server):
        status, data, _ = request(server.port, "GET", "/readyz")
        assert status == 200
        assert data["ready"] is True

    def test_unknown_route_404(self, server):
        status, data, _ = request(server.port, "GET", "/nope")
        assert status == 404

    def test_segment_synthetic_matches_local_run(self, server):
        status, data, headers = request(
            server.port, "POST", "/v1/segment", SYNTH
        )
        assert status == 200
        assert data["ok"] is True
        assert data["degraded"] is False
        assert headers["X-Repro-Degraded"] == "false"
        assert headers["X-Repro-Quality-Rung"] == "full"
        image = generate_scene(
            SceneConfig(height=48, width=64), seed=3
        ).image
        local = run_segmentation(image, PARAMS)
        assert data["labels_sha256"] == labels_digest(local.labels)

    def test_segment_image_b64_roundtrip(self, server):
        image = generate_scene(
            SceneConfig(height=48, width=64), seed=9
        ).image
        body = {
            "image_b64": base64.b64encode(image.tobytes()).decode(),
            "height": 48,
            "width": 64,
            "return_labels": True,
        }
        status, data, _ = request(server.port, "POST", "/v1/segment", body)
        assert status == 200
        labels = np.frombuffer(
            base64.b64decode(data["labels_b64"]), dtype="<i4"
        ).reshape(data["labels_shape"])
        local = run_segmentation(image, PARAMS)
        np.testing.assert_array_equal(labels, local.labels)

    def test_stream_frames_warm_start_and_bit_identity(self, server):
        from repro.core.streaming import StreamSegmenter

        serial = StreamSegmenter(PARAMS)
        image = generate_scene(
            SceneConfig(height=48, width=64), seed=3
        ).image
        for i in range(2):
            status, data, _ = request(
                server.port, "POST", "/v1/streams/bit/frames", SYNTH
            )
            assert status == 200
            assert data["frame_index"] == i
            assert data["warm_started"] is (i > 0)
            baseline = serial.process(image)
            assert data["labels_sha256"] == labels_digest(baseline.labels)
        status, data, _ = request(
            server.port, "DELETE", "/v1/streams/bit"
        )
        assert status == 200
        assert data["closed"] is True

    def test_params_override(self, server):
        body = dict(SYNTH, params={"n_superpixels": 16})
        status, data, _ = request(server.port, "POST", "/v1/segment", body)
        assert status == 200
        assert data["n_superpixels"] <= 16

    def test_metrics_exposition(self, server):
        request(server.port, "POST", "/v1/segment", SYNTH)
        status, text, headers = request(server.port, "GET", "/metrics")
        assert status == 200
        exposition = text.decode()
        assert "repro_serve_requests_total" in exposition
        assert 'endpoint="segment"' in exposition
        assert "repro_serve_latency_seconds_bucket" in exposition
        assert "repro_serve_queue_depth" in exposition


class TestBadRequests:
    def test_non_json_body(self, server):
        status, data, _ = request(
            server.port, "POST", "/v1/segment", "not json"
        )
        assert status == 400

    def test_missing_image(self, server):
        status, data, _ = request(server.port, "POST", "/v1/segment", {})
        assert status == 400
        assert "image_b64" in data["error"]

    def test_wrong_byte_count(self, server):
        body = {
            "image_b64": base64.b64encode(b"abc").decode(),
            "height": 48, "width": 64,
        }
        status, data, _ = request(server.port, "POST", "/v1/segment", body)
        assert status == 400

    def test_unknown_params_override(self, server):
        body = dict(SYNTH, params={"kernel_backend": "reference"})
        status, data, _ = request(server.port, "POST", "/v1/segment", body)
        assert status == 400
        assert "unsupported" in data["error"]

    def test_bad_deadline(self, server):
        body = dict(SYNTH, deadline_ms=-5)
        status, data, _ = request(server.port, "POST", "/v1/segment", body)
        assert status == 400

    @pytest.mark.parametrize("bad", ["abc", "-5"])
    def test_invalid_content_length_is_a_400(self, server, bad):
        # http.client always writes a well-formed Content-Length, so
        # speak raw bytes: a hostile value must earn a clean 400, not a
        # dropped connection from an unhandled handler exception.
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall((
                "POST /v1/segment HTTP/1.1\r\n"
                f"Content-Length: {bad}\r\n"
                "Connection: close\r\n\r\n"
            ).encode())
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"invalid Content-Length" in raw


class TestOverload:
    def test_burst_sheds_429_with_retry_after(self):
        config = ServeConfig(params=PARAMS, max_queue=1, n_workers=1)
        with BackgroundServer(config) as bg:
            results = []

            def one():
                results.append(
                    request(bg.port, "POST", "/v1/segment", SYNTH)
                )

            threads = [threading.Thread(target=one) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            statuses = sorted(status for status, _, _ in results)
            assert 429 in statuses
            assert 200 in statuses
            shed = [r for r in results if r[0] == 429]
            for _, data, headers in shed:
                assert data["reason"] == "queue_full"
                assert int(headers["Retry-After"]) >= 1
            # Shed responses were never queued: bounded outstanding.
            status, text, _ = request(bg.port, "GET", "/metrics")
            assert b"repro_serve_shed_total" in text

    def test_infeasible_deadline_rejected_at_admission(self):
        config = ServeConfig(params=PARAMS, max_queue=4, n_workers=1)
        with BackgroundServer(config) as bg:
            # Seed the service-time tracker with one real frame.
            status, _, _ = request(bg.port, "POST", "/v1/segment", SYNTH)
            assert status == 200
            body = dict(SYNTH, deadline_ms=0.01)
            status, data, headers = request(
                bg.port, "POST", "/v1/segment", body
            )
            assert status == 429
            assert data["reason"] == "deadline_infeasible"
            assert "Retry-After" in headers


class TestCircuitBreakerProbe:
    def test_failed_probe_request_does_not_wedge_the_breaker(self):
        # Regression: a half-open probe claimed by a request that never
        # runs a frame (a 400 here; admission sheds and stream
        # conflicts hit the same path) must release the probe slot —
        # otherwise the breaker sits half-open with the slot marked
        # in-flight forever and every request gets 503 circuit_open
        # with a Retry-After of 0.
        from repro.serve.admission import CircuitBreaker

        config = ServeConfig(
            params=PARAMS, breaker_threshold=1, breaker_reset_s=0.05,
        )
        with BackgroundServer(config) as bg:
            breaker = bg.server.breaker
            breaker.record_failure()  # threshold=1: opens immediately
            assert breaker.state == CircuitBreaker.OPEN
            time.sleep(0.1)  # let the reset window lapse -> half-open
            status, _, _ = request(bg.port, "POST", "/v1/segment", {})
            assert status == 400  # the probe died before any frame ran
            # The slot was released: the next request is the real probe
            # and its success closes the breaker.
            status, data, _ = request(bg.port, "POST", "/v1/segment", SYNTH)
            assert status == 200
            assert breaker.state == CircuitBreaker.CLOSED


class TestConfiguration:
    def test_unknown_backend_rejected_before_bind(self, monkeypatch):
        """An unknown ``$REPRO_KERNEL_BACKEND`` fails construction, before
        a port is bound, instead of answering every frame with a 500."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            SuperpixelServer(ServeConfig(params=PARAMS))
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            BackgroundServer(ServeConfig(params=PARAMS))


class TestDrain:
    def test_drain_completes_in_flight_and_fails_readiness(
        self, monkeypatch
    ):
        from repro.serve import executor as executor_mod

        # Hold the in-flight frame until the probes are answered, so the
        # drain cannot finish (and close the listener) before they land.
        started, release = threading.Event(), threading.Event()
        run_frame = executor_mod.run_frame

        def gated_run_frame(task, in_worker=True):
            started.set()
            release.wait(timeout=30)
            return run_frame(task, in_worker=in_worker)

        monkeypatch.setattr(executor_mod, "run_frame", gated_run_frame)
        config = ServeConfig(params=PARAMS, max_queue=4, n_workers=1,
                             drain_timeout_s=30.0)
        bg = BackgroundServer(config).start()
        port = bg.port
        try:
            outcome = {}

            def in_flight_frame():
                outcome["result"] = request(port, "POST", "/v1/segment", SYNTH)

            worker = threading.Thread(target=in_flight_frame)
            worker.start()
            assert started.wait(timeout=10)
            assert bg.server.admission.outstanding > 0

            drained = {}

            def drain():
                drained["clean"] = bg.drain()

            drainer = threading.Thread(target=drain)
            drainer.start()
            # While draining: readiness fails, new frames are refused.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not bg.server.draining:
                time.sleep(0.005)
            assert bg.server.draining
            status, data, _ = request(port, "GET", "/readyz")
            assert status == 503
            assert data["reason"] == "draining"
            status, data, _ = request(port, "POST", "/v1/segment", SYNTH)
            assert status == 503
            assert data["reason"] == "draining"
            release.set()
            worker.join(timeout=60)
            drainer.join(timeout=60)
            # The in-flight frame completed with a real answer.
            assert outcome["result"][0] == 200
            assert drained["clean"] is True
            # The port was recorded at start: the closed listener has no
            # sockets left to ask.
            assert bg.port == port
        finally:
            release.set()
            bg.drain()

    def test_drain_with_no_inflight_is_immediate(self):
        config = ServeConfig(params=PARAMS)
        bg = BackgroundServer(config).start()
        assert bg.drain() is True


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestExecutorDeadline:
    def test_overrun_becomes_frame_timeout(self, mode):
        """An overrun answers as a ``FrameTimeout`` and counts one
        watchdog teardown, and the executor runs the next frame (in
        process mode, on a fresh pool)."""
        from repro.parallel.records import FrameTask

        image = generate_scene(
            SceneConfig(height=160, width=200), seed=0
        ).image
        task = FrameTask(
            stream_id="t", frame_index=0, image=image,
            params=SlicParams(n_superpixels=200, max_iterations=10),
        )
        executor = ServeExecutor(mode=mode, n_workers=1)
        try:
            record = asyncio.run(executor.run(task, deadline_s=0.001))
            assert not record.ok
            assert record.error_type == "FrameTimeout"
            assert "deadline" in record.error
            assert executor.watchdog_teardowns == 1
            small = generate_scene(
                SceneConfig(height=48, width=64), seed=0
            ).image
            after = asyncio.run(executor.run(FrameTask(
                stream_id="t", frame_index=1, image=small, params=PARAMS,
            )))
            assert after.ok
            assert after.result.labels.shape == (48, 64)
        finally:
            executor.close()

    def test_no_deadline_runs_to_completion(self, mode):
        from repro.parallel.records import FrameTask

        image = generate_scene(
            SceneConfig(height=48, width=64), seed=0
        ).image
        task = FrameTask(
            stream_id="t", frame_index=0, image=image, params=PARAMS,
        )
        executor = ServeExecutor(mode=mode, n_workers=1)
        try:
            record = asyncio.run(executor.run(task))
            assert record.ok
            assert record.result.labels.shape == (48, 64)
        finally:
            executor.close()
