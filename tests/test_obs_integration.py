"""Integration tests: obs wired through engine, cyclesim, and the CLI."""

import json
import time

import numpy as np
import pytest

from repro import AcceleratorConfig, AcceleratorModel, sslic
from repro.cli import main
from repro.core import PhaseTimer
from repro.hw.cyclesim import AcceleratorSim, ClusterUnitSim
from repro.kernels import native
from repro.obs import MemorySink, Tracer, read_jsonl
from repro.types import Resolution


class TestEngineTracing:
    @pytest.fixture(scope="class")
    def traced_run(self, small_scene):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            result = sslic(small_scene.image, n_superpixels=24,
                           max_iterations=3, tracer=tracer)
        return result, sink

    def test_span_tree_shape(self, traced_run):
        result, sink = traced_run
        spans = sink.by_type("span")
        by_name = {}
        for ev in spans:
            by_name.setdefault(ev["name"], []).append(ev)
        (root,) = by_name["segmentation"]
        assert root["parent"] is None
        assert root["attrs"]["converged"] == result.converged
        # Which PPA body ran: 8 lanes or the scalar loop, compiled only.
        lanes = root["attrs"]["ppa_lanes"]
        if root["attrs"]["kernel_backend"] == "native-mt":
            assert lanes == native.ppa_lanes() and lanes in (1, 8)
        else:
            assert lanes is None
        assert len(by_name["sweep"]) == result.iterations
        assert len(by_name["subiteration"]) == result.subiterations
        # Every sweep is a child of the root segmentation span.
        assert {e["parent"] for e in by_name["sweep"]} == {root["id"]}
        # Subiterations nest under sweeps; phases nest under subiterations.
        sweep_ids = {e["id"] for e in by_name["sweep"]}
        assert {e["parent"] for e in by_name["subiteration"]} <= sweep_ids
        sub_ids = {e["id"] for e in by_name["subiteration"]}
        assert {e["parent"] for e in by_name["phase:distance_min"]} <= sub_ids

    def test_sweep_spans_carry_movement_residual(self, traced_run):
        result, sink = traced_run
        sweeps = [e for e in sink.by_type("span") if e["name"] == "sweep"]
        movements = [e["attrs"]["movement"] for e in sweeps]
        assert movements == pytest.approx(result.movement_history)

    def test_pixel_counters(self, traced_run, small_scene):
        result, sink = traced_run
        counters = {e["name"]: e["value"] for e in sink.by_type("counter")}
        h, w = small_scene.image.shape[:2]
        # Each PPA subiteration touches one subset; subsets tile the frame.
        expected = (h * w) // 2 * result.subiterations
        assert counters["engine.pixels_assigned"] == expected
        assert counters["engine.sweeps"] == result.iterations
        assert counters["engine.subiterations"] == result.subiterations

    def test_untraced_run_identical_labels(self, small_scene):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            traced = sslic(small_scene.image, n_superpixels=24,
                           max_iterations=3, tracer=tracer)
        plain = sslic(small_scene.image, n_superpixels=24, max_iterations=3)
        assert np.array_equal(traced.labels, plain.labels)


class TestPhaseTimerSpans:
    def test_phase_spans_tagged_error_on_exception(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        timer = PhaseTimer(tracer=tracer)
        with pytest.raises(RuntimeError):
            with timer.phase("distance_min"):
                raise RuntimeError("midway")
        (ev,) = sink.by_type("span")
        assert ev["name"] == "phase:distance_min"
        assert ev["status"] == "error"
        assert ev["attrs"]["error_type"] == "RuntimeError"
        # Partial time went to the distinct aborted bucket.
        assert timer.aborted() and "distance_min" not in timer.totals

    def test_phase_spans_ok_path(self):
        sink = MemorySink()
        timer = PhaseTimer(tracer=Tracer(sink))
        with timer.phase("center_update"):
            pass
        (ev,) = sink.by_type("span")
        assert ev["status"] == "ok"
        assert timer.totals["center_update"] >= 0.0


class TestCyclesimTracing:
    def test_frame_counters_and_gauges(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        cfg = AcceleratorConfig(
            resolution=Resolution(64, 48), n_superpixels=12, iterations=2
        )
        trace = AcceleratorSim(cfg, tracer=tracer).run_frame()
        tracer.flush()
        counters = {e["name"]: e["value"] for e in sink.by_type("counter")}
        gauges = {e["name"]: e["value"] for e in sink.by_type("gauge")}
        assert counters["cyclesim.scratchpad.fills"] == trace.n_tiles * 2
        assert counters["cyclesim.fsm.fetch_cycles"] == pytest.approx(
            trace.dram_busy_cycles
        )
        assert counters["cyclesim.fsm.compute_cycles"] == pytest.approx(
            trace.compute_cycles
        )
        assert gauges["cyclesim.dram.bytes_per_frame"] > 0
        frame_spans = [e for e in sink.by_type("span")
                       if e["name"] == "cyclesim.frame"]
        assert frame_spans[0]["attrs"]["total_cycles"] == pytest.approx(
            trace.total_cycles
        )
        iter_events = [e for e in sink.by_type("event")
                       if e["name"] == "cyclesim.iteration"]
        assert len(iter_events) == 2

    def test_cluster_unit_events(self):
        sink = MemorySink()
        sim = ClusterUnitSim(tracer=Tracer(sink))
        trace = sim.run(100)
        (ev,) = [e for e in sink.by_type("event")
                 if e["name"] == "cyclesim.cluster_unit"]
        assert ev["attrs"]["n_pixels"] == 100
        assert ev["attrs"]["total_cycles"] == trace.total_cycles

    def test_untraced_sim_unchanged(self):
        cfg = AcceleratorConfig(
            resolution=Resolution(64, 48), n_superpixels=12, iterations=2
        )
        a = AcceleratorSim(cfg).run_frame()
        b = AcceleratorSim(cfg, tracer=Tracer(MemorySink())).run_frame()
        assert a.total_cycles == pytest.approx(b.total_cycles)

    def test_accelerator_report_gauges(self):
        sink = MemorySink()
        model = AcceleratorModel(tracer=Tracer(sink))
        report = model.report()
        model.tracer.flush()
        gauges = {e["name"]: e["value"] for e in sink.by_type("gauge")}
        assert gauges["accelerator.latency_ms"] == pytest.approx(report.latency_ms)
        assert gauges["accelerator.power_mw"] == pytest.approx(report.power_mw)


class TestDisabledOverhead:
    def test_disabled_tracer_under_5_percent(self, small_scene):
        """A disabled Tracer must cost < 5% vs passing no tracer at all."""
        image = small_scene.image
        kwargs = dict(n_superpixels=24, max_iterations=4,
                      convergence_threshold=0.0)

        def run_plain():
            return sslic(image, **kwargs)

        def run_disabled():
            return sslic(image, tracer=Tracer(), **kwargs)

        # Warm both paths, then take best-of-N to shed scheduler noise.
        run_plain(), run_disabled()
        best_plain = min(_timed(run_plain) for _ in range(5))
        best_disabled = min(_timed(run_disabled) for _ in range(5))
        # 5% relative budget plus 2 ms absolute slack for timer jitter on
        # this deliberately small workload.
        assert best_disabled <= best_plain * 1.05 + 2e-3, (
            f"disabled tracer overhead: {best_plain * 1e3:.2f} ms -> "
            f"{best_disabled * 1e3:.2f} ms"
        )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestCliTelemetry:
    def test_segment_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        manifest = tmp_path / "run.json"
        code = main(
            ["segment", "--synthetic", "--seed", "3",
             "--width", "96", "--height", "64",
             "--superpixels", "24", "--iterations", "3",
             "--trace", str(trace), "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote trace telemetry" in out
        assert "wrote run manifest" in out

        events = read_jsonl(trace)
        names = {e.get("name") for e in events if e.get("ev") == "span"}
        assert {"segmentation", "sweep", "subiteration"} <= names

        doc = json.loads(manifest.read_text())
        assert doc["command"] == "segment"
        assert doc["seed"] == 3
        assert doc["params"]["n_superpixels"] == 24
        assert "boundary_recall" in doc["metrics"]
        assert "undersegmentation_error" in doc["metrics"]
        assert doc["status"] == "ok"

    def test_stats_command_summarizes(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["segment", "--synthetic", "--width", "96", "--height", "64",
              "--superpixels", "24", "--iterations", "2",
              "--trace", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "sweep" in out
        assert "engine.pixels_assigned" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2

    def test_experiment_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "exp.jsonl"
        manifest = tmp_path / "exp.json"
        code = main(["experiment", "table3", "--trace", str(trace),
                     "--manifest", str(manifest)])
        assert code == 0
        events = read_jsonl(trace)
        (span,) = [e for e in events if e.get("ev") == "span"]
        assert span["name"] == "experiment"
        assert span["attrs"]["experiment"] == "table3"
        assert span["attrs"]["rows"] > 0
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "experiment:table3"
        assert doc["metrics"]["rows"] > 0
