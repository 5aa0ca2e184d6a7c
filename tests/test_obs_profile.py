"""Tests for repro.obs.profile: per-span resource sampling."""

import gc
import time

from repro.core import SlicParams
from repro.obs import MemorySink, ResourceProfiler, Tracer
from repro.parallel import ParallelRunner, synthetic_streams

PROFILE_KEYS = {"cpu_user_s", "cpu_sys_s", "rss_peak_kb", "gc_collections"}

#: Span profiling may cost at most this fraction of a traced run's wall.
PROFILING_BUDGET = 0.05


class TestResourceProfiler:
    def test_delta_shape_and_sanity(self):
        prof = ResourceProfiler()
        snap = prof.snapshot()
        attrs = prof.delta(snap)
        assert set(attrs) == PROFILE_KEYS
        assert attrs["cpu_user_s"] >= 0.0
        assert attrs["cpu_sys_s"] >= 0.0
        assert attrs["rss_peak_kb"] > 0  # POSIX: a live process has RSS
        assert attrs["gc_collections"] >= 0
        assert prof.samples == 1

    def test_counts_gc_collections_inside_window(self):
        prof = ResourceProfiler()
        snap = prof.snapshot()
        gc.collect()
        gc.collect()
        assert prof.delta(snap)["gc_collections"] >= 2

    def test_cpu_attribution(self):
        import time

        prof = ResourceProfiler()
        snap = prof.snapshot()
        # burn enough CPU to cross several OS clock ticks (~10 ms each)
        deadline = time.perf_counter() + 0.1
        acc = 0
        while time.perf_counter() < deadline:
            acc += sum(range(1000))
        assert prof.delta(snap)["cpu_user_s"] > 0.0


class TestTracerProfiling:
    def test_spans_carry_profile_attrs_when_enabled(self):
        sink = MemorySink()
        tracer = Tracer(sink, profile=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = sink.by_type("span")
        assert len(spans) == 2
        for ev in spans:
            assert PROFILE_KEYS <= set(ev["attrs"]), ev

    def test_disabled_by_default(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("s"):
            pass
        (ev,) = sink.by_type("span")
        assert not (PROFILE_KEYS & set(ev["attrs"]))

    def test_enable_profiling_is_lazy_and_chainable(self):
        tracer = Tracer(MemorySink())
        assert tracer.profiler is None
        assert tracer.enable_profiling() is tracer
        assert tracer.profiler is not None
        with tracer.span("s"):
            pass
        (ev,) = tracer.sink.by_type("span")
        assert PROFILE_KEYS <= set(ev["attrs"])

    def test_enable_on_disabled_tracer_is_noop(self):
        tracer = Tracer()  # NullSink -> disabled
        tracer.enable_profiling()
        assert tracer.profiler is None

    def test_profile_attrs_do_not_clobber_user_attrs(self):
        sink = MemorySink()
        tracer = Tracer(sink, profile=True)
        with tracer.span("s", stage="demo") as span:
            span.set(frames=3)
        (ev,) = sink.by_type("span")
        assert ev["attrs"]["stage"] == "demo"
        assert ev["attrs"]["frames"] == 3
        assert "cpu_user_s" in ev["attrs"]


def _span_cost_s(rounds=20, spans=1000):
    """Marginal cost of one profiled span over an unprofiled one.

    Best of ``rounds`` batches of ``spans`` spans on each side, on
    in-memory tracers, so the number is the profiler's own sampling.
    """

    def best_batch_s(profile):
        best = float("inf")
        for _ in range(rounds):
            tracer = Tracer(MemorySink(), profile=profile)
            start = time.perf_counter()
            for _ in range(spans):
                with tracer.span("s"):
                    pass
            best = min(best, time.perf_counter() - start)
        return best

    return (best_batch_s(True) - best_batch_s(False)) / spans


class TestProfilingBudget:
    """Span profiling costs <= 5% of a traced VGA serial video run.

    Bounded as profiled-span count x per-span cost rather than as a wall
    A/B of two runs, whose run-to-run spread is as large as the budget.
    """

    PARAMS = SlicParams(
        n_superpixels=200,
        max_iterations=3,
        subsample_ratio=0.25,
        convergence_threshold=0.0,  # fixed work per frame
    )

    def _run(self, profile):
        streams = [
            list(frames)  # rendered before the clock starts
            for frames in synthetic_streams(2, 3, height=480, width=640,
                                            seed=11)
        ]
        sink = MemorySink()
        tracer = Tracer(sink, profile=profile)
        runner = ParallelRunner(
            self.PARAMS, n_workers=1, tracer=tracer,
            collect_worker_traces=True,
        )
        start = time.perf_counter()
        result = runner.run_streams(streams)
        elapsed = time.perf_counter() - start
        tracer.close()
        assert result.n_failed == 0
        return elapsed, sink.by_type("span")

    def test_span_profiling_within_budget(self):
        self._run(False)  # warm imports, kernels and geometry
        wall_s, _ = self._run(False)
        _, spans = self._run(True)

        profiled = [s for s in spans if "cpu_user_s" in s["attrs"]]
        assert {"segmentation", "sweep", "subiteration"} <= {
            s["name"] for s in profiled
        }
        # Only the parent-side frame spans (bookkeeping) go unprofiled.
        unprofiled = {
            s["name"] for s in spans if "cpu_user_s" not in s["attrs"]
        }
        assert unprofiled == {"frame"}, sorted(unprofiled)

        cost_s = _span_cost_s()
        spent_s = len(profiled) * cost_s
        assert spent_s <= PROFILING_BUDGET * wall_s, (
            f"{len(profiled)} of {len(spans)} spans profiled x "
            f"{cost_s * 1e6:.1f} us = {spent_s * 1e3:.2f} ms, over "
            f"{PROFILING_BUDGET:.0%} of a {wall_s:.3f} s run"
        )
