"""Kernel backend supervision: self-test, demotion chain, forcing."""

import threading

import numpy as np
import pytest

from repro.core import SlicParams
from repro.errors import ConfigurationError
from repro.kernels import available_backends
from repro.kernels.supervisor import (
    DEMOTION_CHAIN,
    reset_supervision,
    self_test,
    supervised_resolve,
)
from repro.obs import MemorySink, Tracer
from repro.parallel import ParallelRunner, synthetic_batch
from repro.resilience import FaultPlan


@pytest.fixture(autouse=True)
def _fresh_supervision():
    reset_supervision()
    yield
    reset_supervision()


def _require(*names):
    missing = [n for n in names if n not in available_backends()]
    if missing:
        pytest.skip(f"backend(s) unavailable: {', '.join(missing)}")


def _successor(name):
    """First chain entry after ``name`` that is available to demote to."""
    for cand in DEMOTION_CHAIN[DEMOTION_CHAIN.index(name) + 1:]:
        if cand in available_backends():
            return cand
    return "reference"


def _demotion_cases():
    """Demotion table derived from DEMOTION_CHAIN itself, so adding a
    backend to the chain extends coverage without editing this file.

    Each row: (requested, forced_failures, survivor, demoted_from).
    ``survivor=None`` means "the first available successor" (resolved at
    run time, since native backends need a C compiler).
    """
    cases = []
    for i, name in enumerate(DEMOTION_CHAIN[:-1]):
        cases.append(
            pytest.param(name, {name}, None, name, id=f"{name}-one-step")
        )
        cascade = set(DEMOTION_CHAIN[i:-1])
        cases.append(
            pytest.param(
                name, cascade, "reference", name, id=f"{name}-to-reference"
            )
        )
    return cases


class TestSelfTest:
    def test_every_available_backend_passes(self):
        for name in available_backends():
            self_test(name)  # must not raise

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            self_test("fpga")

    def test_lost_helper_band_fails_self_test(self, monkeypatch):
        """A float color walk whose helper threads write nothing flunks
        the self-test: its two-band ramp hands a band to a helper."""
        _require("native-mt")
        from repro.kernels import native_mt

        real = native_mt._lab_band

        def caller_only(band, out):
            if threading.current_thread() is threading.main_thread():
                real(band, out)

        monkeypatch.setattr(native_mt, "_lab_band", caller_only)
        with pytest.raises(ConfigurationError, match="lab_from_rgb.seam"):
            self_test("native-mt")

    @pytest.mark.parametrize(
        "kernel",
        ["sigma_accumulate", "lab_from_codes", "lab_from_rgb", "ppa_assign"],
    )
    def test_broken_new_kernels_fail_self_test(self, kernel, monkeypatch):
        """A backend whose sigma/fused-color/float-color/fused-PPA kernel
        returns garbage must flunk its known-answer vector (the vectors
        are load-bearing)."""
        _require("native-mt")
        from repro.kernels import native_mt

        def garbage(*args, **kwargs):
            if kernel == "lab_from_rgb":
                return np.zeros(args[0].shape, dtype=np.float64)
            if kernel == "ppa_assign":
                n = len(args[3])
                return (
                    np.zeros(len(args[1]), dtype=np.int32),
                    np.ones((n, 5)),
                    np.zeros(n, dtype=np.int64),
                )
            if kernel == "sigma_accumulate":
                n = args[1]
                return (
                    np.ones((n, 5)),
                    np.zeros(n, dtype=np.int64),
                )
            rgb = args[1]
            return (
                np.zeros(rgb.shape, dtype=np.float64),
                np.zeros(rgb.shape, dtype=np.int64),
            )

        monkeypatch.setattr(native_mt, kernel, garbage)
        with pytest.raises(ConfigurationError, match=kernel.split(".")[0]):
            self_test("native-mt")

    @pytest.mark.parametrize(
        "kernel",
        ["sigma_accumulate", "lab_from_codes", "lab_from_rgb", "ppa_assign"],
    )
    def test_broken_new_kernel_demotes(self, kernel, monkeypatch):
        _require("native-mt")
        from repro.kernels import native_mt

        real = getattr(native_mt, kernel)

        def garbage(*args, **kwargs):
            out = real(*args, **kwargs)
            if kernel == "lab_from_rgb":
                return out + 1
            return (out[0] + 1, *out[1:])

        monkeypatch.setattr(native_mt, kernel, garbage)
        verdict = supervised_resolve("native-mt")
        assert verdict.name == "reference"
        assert verdict.demoted_from == "native-mt"


class TestSupervisedResolve:
    @pytest.mark.parametrize("name", DEMOTION_CHAIN)
    def test_healthy_backend_is_not_demoted(self, name):
        _require(name)
        verdict = supervised_resolve(name)
        assert verdict.name == name
        assert not verdict.demoted
        assert verdict.demoted_from is None

    @pytest.mark.parametrize(
        "requested,forced,survivor,demoted_from", _demotion_cases()
    )
    def test_demotion_chain_table(
        self, requested, forced, survivor, demoted_from
    ):
        _require(requested)
        if survivor is None:
            survivor = _successor(requested)
        verdict = supervised_resolve(requested, forced_failures=forced)
        assert verdict.name == survivor
        assert verdict.demoted_from == demoted_from
        assert verdict.demoted

    def test_kernel_fail_forces_a_backend_that_cannot_load(
        self, monkeypatch
    ):
        """A ``kernel_fail`` fault on a requested backend that cannot
        load forces that backend: the frame demotes to ``reference``
        instead of failing with nothing left to demote to."""
        from repro.kernels import native
        from repro.parallel.worker import _requested_backend_name

        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_error", "no C compiler (test)")
        forced = {_requested_backend_name("native-mt")}
        assert forced == {"native-mt"}
        verdict = supervised_resolve("native-mt", forced_failures=forced)
        assert verdict.name == "reference"
        assert verdict.demoted_from == "native-mt"

    def test_unknown_name_is_rejected_not_demoted(self, monkeypatch):
        """A retired or misspelt name fails supervision, whether it is
        passed or comes from the environment; it never runs quietly on
        the reference loops."""
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            supervised_resolve("vectorized")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "vectorized")
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            supervised_resolve(None)

    def test_env_var_is_read_on_every_resolve(self, monkeypatch):
        """``None`` supervises what ``$REPRO_KERNEL_BACKEND`` names at the
        call, not whatever the first call under ``None`` resolved."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert supervised_resolve(None).name == "reference"
        if "native-mt" in available_backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native-mt")
            assert supervised_resolve(None).name == "native-mt"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            supervised_resolve(None)

    def test_reference_failure_is_fatal(self):
        with pytest.raises(ConfigurationError, match="every kernel backend"):
            supervised_resolve(
                "reference", forced_failures=set(DEMOTION_CHAIN)
            )

    def test_forced_failures_argument(self):
        _require("native-mt")
        verdict = supervised_resolve(
            "native-mt", forced_failures=["native-mt"]
        )
        assert verdict.name == "reference"
        assert verdict.demoted_from == "native-mt"
        # Forcing a backend the request never reaches changes nothing.
        verdict = supervised_resolve(
            "native-mt", forced_failures=["reference"]
        )
        assert verdict.name == "native-mt"
        assert not verdict.demoted

    def test_memoized_per_forcing_set(self):
        _require("native-mt")
        a = supervised_resolve("native-mt")
        b = supervised_resolve("native-mt")
        assert a is b
        c = supervised_resolve("native-mt", forced_failures={"native-mt"})
        assert c is not a

    def test_demotion_emits_telemetry(self):
        _require("native-mt")
        tracer = Tracer(MemorySink())
        supervised_resolve(
            "native-mt", tracer=tracer, forced_failures={"native-mt"}
        )
        tracer.flush()
        names = [e.get("name") for e in tracer.sink.events]
        assert "kernels.selftest_failures" in names
        assert "kernels.demotions" in names
        events = [
            e for e in tracer.sink.events if e.get("name") == "kernels.demoted"
        ]
        assert events and events[0]["attrs"]["demoted_to"] == "reference"
        tracer.close()


class TestSupervisionInRunner:
    @staticmethod
    def _params(backend):
        return SlicParams(
            n_superpixels=40,
            max_iterations=4,
            subsample_ratio=0.5,
            convergence_threshold=0.3,
            kernel_backend=backend,
        )

    @pytest.mark.parametrize("requested", DEMOTION_CHAIN[:-1])
    def test_kernel_fail_fault_records_demotion(self, requested):
        _require(requested)
        frames = synthetic_batch(2, height=50, width=70, seed=2)
        res = ParallelRunner(
            self._params(requested), faults=FaultPlan.parse("kernel_fail@0:0")
        ).run_batch(frames)
        rec = res.records[0]
        assert rec.ok
        assert rec.kernel_backend == _successor(requested)
        assert rec.demoted_from == requested
        # The un-faulted frame used the healthy requested backend.
        assert res.records[1].kernel_backend == requested
        assert res.records[1].demoted_from is None

    @pytest.mark.parametrize("requested", ["native-mt"])
    def test_demoted_output_is_bit_identical(self, requested):
        # Demotion changes the implementation, never the answer.
        _require(requested)
        frames = synthetic_batch(1, height=50, width=70, seed=3)
        demoted = ParallelRunner(
            self._params(requested), faults=FaultPlan.parse("kernel_fail@0:0")
        ).run_batch(frames)
        clean = ParallelRunner(self._params(requested)).run_batch(frames)
        assert np.array_equal(
            demoted.records[0].result.labels, clean.records[0].result.labels
        )
