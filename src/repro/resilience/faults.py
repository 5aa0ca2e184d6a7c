"""Deterministic fault injection for the hardened execution paths.

The chaos layer has one job: make every recovery path in
:class:`repro.parallel.ParallelRunner` a *reproducible test case*. A
:class:`FaultPlan` decides — purely from ``(seed, stream, frame,
attempt)`` — whether a frame is faulted and how; a :class:`FaultSpec`
travels to the worker inside the :class:`~repro.parallel.FrameTask` and
is applied by a single hook at the top of ``run_frame``. Nothing here
uses wall-clock time or process-local randomness, so the same plan
produces the same faults on every run, serial or parallel, local or CI.

Fault kinds
-----------
``crash``
    The worker dies with ``os._exit`` — a hard process death (segfault /
    OOM-kill stand-in). Exercises ``BrokenProcessPool`` recovery.
``hang``
    The worker sleeps for ``duration_s`` (default 60 s) before working —
    long enough to trip any sane frame deadline. Exercises the watchdog.
``slow``
    The worker sleeps ``duration_s`` (default 0.05 s), then completes
    normally. Exercises deadlines that should *not* fire, and retry
    timing.
``corrupt_image``
    The frame's pixel data is overwritten with NaNs before segmentation
    — a scratchpad/transfer corruption stand-in. Surfaces as a clean
    ``ImageError`` record (the datapath rejects non-finite input).
``corrupt_result``
    The worker raises an exception carrying an unpicklable payload, so
    the result cannot cross the process boundary intact — the
    pickled-result corruption case. Exercises the runner's
    "anything-else" future-exception branch.
``error``
    The worker raises a plain ``RuntimeError`` that is *not* part of the
    frame-error contract (``run_frame`` only converts expected error
    types). Exercises the same branch deterministically and picklably.
``kernel_fail``
    The frame's kernel backend is forced to fail its first-dispatch
    self-test, driving the supervisor's demotion chain
    (native-mt -> reference).
``submit_broken``
    Parent-side: the runner's submit call raises ``BrokenProcessPool``
    as if the pool broke between detection points. Exercises the
    submit-path recovery branch (unreachable deterministically without
    injection).

Process-level faults (``crash``, ``hang``) are only applied inside a
real worker process; when the runner executes frames in-process (serial
mode or post-fallback) they are skipped — killing or hanging the parent
is not a recovery path, it is the end of the experiment.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ResilienceError

__all__ = [
    "FAULT_KINDS",
    "WORKER_ONLY_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
]

#: Every fault kind a plan may contain.
FAULT_KINDS = (
    "crash",
    "hang",
    "slow",
    "corrupt_image",
    "corrupt_result",
    "error",
    "kernel_fail",
    "submit_broken",
)

#: Kinds that require a sacrificial worker process (skipped in-process).
WORKER_ONLY_KINDS = frozenset({"crash", "hang"})

#: Kinds applied by the parent scheduler, never shipped to a worker.
PARENT_SIDE_KINDS = frozenset({"submit_broken"})

#: Default sleep lengths, per kind, when the spec does not pin one.
_DEFAULT_DURATIONS = {"hang": 60.0, "slow": 0.05}


class InjectedFault(RuntimeError):
    """The exception raised by ``error`` faults (picklable)."""


class _Unpicklable:
    """Payload that defeats pickling on the way back from a worker."""

    def __reduce__(self):
        raise TypeError("injected unpicklable result payload")


class CorruptResultFault(RuntimeError):
    """Raised by ``corrupt_result`` faults; carries an unpicklable arg."""

    def __init__(self):
        super().__init__("injected result corruption", _Unpicklable())


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *what* happens to *which* attempt of a frame.

    ``attempt`` is the 0-based attempt index the fault fires on; ``-1``
    means every attempt (a persistent fault — the frame can never
    succeed and must be quarantined). ``duration_s`` parameterizes
    ``hang``/``slow``; ``None`` uses the kind's default.
    """

    kind: str
    stream_id: int
    frame_index: int
    attempt: int = 0
    duration_s: float | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.attempt < -1:
            raise ResilienceError(
                f"fault attempt must be >= -1, got {self.attempt}"
            )

    def fires_on(self, attempt: int) -> bool:
        return self.attempt == -1 or self.attempt == attempt

    @property
    def duration(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return _DEFAULT_DURATIONS.get(self.kind, 0.0)

    def describe(self) -> str:
        at = "*" if self.attempt == -1 else str(self.attempt)
        return f"{self.kind}@{self.stream_id}:{self.frame_index}:{at}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic mapping ``(stream, frame, attempt) -> FaultSpec``.

    Two layers, combinable:

    * **explicit entries** — exact ``kind@stream:frame[:attempt]``
      placements (:meth:`parse`); the reproducible unit tests use these;
    * **a seeded random field** — every ``(stream, frame)`` key is
      hashed with the seed into a uniform draw; keys under ``rate`` get
      a fault whose kind is picked by the same hash. No enumeration of
      the key space is needed, so the plan works for streams of unknown
      length, and the *same seed always faults the same frames*.

    Random faults fire on attempt 0 only (transient), which is what
    makes ``retries`` recover them.
    """

    entries: tuple = ()
    rate: float = 0.0
    seed: int = 0
    random_kinds: tuple = ("crash", "slow", "corrupt_image", "error")

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ResilienceError(f"fault rate must be in [0, 1], got {self.rate}")
        for kind in self.random_kinds:
            if kind not in FAULT_KINDS:
                raise ResilienceError(f"unknown fault kind {kind!r}")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, seed: int = 0, rate: float = 0.0) -> "FaultPlan":
        """Build a plan from a compact spec string.

        ``spec`` is a comma-separated list of
        ``kind@stream:frame[:attempt][~duration_s]`` entries, e.g.
        ``"crash@1:0,hang@0:2,slow@2:1:-1~0.2"``. The special entry
        ``random`` enables the seeded random field at ``rate``.
        """
        entries = []
        use_random = False
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if part == "random":
                use_random = True
                continue
            try:
                kind, _, where = part.partition("@")
                duration = None
                if "~" in where:
                    where, _, dur = where.partition("~")
                    duration = float(dur)
                bits = where.split(":")
                stream, frame = int(bits[0]), int(bits[1])
                attempt = int(bits[2]) if len(bits) > 2 else 0
            except (ValueError, IndexError) as exc:
                raise ResilienceError(
                    f"bad fault entry {part!r}; expected "
                    "kind@stream:frame[:attempt][~duration_s]"
                ) from exc
            entries.append(
                FaultSpec(kind, stream, frame, attempt=attempt, duration_s=duration)
            )
        return cls(
            entries=tuple(entries),
            rate=rate if use_random else 0.0,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _draw(self, stream_id: int, frame_index: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{stream_id}:{frame_index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def lookup(self, stream_id: int, frame_index: int, attempt: int = 0):
        """The fault for this attempt of this frame, or ``None``."""
        for spec in self.entries:
            if (
                spec.stream_id == stream_id
                and spec.frame_index == frame_index
                and spec.fires_on(attempt)
            ):
                return spec
        if self.rate > 0.0 and attempt == 0:
            u = self._draw(stream_id, frame_index)
            if u < self.rate:
                kind = self.random_kinds[
                    int(u / self.rate * len(self.random_kinds))
                    % len(self.random_kinds)
                ]
                return FaultSpec(kind, stream_id, frame_index, attempt=0)
        return None

    @property
    def empty(self) -> bool:
        return not self.entries and self.rate == 0.0

    def describe(self) -> str:
        parts = [s.describe() for s in self.entries]
        if self.rate > 0.0:
            parts.append(f"random(rate={self.rate}, seed={self.seed})")
        return ",".join(parts) or "<empty>"


# ----------------------------------------------------------------------
# Worker-side application
# ----------------------------------------------------------------------
def apply_fault(spec: FaultSpec, image, in_worker: bool):
    """Apply ``spec`` at the top of a frame execution.

    Returns the (possibly corrupted) image to segment. Raises for the
    error-raising kinds; never returns for ``crash``. Process-level
    faults are skipped when not inside a sacrificial worker process.
    ``kernel_fail`` and ``submit_broken`` are handled elsewhere (backend
    supervisor / parent scheduler) and are no-ops here.
    """
    if spec is None:
        return image
    kind = spec.kind
    if kind in WORKER_ONLY_KINDS and not in_worker:
        return image  # never kill or hang the parent process
    if kind == "crash":
        os._exit(3)
    if kind == "hang":
        time.sleep(spec.duration)
        return image
    if kind == "slow":
        time.sleep(spec.duration)
        return image
    if kind == "corrupt_image":
        corrupted = np.asarray(image, dtype=np.float64) / (
            255.0 if np.asarray(image).dtype == np.uint8 else 1.0
        )
        corrupted = corrupted.copy()
        corrupted[..., :] = np.nan
        return corrupted
    if kind == "error":
        raise InjectedFault(f"injected worker error ({spec.describe()})")
    if kind == "corrupt_result":
        raise CorruptResultFault()
    return image


class FaultInjector:
    """The runner's handle on a plan: stamps tasks, counts injections.

    Lives in the parent process; the only thing that crosses to workers
    is the per-frame :class:`FaultSpec` riding on the task. ``tracer``
    receives one ``resilience.faults_injected`` count per stamped fault
    (and ``resilience.faults_skipped`` for process-level faults that
    in-process execution refuses to run).
    """

    def __init__(self, plan: FaultPlan, tracer=None):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if not isinstance(plan, FaultPlan):
            raise ResilienceError(
                f"plan must be a FaultPlan or spec string, got {type(plan).__name__}"
            )
        self.plan = plan
        self.tracer = tracer
        self.injected = 0
        self.skipped = 0

    def fault_for(self, stream_id, frame_index, attempt, in_worker=True):
        """The spec to stamp on this attempt's task, or ``None``."""
        spec = self.plan.lookup(stream_id, frame_index, attempt)
        if spec is None or spec.kind in PARENT_SIDE_KINDS:
            return None
        if spec.kind in WORKER_ONLY_KINDS and not in_worker:
            self.skipped += 1
            if self.tracer is not None:
                self.tracer.count("resilience.faults_skipped")
            return None
        self.injected += 1
        if self.tracer is not None:
            self.tracer.count("resilience.faults_injected")
        return spec

    def breaks_submit(self, stream_id, frame_index, attempt) -> bool:
        """True when a ``submit_broken`` fault targets this submission."""
        spec = self.plan.lookup(stream_id, frame_index, attempt)
        if spec is not None and spec.kind == "submit_broken":
            self.injected += 1
            if self.tracer is not None:
                self.tracer.count("resilience.faults_injected")
            return True
        return False
