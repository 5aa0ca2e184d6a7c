"""JSONL checkpoint journal for batch runs, and the resume protocol.

Every finalized :class:`~repro.parallel.FrameRecord` is appended to the
journal as one self-contained JSON line (arrays shipped as base64 of
their exact bytes, with dtype and shape), so a killed batch loses at
most the in-flight frames. ``ParallelRunner.resume`` replays the
journal's per-stream *contiguous prefixes* through the same
plan/commit protocol a live run uses — the replayed records are the
original objects bit for bit (labels, centers, error text, timings),
and the warm chains the remaining frames see are exactly the chains
the original run would have produced.

Safety properties:

* the header line pins a fingerprint of the run's
  :class:`~repro.core.params.SlicParams`; resuming against a journal
  written with different parameters raises
  :class:`~repro.errors.CheckpointError` instead of silently producing
  a frankenstein batch;
* a truncated final line (the process died mid-write) is detected and
  dropped — the journal format is crash-consistent by construction;
* only contiguous per-stream prefixes are trusted: a gap means the
  journal and scheduler disagree, and everything after the gap is
  recomputed.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

__all__ = [
    "CheckpointJournal",
    "params_fingerprint",
    "load_journal",
    "completed_prefixes",
    "record_to_json",
    "record_from_json",
]

JOURNAL_VERSION = 1


def params_fingerprint(params) -> str:
    """A short stable fingerprint of a :class:`SlicParams`."""
    return hashlib.sha256(repr(params).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Array / record (de)serialization
# ----------------------------------------------------------------------
def _pack_array(arr) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _unpack_array(obj):
    return np.frombuffer(
        base64.b64decode(obj["data"]), dtype=np.dtype(obj["dtype"])
    ).reshape(obj["shape"]).copy()


def record_to_json(record) -> dict:
    """A :class:`FrameRecord` as a JSON-safe dict (trace events dropped)."""
    payload = {
        "stream_id": record.stream_id,
        "frame_index": record.frame_index,
        "ok": record.ok,
        "error": record.error,
        "error_type": record.error_type,
        "warm_started": record.warm_started,
        "elapsed_s": record.elapsed_s,
        "worker_pid": record.worker_pid,
        "kernel_backend": record.kernel_backend,
        "n_threads": record.n_threads,
        "attempts": record.attempts,
        "quarantined": record.quarantined,
        "demoted_from": record.demoted_from,
        "transport": record.transport,
    }
    if record.ok and record.result is not None:
        res = record.result
        payload["result"] = {
            "labels": _pack_array(res.labels),
            "centers": _pack_array(res.centers),
            "n_superpixels": res.n_superpixels,
            "iterations": res.iterations,
            "subiterations": res.subiterations,
            "converged": bool(res.converged),
            "movement_history": [float(m) for m in res.movement_history],
            "timings": {k: float(v) for k, v in res.timings.items()},
        }
    return payload


def record_from_json(payload: dict, params=None):
    """Rebuild a :class:`FrameRecord` (and its result) from a journal line."""
    from ..core.result import SegmentationResult
    from ..parallel.records import FrameRecord

    result = None
    if payload.get("result") is not None:
        res = payload["result"]
        result = SegmentationResult(
            labels=_unpack_array(res["labels"]),
            centers=_unpack_array(res["centers"]),
            n_superpixels=res["n_superpixels"],
            iterations=res["iterations"],
            subiterations=res["subiterations"],
            converged=res["converged"],
            movement_history=list(res["movement_history"]),
            timings=dict(res["timings"]),
            params=params,
        )
    return FrameRecord(
        stream_id=payload["stream_id"],
        frame_index=payload["frame_index"],
        ok=payload["ok"],
        result=result,
        error=payload.get("error"),
        error_type=payload.get("error_type"),
        warm_started=payload.get("warm_started", False),
        elapsed_s=payload.get("elapsed_s", 0.0),
        worker_pid=payload.get("worker_pid", 0),
        kernel_backend=payload.get("kernel_backend"),
        n_threads=payload.get("n_threads"),
        attempts=payload.get("attempts", 1),
        quarantined=payload.get("quarantined", False),
        demoted_from=payload.get("demoted_from"),
        transport=payload.get("transport"),
    )


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class CheckpointJournal:
    """Append-only JSONL journal of finalized frame records.

    ``start`` truncates and writes the header; ``open_append`` continues
    an existing journal (the resume path). Each ``append`` is one
    ``write`` + ``flush`` + ``fsync``-free line — cheap, and a torn
    final line is tolerated by the loader.
    """

    def __init__(self, path, fh):
        self.path = Path(path)
        self._fh = fh
        self.frames_journaled = 0

    @classmethod
    def start(cls, path, params) -> "CheckpointJournal":
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8")
        header = {
            "ev": "journal",
            "version": JOURNAL_VERSION,
            "fingerprint": params_fingerprint(params),
        }
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        return cls(path, fh)

    @classmethod
    def open_append(cls, path, params) -> "CheckpointJournal":
        path = Path(path)
        load_journal(path, params)  # validates header + fingerprint
        return cls(path, open(path, "a", encoding="utf-8"))

    def append(self, record) -> None:
        self._fh.write(json.dumps(record_to_json(record)) + "\n")
        self._fh.flush()
        self.frames_journaled += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_journal(path, params=None) -> list:
    """Read a journal back into :class:`FrameRecord` objects.

    Verifies the header (and, when ``params`` is given, the params
    fingerprint). A truncated or corrupt trailing line is dropped with
    the records before it kept; corruption anywhere *else* raises — a
    mid-file hole means the journal cannot be trusted.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint journal at {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CheckpointError(f"checkpoint journal {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint journal {path} has a corrupt header"
        ) from exc
    if header.get("ev") != "journal":
        raise CheckpointError(
            f"{path} is not a checkpoint journal (missing header)"
        )
    if header.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"checkpoint journal version {header.get('version')} is not "
            f"supported (expected {JOURNAL_VERSION})"
        )
    if params is not None:
        expected = params_fingerprint(params)
        if header.get("fingerprint") != expected:
            raise CheckpointError(
                "checkpoint journal was written with different parameters "
                f"(journal fingerprint {header.get('fingerprint')}, current "
                f"{expected}); resume requires identical SlicParams"
            )
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            records.append(record_from_json(payload, params=params))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            if i == len(lines):  # torn final write: drop it, keep the rest
                break
            raise CheckpointError(
                f"checkpoint journal {path} is corrupt at line {i}"
            ) from exc
    return records


def completed_prefixes(records) -> dict:
    """Per-stream contiguous completed prefixes of journaled records.

    Returns ``{stream_id: [record, ...]}`` where each list covers frame
    indices ``0..k-1`` with no gaps, in order. Records after a gap are
    ignored (they will be recomputed).
    """
    by_stream = {}
    for rec in records:
        by_stream.setdefault(rec.stream_id, []).append(rec)
    prefixes = {}
    for sid, recs in by_stream.items():
        recs.sort(key=lambda r: r.frame_index)
        prefix = []
        for expected, rec in enumerate(recs):
            if rec.frame_index != expected:
                break
            prefix.append(rec)
        prefixes[sid] = prefix
    return prefixes
