"""The benchmark's workloads: parameters, input rendering and stored digests.

Every workload renders its frames from fixed synthetic scenes (one per
stream, seeded by the workload, not by ``--seed``) moved by
``repro.data.VideoSequence``; the run's ``--seed`` drives the per-frame
sensor noise. Keeping the scenes fixed keeps the quality metrics steady
across seeds while every seed still yields different pixels and labels.

A seed selects one of ``N_VARIANTS`` noise variants (``seed % N_VARIANTS``)
so that every input the benchmark can make has a stored label digest in
``digests.json``.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

N_VARIANTS = 16

#: Per-frame additive sensor noise (uint8 counts), as in ``VideoSequence``.
NOISE_SIGMA = 4.0

CONFIG_PATH = Path(__file__).with_name("config.json")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def pipeline_width() -> int:
    """Threads, worker processes or connections per pipeline step (<= 2)."""
    return max(1, min(2, usable_cores()))


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    n_streams: int
    #: Frames pre-rendered per stream. A video run ends at the last one,
    #: every pool call replays them all, and a camera stream of the
    #: server replays them in a cycle.
    frames_per_stream: int
    motion: str
    #: Leading frames per stream scored for boundary recall and USE.
    quality_frames: int
    scene_seed: int
    #: Open-loop ladder of total request rates (serve only). Latency is
    #: reported at the reference rate, well below capacity, so that a
    #: slower host does not tip it into queueing.
    rates: tuple = ()
    reference_rate: float = 0.0
    #: Share of every traced ``process()`` call the engine phases must cover.
    coverage_floor: float = 0.0

    def params(self):
        from repro.core import SlicParams
        from repro.core.distance import FixedDatapath

        if self.name.startswith("video"):
            return SlicParams(
                n_superpixels=200,
                max_iterations=3,
                subsample_ratio=0.25,
                convergence_threshold=0.0,
                n_threads=pipeline_width(),
            )
        if self.name.startswith("pool"):
            return SlicParams(
                n_superpixels=300,
                max_iterations=10,
                subsample_ratio=0.5,
                convergence_threshold=0.3,
                datapath=FixedDatapath(bits=8),
                n_threads=1,
            )
        return SlicParams(subsample_ratio=0.5, convergence_threshold=0.3,
                          n_threads=pipeline_width())

    @property
    def kind(self) -> str:
        return self.name.split("-", 1)[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("video-1080p", 1080, 1920, n_streams=2, frames_per_stream=24,
                 motion="shake", quality_frames=6, scene_seed=1100,
                 coverage_floor=0.95),
        Workload("pool-vga-q8", 480, 640, n_streams=4, frames_per_stream=12,
                 motion="static", quality_frames=12, scene_seed=2200),
        Workload("serve-qvga-open", 240, 320, n_streams=4, frames_per_stream=16,
                 motion="shake", quality_frames=16, scene_seed=3300,
                 rates=(10.0, 20.0, 30.0), reference_rate=10.0),
    )
}

#: Scaled-down variants for the self-test: same code paths, tiny frames.
TINY = {
    "video-1080p": dict(height=72, width=96, frames_per_stream=4,
                        quality_frames=2, coverage_floor=0.0),
    "pool-vga-q8": dict(height=60, width=80, frames_per_stream=3,
                        quality_frames=2),
    "serve-qvga-open": dict(height=48, width=64, frames_per_stream=4,
                            quality_frames=2, rates=(10.0, 20.0),
                            reference_rate=10.0),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload


def variant_of(seed: int) -> int:
    return int(seed) % N_VARIANTS


@functools.lru_cache(maxsize=1)
def _clean(workload: Workload):
    """Noise-free frames and ground truth of the workload's fixed scenes."""
    from repro.data import SceneConfig, VideoSequence

    config = SceneConfig(
        height=workload.height, width=workload.width, noise=0.0,
        n_regions=24, blur_sigma=1.5, texture=6.0, camouflage=0.2,
    )
    shape = (workload.n_streams, workload.frames_per_stream,
             workload.height, workload.width)
    frames = np.empty(shape + (3,), dtype=np.uint8)
    gt = np.empty(shape[:1] + (workload.quality_frames,) + shape[2:],
                  dtype=np.int32)
    for s in range(workload.n_streams):
        seq = VideoSequence(
            workload.frames_per_stream, config=config, motion=workload.motion,
            noise_sigma=0.0, seed=workload.scene_seed + s,
        )
        for i in range(workload.frames_per_stream):
            frame = seq[i]
            frames[s, i] = frame.image
            if i < workload.quality_frames:
                gt[s, i] = frame.gt_labels
    return frames, gt


def render(workload: Workload, variant: int):
    """``(frames, gt)`` for one noise variant.

    ``frames`` is ``(streams, frames_per_stream, H, W, 3)`` uint8 and
    ``gt`` is ``(streams, quality_frames, H, W)`` int32 ground truth.
    """
    clean, gt = _clean(workload)
    frames = np.empty_like(clean)
    for s in range(workload.n_streams):
        for i in range(workload.frames_per_stream):
            rng = np.random.default_rng([variant, s, i])
            noise = rng.standard_normal(clean.shape[2:], dtype=np.float32)
            noisy = clean[s, i] + np.rint(noise * NOISE_SIGMA)
            frames[s, i] = np.clip(noisy, 0, 255).astype(np.uint8)
    return frames, gt


def labels_digest(labels) -> str:
    """The canonical label digest, shared with the server's responses."""
    from repro.serve.server import labels_digest as digest

    return digest(labels)


def quality(labels, gt) -> dict:
    """Mean boundary recall and undersegmentation error over frames."""
    from repro.metrics.boundary_recall import boundary_recall
    from repro.metrics.undersegmentation import undersegmentation_error

    return {
        "boundary_recall": float(np.mean(
            [boundary_recall(lab, g) for lab, g in zip(labels, gt)]
        )),
        "undersegmentation_error": float(np.mean(
            [undersegmentation_error(lab, g) for lab, g in zip(labels, gt)]
        )),
    }


def reference_chain(workload: Workload, frames, n_per_stream=None, keep=0):
    """Label digests of the in-process ``StreamSegmenter`` chain.

    Stream ``s`` replays ``frames[s]`` cyclically for ``n_per_stream[s]``
    frames (one cycle by default). Returns ``(digests, segmenters,
    kept)``: ``digests[s][k]`` is the digest of the stream's ``k``-th
    frame and ``kept[s]`` holds the label maps of its first ``keep``.
    """
    from repro.core.streaming import StreamSegmenter

    params = workload.params()
    digests, segmenters, kept = [], [], []
    for s in range(workload.n_streams):
        n = workload.frames_per_stream if n_per_stream is None else n_per_stream[s]
        seg = StreamSegmenter(params, strict_shape=True)
        digests.append([])
        kept.append([])
        for k in range(n):
            labels = seg.process(frames[s][k % len(frames[s])]).labels
            digests[s].append(labels_digest(labels))
            if k < keep:
                kept[s].append(labels)
        segmenters.append(seg)
    return digests, segmenters, kept


def load_digests(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def save_digests(table: dict, path: Path) -> None:
    Path(path).write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
