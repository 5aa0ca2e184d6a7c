"""repro — S-SLIC superpixels and the DAC'16 accelerator model.

Reproduction of Hong et al., "A Real-time Energy-Efficient Superpixel
Hardware Accelerator for Mobile Computer Vision Applications" (DAC 2016).

Quick start
-----------
>>> import numpy as np
>>> from repro import sslic, generate_scene
>>> scene = generate_scene(seed=1)
>>> result = sslic(scene.image, n_superpixels=150)
>>> result.labels.shape == scene.image.shape[:2]
True

Subpackages
-----------
``repro.core``
    SLIC / S-SLIC algorithms (the paper's contribution).
``repro.color``
    Reference CIELAB conversion and the LUT hardware pipeline, with the
    Q-format fixed-point model its tables use.
``repro.metrics``
    Undersegmentation error, boundary recall, ASA, compactness, ...
``repro.data``
    Synthetic ground-truth corpus, PPM I/O, optional BSDS loader.
``repro.hw``
    Accelerator timing/energy/area models and the CPA/PPA analysis.
``repro.baselines``
    GPU platform models (Table 5), gSLIC, Preemptive SLIC.
``repro.analysis``
    Per-table/figure experiment drivers and DSE sweeps.
``repro.viz``
    Boundary overlays and ASCII plots.
``repro.obs``
    Unified instrumentation: tracing spans, metrics, JSONL run telemetry.
``repro.parallel``
    Batch/video execution engine: process-pool sharding with per-stream
    warm starts and bit-identical-to-serial results.
``repro.resilience``
    Hardened execution: deterministic fault injection, retry policies,
    checkpoint journals, and the soft-error quality model.
"""

from .version import __version__
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DatasetError,
    FixedPointError,
    HardwareModelError,
    ImageError,
    MetricError,
    ReproError,
)
from .types import HD_1080, HD_720, VGA, Resolution
from .core import (
    FixedDatapath,
    SegmentationResult,
    SlicParams,
    slic,
    sslic,
)
from .data import Scene, SceneConfig, SyntheticDataset, generate_scene
from .metrics import (
    achievable_segmentation_accuracy,
    boundary_recall,
    undersegmentation_error,
)
from .hw import AcceleratorConfig, AcceleratorModel, ClusterWays
from .baselines import gslic, preemptive_slic, preemptive_sslic
from .obs import JsonlSink, RunManifest, Tracer
from .errors import CheckpointError, ResilienceError, StreamError
from .parallel import BatchResult, ParallelRunner
from .resilience import FaultPlan, RetryPolicy

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "ImageError",
    "FixedPointError",
    "DatasetError",
    "MetricError",
    "HardwareModelError",
    "ConvergenceError",
    "StreamError",
    "ResilienceError",
    "CheckpointError",
    # types
    "Resolution",
    "HD_1080",
    "HD_720",
    "VGA",
    # core
    "slic",
    "sslic",
    "SlicParams",
    "SegmentationResult",
    "FixedDatapath",
    # data
    "Scene",
    "SceneConfig",
    "SyntheticDataset",
    "generate_scene",
    # metrics
    "undersegmentation_error",
    "boundary_recall",
    "achievable_segmentation_accuracy",
    # hw
    "AcceleratorModel",
    "AcceleratorConfig",
    "ClusterWays",
    # baselines
    "gslic",
    "preemptive_slic",
    "preemptive_sslic",
    # obs
    "Tracer",
    "JsonlSink",
    "RunManifest",
    # parallel
    "ParallelRunner",
    "BatchResult",
    # resilience
    "FaultPlan",
    "RetryPolicy",
]
