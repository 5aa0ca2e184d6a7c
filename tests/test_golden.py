"""Golden end-to-end fixtures: exact label hashes + metrics to 6 decimals.

Each case runs the full pipeline on a deterministic synthetic scene and
compares against ``tests/golden/<case>.json``:

* ``labels_sha256`` — SHA-256 of the int32 label map, so *any* change to
  segmentation output (kernel edits, iteration-order changes, datapath
  tweaks) trips the test;
* ``boundary_recall`` / ``undersegmentation_error`` — rounded to six
  decimals, a human-readable signal of whether a hash change is a
  regression or a wash.

When a change is intentional, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

then review the metric drift in the JSON diff before committing.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import FixedDatapath, SlicParams, run_segmentation
from repro.metrics import boundary_recall, undersegmentation_error

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Thread axis on the default backend (``native-mt`` wherever a compiler
#: exists): every golden case must hash identically with the kernels run
#: inline at one thread and on an odd-width pool — one fixture file per
#: case, because results are bit-identical at any thread count.
THREAD_AXIS = [1, 3]


@pytest.fixture(params=THREAD_AXIS, ids=["default", "native-mt"])
def n_threads(request):
    return request.param

CASES = {
    "small_ppa_half": dict(
        scene="small",
        params=SlicParams(
            n_superpixels=60, subsample_ratio=0.5, architecture="ppa"
        ),
    ),
    "small_cpa_full": dict(
        scene="small",
        params=SlicParams(
            n_superpixels=60, subsample_ratio=1.0, architecture="cpa"
        ),
    ),
    "small_ppa_checkerboard": dict(
        scene="small",
        params=SlicParams(
            n_superpixels=40,
            subsample_ratio=0.25,
            subset_strategy="checkerboard",
            compactness=25.0,
        ),
    ),
    "hard_ppa_quantized": dict(
        scene="hard",
        params=SlicParams(
            n_superpixels=80,
            subsample_ratio=0.5,
            datapath=FixedDatapath(bits=8),
        ),
    ),
}


def _labels_sha256(labels: np.ndarray) -> str:
    canonical = np.ascontiguousarray(labels.astype(np.int64))
    return hashlib.sha256(canonical.tobytes()).hexdigest()


def _measure(case: dict, scene, n_threads) -> dict:
    params = case["params"].with_(n_threads=n_threads)
    result = run_segmentation(scene.image, params)
    return {
        "labels_sha256": _labels_sha256(result.labels),
        "shape": list(result.labels.shape),
        "n_superpixels": int(result.n_superpixels),
        "iterations": int(result.iterations),
        # tolerance=1: the default (2 px) saturates recall at 1.0 on
        # these small scenes and carries no signal.
        "boundary_recall": round(
            boundary_recall(result.labels, scene.gt_labels, tolerance=1), 6
        ),
        "undersegmentation_error": round(
            undersegmentation_error(result.labels, scene.gt_labels), 6
        ),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, n_threads, small_scene, hard_scene, update_golden):
    case = CASES[name]
    scene = {"small": small_scene, "hard": hard_scene}[case["scene"]]
    got = _measure(case, scene, n_threads)
    path = GOLDEN_DIR / f"{name}.json"

    if update_golden and n_threads == 1:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2) + "\n")

    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing — generate it with "
            f"--update-golden and commit the result"
        )
    want = json.loads(path.read_text())

    # Metrics first: if the hash differs, the metric delta says how much
    # the output actually moved.
    for metric in ("boundary_recall", "undersegmentation_error"):
        assert got[metric] == pytest.approx(want[metric], abs=1e-6), (
            f"{name}: {metric} drifted from golden "
            f"{want[metric]} -> {got[metric]}"
        )
    assert got["shape"] == want["shape"]
    assert got["n_superpixels"] == want["n_superpixels"]
    assert got["iterations"] == want["iterations"]
    assert got["labels_sha256"] == want["labels_sha256"], (
        f"{name}: label map changed (metrics within tolerance — "
        f"if intentional, rerun with --update-golden and commit)"
    )


def test_golden_fixtures_are_committed():
    """Every case must have a fixture file in the repo."""
    missing = [n for n in CASES if not (GOLDEN_DIR / f"{n}.json").exists()]
    assert not missing, f"missing golden fixtures: {missing}"
