"""Shared fixtures: small deterministic scenes and images.

Session-scoped where generation is expensive; tests must not mutate
fixture arrays (copy first).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SceneConfig, generate_scene


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "Regenerate tests/golden/*.json fixtures from the current "
            "implementation instead of comparing against them. Inspect "
            "the diff before committing — a changed hash means changed "
            "segmentation output."
        ),
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "kernel_threads(n): pin the ambient native-mt kernel thread count "
        "to n for the test (see tests/kernel_cases.py)",
    )


@pytest.fixture(autouse=True)
def _kernel_threads(request):
    """Apply the test's ``kernel_threads`` marker, if it has one."""
    marker = request.node.get_closest_marker("kernel_threads")
    if marker is None:
        yield
        return
    from repro.kernels.native_mt import thread_context

    with thread_context(marker.args[0]):
        yield


@pytest.fixture(scope="session")
def update_golden(request):
    """True when the run should rewrite golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def small_scene():
    """A 64x96 scene with clear regions — fast, easy workload."""
    return generate_scene(
        SceneConfig(height=64, width=96, n_regions=8, n_disks=2), seed=42
    )


@pytest.fixture(scope="session")
def hard_scene():
    """A harder scene: soft edges, texture, noise (metric dynamics)."""
    return generate_scene(
        SceneConfig(
            height=80,
            width=120,
            n_regions=10,
            n_disks=2,
            texture=4.0,
            noise=2.0,
            blur_sigma=1.2,
            min_color_separation=10.0,
        ),
        seed=13,
    )


@pytest.fixture(scope="session")
def rgb_image(small_scene):
    """A uint8 RGB image (the small scene's frame)."""
    return small_scene.image


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)
