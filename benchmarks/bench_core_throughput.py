"""Software kernel throughput: the pytest-benchmark timing suite proper.

Times the library's hot paths (color conversion, one fused PPA pass,
one CPA sweep, a full S-SLIC run) so performance regressions in the
vectorized kernels are visible. These are the kernels whose *relative*
costs drive the Table 1 breakdown.
"""

import numpy as np
import pytest

from repro.color import HwColorConverter, rgb_to_lab
from repro.core import (
    SlicParams,
    candidate_map,
    grid_geometry,
    initial_centers,
    slic,
    spatial_weight,
    sslic,
    tile_map,
)
from repro.core.assignment import PixelArrays, ppa_assign_reference
from repro.data import SceneConfig, generate_scene
from repro.kernels import get_backend


@pytest.fixture(scope="module")
def frame():
    scene = generate_scene(
        SceneConfig(height=240, width=320, n_regions=18, n_disks=3), seed=21
    )
    return scene.image


def test_throughput_color_conversion_reference(benchmark, frame):
    benchmark(rgb_to_lab, frame)


def test_throughput_color_conversion_lut(benchmark, frame):
    """The compiled fixed-point conversion (codes plus their decode) on
    the default backend."""
    converter = HwColorConverter()
    benchmark(get_backend().lab_from_codes, converter, frame)


def test_throughput_ppa_assignment_pass(benchmark, frame):
    lab = rgb_to_lab(frame)
    h, w = lab.shape[:2]
    k = 300
    centers = initial_centers(lab, k)
    gh, gw, _, _ = grid_geometry((h, w), k)
    tiles = tile_map((h, w), gh, gw)
    cands = candidate_map(gh, gw)
    pixels = PixelArrays(lab, tiles)
    idx = np.arange(pixels.n_pixels)
    weight = spatial_weight(10.0, float(np.sqrt(h * w / len(centers))))
    label_map = tiles.ravel().astype(np.int32)
    benchmark(
        ppa_assign_reference, pixels, idx, cands, centers, weight,
        labels_out=label_map,
    )


def test_throughput_slic_full_run(benchmark, frame):
    params = SlicParams(n_superpixels=300, max_iterations=5, convergence_threshold=0.0)
    benchmark.pedantic(lambda: slic(frame, params), rounds=3, iterations=1)


def test_throughput_sslic_full_run(benchmark, frame):
    params = SlicParams(
        n_superpixels=300, max_iterations=5, convergence_threshold=0.0,
        subsample_ratio=0.5,
    )
    benchmark.pedantic(lambda: sslic(frame, params), rounds=3, iterations=1)
