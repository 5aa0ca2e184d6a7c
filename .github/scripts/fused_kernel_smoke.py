"""Fused color, float color, sigma-accumulate, PPA and connectivity
identity smoke at VGA.

Each kernel must match the reference bit for bit on every available
backend, including native-mt at 2 threads. The float color entry,
``lab_from_rgb``, must equal ``rgb_to_lab`` bit for bit on uint8 and
float input; on native-mt that runs its three C band loops. The fused
PPA pass is checked on the float and 8-bit datapaths: chosen labels,
sigma partials and the label map written in place. The fused connectivity pass runs on the
float pass's label map at the engine's default ``min_size``. Run from
the repository root with ``PYTHONPATH=src``.
"""
import numpy as np
from repro.color.hw_convert import HwColorConverter
from repro.data import SceneConfig, generate_scene
from repro.kernels import available_backends, get_backend
from repro.kernels import native_mt, reference
img = generate_scene(SceneConfig(height=480, width=640), seed=5).image
conv = HwColorConverter()
want_lab, want_codes = reference.lab_from_codes(conv, img)
labels = (
    np.random.default_rng(11)
    .integers(0, 300, size=480 * 640)
    .astype(np.int32)
)
lab_rows = np.ascontiguousarray(want_lab.reshape(-1, 3))
want_s, want_c = reference.sigma_accumulate(
    labels, 300, 640, lab_flat=lab_rows
)
for name in available_backends():
    mod = get_backend(name)
    lab, codes = mod.lab_from_codes(conv, img)
    assert np.array_equal(lab, want_lab), f"{name}: fused lab"
    assert np.array_equal(codes, want_codes), f"{name}: fused codes"
    s, c = mod.sigma_accumulate(labels, 300, 640, lab_flat=lab_rows)
    assert np.array_equal(s, want_s), f"{name}: sigma sums"
    assert np.array_equal(c, want_c), f"{name}: sigma counts"
if "native-mt" in available_backends():
    lab, codes = native_mt.lab_from_codes(conv, img, n_threads=2)
    assert np.array_equal(lab, want_lab), "mt@2t fused lab"
    assert np.array_equal(codes, want_codes), "mt@2t fused codes"
    s, c = native_mt.sigma_accumulate(
        labels, 300, 640, lab_flat=lab_rows, n_threads=2
    )
    assert np.array_equal(s, want_s), "mt@2t sigma sums"
    assert np.array_equal(c, want_c), "mt@2t sigma counts"
from repro.color import rgb_to_lab
rgb_runs = {n: get_backend(n).lab_from_rgb for n in available_backends()}
if "native-mt" in available_backends():
    rgb_runs["mt@2t"] = lambda x: native_mt.lab_from_rgb(x, n_threads=2)
for image in (img, img / 255.0):
    want_bits = rgb_to_lab(image).view(np.uint64)
    for name, fn in rgb_runs.items():
        assert np.array_equal(fn(image).view(np.uint64), want_bits), (
            f"{name}: {image.dtype} lab_from_rgb"
        )
from repro.core import (
    FixedDatapath, candidate_map, grid_geometry, initial_centers,
    spatial_weight, tile_map,
)
from repro.core.assignment import PixelArrays
from repro.core.subsampling import SubsetSchedule
lab = rgb_to_lab(img)
gh, gw, _, _ = grid_geometry((480, 640), 300)
tiles, cands = tile_map((480, 640), gh, gw), candidate_map(gh, gw)
centers = initial_centers(lab, 300)
grid_s = float(np.sqrt(480 * 640 / len(centers)))
weight = spatial_weight(10.0, grid_s)
idx = SubsetSchedule((480, 640), 4).subset(1)
dp = FixedDatapath(bits=8)
datapaths = {
    "float": (PixelArrays(lab, tiles), {}),
    "q8": (
        PixelArrays(lab, tiles, datapath=dp,
                    codes=dp.encode_image(lab)),
        {"compactness": 10.0, "grid_s": grid_s},
    ),
}
runs = {n: get_backend(n).ppa_assign for n in available_backends()}
if "native-mt" in available_backends():
    runs["mt@2t"] = lambda *a, **k: native_mt.ppa_assign(
        *a, n_threads=2, **k
    )
def ppa(fn, pixels, kw):
    label_map = tiles.ravel().astype(np.int32)
    out = fn(pixels, idx, cands, centers, weight,
             labels_out=label_map, **kw)
    return (*out, label_map)
for dp_name, (pixels, kw) in datapaths.items():
    want = ppa(reference.ppa_assign, pixels, kw)
    for name, fn in runs.items():
        got = ppa(fn, pixels, kw)
        for field, a, b in zip(
            ("chosen", "sums", "counts", "labels_out"), got, want
        ):
            assert np.array_equal(a, b), f"{name}: {dp_name} {field}"
# Connectivity on the float pass's label map, at SlicParams' default
# min_size_factor of 0.25 of the nominal superpixel area.
conn_map = ppa(reference.ppa_assign, *datapaths["float"])[3].reshape(480, 640)
min_size = int(0.25 * grid_s * grid_s)
want = reference.enforce_connectivity(conn_map, min_size)
conn_runs = {
    n: get_backend(n).enforce_connectivity for n in available_backends()
}
if "native-mt" in available_backends():
    conn_runs["mt@2t"] = lambda *a: native_mt.enforce_connectivity(
        *a, n_threads=2
    )
for name, fn in conn_runs.items():
    assert np.array_equal(fn(conn_map, min_size), want), f"{name}: connectivity"
