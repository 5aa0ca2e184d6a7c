"""Connectivity enforcement — the final SLIC post-processing step.

Section 2: "At convergence, a final step is performed to enforce the
connectivity, ensuring that any stray pixels that may still be disjoint are
assigned to the closest large SP."

The pass:

1. find 4-connected components of the label map (two-pass union-find,
   vectorized per row);
2. build the component adjacency graph once (shared-border lengths);
3. greedily merge every component smaller than ``min_size`` into the
   neighbor with which it shares the longest border, processing small
   components in increasing size order on the *graph* (no image-domain
   recomputation), chaining through union-find so a small component merged
   into another small one ends up wherever that one goes;
4. each pixel takes the superpixel label of its component's final root, so
   labels remain comparable to the cluster centers.

:func:`enforce_connectivity` dispatches the whole pass through
:mod:`repro.kernels` as one contract entry.
:func:`enforce_connectivity_reference` is its numpy body on the scalar
loops here (the spec), and ``native-mt`` replaces it with one compiled
call. Components are numbered by first appearance — the minimal run id
of each component — so both backends merge in the same order and the
labels match bit for bit. :func:`connected_components` is the reference
labeling itself.
"""

from __future__ import annotations

import operator

import numpy as np

from ..errors import ConfigurationError, ImageError
from ..types import validate_label_map

__all__ = [
    "check_connectivity_args",
    "connected_components",
    "connected_components_reference",
    "enforce_connectivity",
    "enforce_connectivity_reference",
    "merge_small_reference",
]

#: Largest label the int32 output map can hold.
_LABEL_MAX = np.iinfo(np.int32).max


class _UnionFind:
    """Array-based union-find with path halving (plain ints, no recursion)."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    def union_into(self, child: int, target: int) -> None:
        """Directed union: ``child``'s root now points at ``target``'s root."""
        rc, rt = self.find(child), self.find(target)
        if rc != rt:
            self.parent[rc] = rt


def _run_ids(labels: np.ndarray):
    """Provisional run decomposition: id of each horizontal run of equal
    labels, numbered in raster order. Returns ``(run_id, n_runs)``."""
    h, w = labels.shape
    same_left = np.zeros((h, w), dtype=bool)
    same_left[:, 1:] = labels[:, 1:] == labels[:, :-1]
    run_start = ~same_left
    run_id = np.cumsum(run_start.ravel()).reshape(h, w) - 1
    return run_id, int(run_id[-1, -1]) + 1


def _resolve_roots(parent: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Union-find roots of ``idx`` via vectorized pointer jumping.

    Read-only on ``parent`` (no path compression) — used to replace the
    per-element ``uf.find`` generator loops on the hot path.
    """
    roots = parent[idx]
    while True:
        hop = parent[roots]
        if np.array_equal(hop, roots):
            return roots
        roots = hop


def connected_components_reference(labels: np.ndarray):
    """4-connected components of a label map (sequential union-find).

    Returns ``(components, n_components)`` where ``components`` is an
    (H, W) int array of dense component ids, numbered by first
    appearance in raster order.
    """
    labels = validate_label_map(labels)
    run_id, n_runs = _run_ids(labels)
    uf = _UnionFind(n_runs)
    # Vertical unions: where a pixel matches the one above, union the runs.
    same_up = labels[1:, :] == labels[:-1, :]
    if same_up.any():
        up_pairs = np.stack(
            [run_id[1:, :][same_up], run_id[:-1, :][same_up]], axis=1
        )
        up_pairs = np.unique(up_pairs, axis=0)
        for a, b in up_pairs:
            uf.union_into(int(a), int(b))
    roots = np.fromiter(
        (uf.find(i) for i in range(n_runs)), dtype=np.int64, count=n_runs
    )
    # Canonical dense renumbering by each component's minimal run id
    # (first appearance in raster order) — independent of which run the
    # union-find happened to leave as root, so optimized backends can
    # reproduce it exactly.
    comp_min = np.full(n_runs, n_runs, dtype=np.int64)
    np.minimum.at(comp_min, roots, np.arange(n_runs, dtype=np.int64))
    uniq, dense = np.unique(comp_min[roots], return_inverse=True)
    components = dense[run_id]
    return components.astype(np.int32), int(len(uniq))


#: The public labeling is the reference union-find; the property tests
#: use it as their oracle.
connected_components = connected_components_reference


def merge_small_reference(
    sizes: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    dst: np.ndarray,
    border_len: np.ndarray,
    min_size: int,
    order: np.ndarray,
) -> np.ndarray:
    """The greedy small-component merge walk, pure scalar semantics.

    Inputs are the component adjacency graph in CSR form (``starts``,
    ``ends``, ``dst``, ``border_len``), the component ``sizes``, and the
    ``order`` in which to process small components (increasing size,
    stable). Returns the int64 union-find root of every component after
    all merges — the kernel contract every backend must match bit for
    bit, including the tie rule (longest shared border wins, ties to the
    lowest neighbor *component id*).
    """
    n_comps = len(sizes)
    uf = _UnionFind(n_comps)
    merged_size = sizes.astype(np.int64).copy()
    for c in order:
        c = int(c)
        root_c = uf.find(c)
        if merged_size[root_c] >= min_size:
            continue
        lo, hi = int(starts[c]), int(ends[c])
        if lo == hi:
            continue  # isolated (whole image is one label)
        best_w = -1
        best_nb = -1
        best_root = -1
        for e in range(lo, hi):
            nb = int(dst[e])
            root_nb = uf.find(nb)
            if root_nb == root_c:
                continue  # already merged into the same component
            w = int(border_len[e])
            if w > best_w or (w == best_w and nb < best_nb):
                best_w, best_nb, best_root = w, nb, root_nb
        if best_root < 0:
            continue
        uf.union_into(root_c, best_root)
        new_root = uf.find(best_root)
        merged_size[new_root] = merged_size[root_c] + merged_size[best_root]
    return _resolve_roots(uf.parent, np.arange(n_comps, dtype=np.int64))


def check_connectivity_args(labels: np.ndarray, min_size):
    """Validate ``enforce_connectivity`` inputs before any kernel runs.

    Returns ``(labels, min_size)``: the map as a C-contiguous int32 array
    (``labels`` itself when it already is one) and ``min_size`` as an int
    clamped to ``h*w + 1`` — no component is larger than the frame, so
    the clamp never changes which components count as small. Raises
    :class:`ImageError` for a malformed map or a label the int32 output
    cannot hold (checked before the cast, which would wrap it), and
    :class:`ConfigurationError` when ``min_size`` is not an integer.
    """
    labels = validate_label_map(labels)
    if labels.max() > _LABEL_MAX:
        raise ImageError(
            f"label map contains label {labels.max()} > {_LABEL_MAX}; "
            "connectivity output is int32"
        )
    try:
        min_size = operator.index(min_size)
    except TypeError:
        raise ConfigurationError(
            f"min_size must be an integer, got {type(min_size).__name__}"
        ) from None
    labels = np.ascontiguousarray(labels, dtype=np.int32)
    return labels, min(min_size, labels.size + 1)


def enforce_connectivity_reference(labels: np.ndarray, min_size,
                                   n_threads=None):
    """The connectivity pass on the scalar union-find and merge walk —
    the spec every backend's ``enforce_connectivity`` must match.

    :func:`connected_components_reference` labels the components in
    first-appearance order, the adjacency graph and the processing order
    are built once in numpy, and :func:`merge_small_reference` walks
    them. The spec runs serially; ``n_threads`` is accepted for the
    kernel contract and ignored.
    """
    labels, min_size = check_connectivity_args(labels, min_size)
    if min_size <= 1:
        return labels.copy()
    comps, n_comps = connected_components_reference(labels)
    if n_comps == 1:
        return labels.copy()
    flat_c = comps.ravel()
    sizes = np.bincount(flat_c, minlength=n_comps).astype(np.int64)

    # Superpixel label of each component (components are label-pure):
    # take the label at each component's first pixel.
    first_idx = np.zeros(n_comps, dtype=np.int64)
    first_idx[flat_c[::-1]] = np.arange(flat_c.size - 1, -1, -1)
    comp_label = labels.ravel()[first_idx]

    # Adjacency with shared-border weights, built once. Two or more
    # components on a connected grid always share a border, so there is
    # at least one pair.
    horiz = comps[:, 1:] != comps[:, :-1]
    vert = comps[1:, :] != comps[:-1, :]
    pairs = np.concatenate(
        [
            np.stack([comps[:, 1:][horiz], comps[:, :-1][horiz]], axis=1),
            np.stack([comps[1:, :][vert], comps[:-1, :][vert]], axis=1),
        ],
        axis=0,
    )
    both = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    fused = both[:, 0].astype(np.int64) * n_comps + both[:, 1]
    fused_unique, border_len = np.unique(fused, return_counts=True)
    src = (fused_unique // n_comps).astype(np.int64)
    dst = (fused_unique % n_comps).astype(np.int64)
    # CSR-style neighbor slices per source component.
    csr_order = np.argsort(src, kind="stable")
    src, dst = src[csr_order], dst[csr_order]
    border_len = border_len[csr_order].astype(np.int64)
    starts = np.searchsorted(src, np.arange(n_comps))
    ends = np.searchsorted(src, np.arange(n_comps) + 1)

    # Process small components in increasing size order: tiny strays are
    # absorbed first, and a small component that grew past min_size by
    # absorbing others is skipped when its turn comes. Components already
    # large enough never start a merge, so only the small ones are walked.
    size_order = np.argsort(sizes, kind="stable")
    small = size_order[sizes[size_order] < min_size]
    final_root = merge_small_reference(
        sizes, starts, ends, dst, border_len, min_size, small
    )
    return comp_label[final_root][comps].astype(np.int32)


def enforce_connectivity(labels: np.ndarray, min_size: int) -> np.ndarray:
    """Absorb connected fragments smaller than ``min_size`` pixels.

    See module docstring for the algorithm. The returned map reuses the
    superpixel labels of the absorbing components; a lone image smaller
    than ``min_size`` is returned unchanged (nothing to merge into).
    Runs on the kernel backend that ``REPRO_KERNEL_BACKEND`` names, else
    ``auto``; both backends match the reference bit for bit, and both
    validate their input with :func:`check_connectivity_args` first.

    No-op semantics, shared by every early return and the main path:
    when nothing merges, the output is exactly ``labels`` (as a fresh
    int32 copy). This is not an approximation — components are
    label-pure, so an identity merge relabels each pixel with its own
    component's superpixel label — and it holds on every degenerate
    shape (uniform maps, 1×1, single rows); the tests lock it in.
    """
    from ..kernels import get_backend  # lazy: kernels imports this module

    return get_backend().enforce_connectivity(labels, min_size)
