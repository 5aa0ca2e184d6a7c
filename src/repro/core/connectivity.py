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

``connected_components`` dispatches through :mod:`repro.kernels` (the
pure-Python union-find here is the ``reference`` backend; the optimized
backends use a loop-free min-propagation pass or the native two-pass C
kernel). All renumber components by first appearance — the minimal run
id of each component — so backends are interchangeable bit for bit.

For warm-started video, :class:`ConnectivityState` adds an incremental
path: the label map is split into row bands ("tiles"), per-band run
structures are cached, and a new frame rebuilds only the bands whose
labels actually changed since the previous frame before the (cheap)
global union-find resolve. The state is a pure cache — dropping it, or
feeding it frames from the wrong stream, can never change the output,
only the ``tiles_resolved`` telemetry and the speed — which is what
keeps checkpoint replay and worker-pool scheduling bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..types import validate_label_map

__all__ = [
    "ConnectivityState",
    "connected_components",
    "connected_components_reference",
    "enforce_connectivity",
    "merge_small_reference",
]


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


def _min_propagate(parent: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Resolve union pairs ``(a, b)`` by iterative min-label propagation.

    Repeated minimum-scatter plus pointer jumping until every pair
    agrees; converges in O(log n) rounds. On return ``parent[i]`` is the
    minimal element of ``i``'s component — the canonical representative
    the reference renumbers by.
    """
    while True:
        lo = np.minimum(parent[a], parent[b])
        np.minimum.at(parent, a, lo)
        np.minimum.at(parent, b, lo)
        while True:  # pointer jumping to full compression
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        if np.array_equal(parent[a], parent[b]):
            break
    return parent


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


def connected_components(labels: np.ndarray, backend: str | None = None):
    """4-connected components, dispatched through :mod:`repro.kernels`.

    ``backend`` selects the kernel backend by name (``None`` honours the
    ``REPRO_KERNEL_BACKEND`` environment variable, then ``auto``).
    """
    from ..kernels import get_backend  # lazy: kernels imports this module

    return get_backend(backend).connected_components(labels)


def _resolve_runs(
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    n_runs: int,
    backend: str | None = None,
):
    """Dense first-appearance component ids per run: ``(dense, n_comps)``.

    The union-find resolve behind the incremental path. The native-mt
    backend uses the C ``ccl_resolve`` entry point; everything else uses
    :func:`_min_propagate`. Both renumber components ascending by
    minimal run id, so the choice never changes the result.
    """
    from ..errors import ConfigurationError
    from ..kernels import resolve_name  # lazy: kernels imports this module

    if resolve_name(backend) == "native-mt":
        from ..kernels import native

        try:
            return native.resolve_runs(pair_a, pair_b, n_runs)
        except ConfigurationError:
            pass  # compiler vanished since resolve_name probed: fall back
    parent = np.arange(n_runs, dtype=np.int64)
    if len(pair_a):
        parent = _min_propagate(parent, pair_a, pair_b)
    uniq, dense = np.unique(parent, return_inverse=True)
    return dense.astype(np.int64), int(len(uniq))


class ConnectivityState:
    """Per-stream cache enabling incremental connectivity enforcement.

    Rows are grouped into bands of ``band_rows`` (the "tiles" of the
    ``connectivity.tiles_resolved`` counter). For each band the run
    decomposition and intra-band vertical adjacencies of the previous
    frame's label map are kept; a new frame recomputes them only for
    bands whose labels changed (band-local runs + prefix-sum offsets
    equal the global decomposition because runs never cross rows). A
    frame whose labels are byte-identical to the previous one returns
    the cached output without resolving anything.

    The state is a *pure cache*: every code path produces exactly the
    labels the stateless path would, so callers may drop, reset, or
    cold-start it at any point (checkpoint resume, worker recycling)
    without affecting bit-identity.
    """

    def __init__(self, band_rows: int = 64):
        self.band_rows = max(1, int(band_rows))
        self.shape: tuple | None = None
        self.prev_labels: np.ndarray | None = None
        self.prev_output: np.ndarray | None = None
        self._min_size: int | None = None
        self._band_runs: list | None = None
        #: Telemetry for the last call: bands re-resolved / total bands.
        self.tiles_resolved = 0
        self.tiles_total = 0

    def _bands(self, h: int) -> list:
        step = self.band_rows
        return [(y, min(y + step, h)) for y in range(0, h, step)]

    def reset(self) -> None:
        """Drop all cached frame state (stream restart / reanchor)."""
        self.shape = None
        self.prev_labels = None
        self.prev_output = None
        self._min_size = None
        self._band_runs = None
        self.tiles_resolved = 0
        self.tiles_total = 0

    def components(
        self,
        labels: np.ndarray,
        min_size: int,
        backend: str | None = None,
    ):
        """Incremental ``(comps, n_comps, shortcut)`` for ``labels``.

        ``shortcut`` is the finished connectivity output when the frame
        is byte-identical to the previous one and was enforced with the
        same ``min_size`` (``comps`` is ``None`` in that case);
        otherwise ``None`` and the caller proceeds with the returned
        component map.
        """
        h, w = labels.shape
        bands = self._bands(h)
        self.tiles_total = len(bands)
        if self.shape != labels.shape or self._band_runs is None:
            self.shape = labels.shape
            self._band_runs = [None] * len(bands)
            dirty = [True] * len(bands)
        else:
            prev = self.prev_labels
            dirty = [
                self._band_runs[i] is None
                or not np.array_equal(labels[y0:y1], prev[y0:y1])
                for i, (y0, y1) in enumerate(bands)
            ]
        self.tiles_resolved = int(sum(dirty))
        if (
            self.tiles_resolved == 0
            and self.prev_output is not None
            and self._min_size == int(min_size)
        ):
            return None, 0, self.prev_output.copy()
        # Disarm the shortcut for any frame that takes the resolve path:
        # only a *completed* enforce_connectivity re-arms it via
        # record_output(). Without this, a merge that raises mid-way and
        # is retried with the same state would see tiles_resolved == 0
        # (prev_labels below already matches) next to a prev_output from
        # an older, different label map — and return stale output.
        self.prev_output = None
        for i, (y0, y1) in enumerate(bands):
            if not dirty[i]:
                continue
            band = labels[y0:y1]
            rid, nr = _run_ids(band)
            same_up = band[1:, :] == band[:-1, :]
            self._band_runs[i] = (
                rid, nr, rid[1:, :][same_up], rid[:-1, :][same_up]
            )
        run_global = np.empty((h, w), dtype=np.int64)
        offsets = []
        n_runs = 0
        for i, (y0, y1) in enumerate(bands):
            rid, nr, _, _ = self._band_runs[i]
            run_global[y0:y1] = rid
            run_global[y0:y1] += n_runs
            offsets.append(n_runs)
            n_runs += nr
        pair_a, pair_b = [], []
        for i, (y0, y1) in enumerate(bands):
            _, _, pa, pb = self._band_runs[i]
            if len(pa):
                pair_a.append(pa + offsets[i])
                pair_b.append(pb + offsets[i])
            if y0 > 0:  # seam row against the band above
                same = labels[y0] == labels[y0 - 1]
                if same.any():
                    pair_a.append(run_global[y0][same])
                    pair_b.append(run_global[y0 - 1][same])
        empty = np.empty(0, dtype=np.int64)
        dense, n_comps = _resolve_runs(
            np.concatenate(pair_a) if pair_a else empty,
            np.concatenate(pair_b) if pair_b else empty,
            n_runs,
            backend=backend,
        )
        self.prev_labels = labels.copy()
        return dense[run_global].astype(np.int32), n_comps, None

    def record_output(self, min_size: int, output: np.ndarray) -> None:
        """Remember the finished output for the identical-frame shortcut."""
        self._min_size = int(min_size)
        self.prev_output = output.copy()


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


def enforce_connectivity(
    labels: np.ndarray,
    min_size: int,
    backend: str | None = None,
    state: ConnectivityState | None = None,
) -> np.ndarray:
    """Absorb connected fragments smaller than ``min_size`` pixels.

    See module docstring for the algorithm. The returned map reuses the
    superpixel labels of the absorbing components; a lone image smaller
    than ``min_size`` is returned unchanged (nothing to merge into).
    The greedy merge walk dispatches through :mod:`repro.kernels`
    (``merge_small``); all backends match the reference bit for bit.

    No-op semantics, shared by every early return and the main path:
    when nothing merges, the output is exactly ``labels`` (as a fresh
    int32 copy). This is not an approximation — components are
    label-pure, so an identity merge relabels each pixel with its own
    component's superpixel label — and it holds on every degenerate
    shape (uniform maps, 1×1, single rows); the tests lock it in.

    ``state`` (a :class:`ConnectivityState`) enables the incremental
    video path: only row bands whose labels changed since the previous
    frame are re-resolved, and an unchanged frame short-circuits to the
    cached output. Results are bit-identical with or without a state.
    """
    from ..kernels import get_backend  # lazy: kernels imports this module

    labels = validate_label_map(labels).astype(np.int32)
    if min_size <= 1:
        # Pure no-op: leave the state untouched (its caches still match
        # the last real resolve) but zero the telemetry for this call.
        if state is not None:
            state.tiles_resolved = 0
            state.tiles_total = len(state._bands(labels.shape[0]))
        return labels.copy()
    if state is not None:
        comps, n_comps, shortcut = state.components(
            labels, min_size, backend=backend
        )
        if shortcut is not None:
            return shortcut
    else:
        comps, n_comps = connected_components(labels, backend=backend)
    if n_comps == 1:
        out = labels.copy()
        if state is not None:
            state.record_output(min_size, out)
        return out
    flat_c = comps.ravel()
    sizes = np.bincount(flat_c, minlength=n_comps).astype(np.int64)

    # Superpixel label of each component (components are label-pure):
    # take the label at each component's first pixel.
    first_idx = np.zeros(n_comps, dtype=np.int64)
    first_idx[flat_c[::-1]] = np.arange(flat_c.size - 1, -1, -1)
    comp_label = labels.ravel()[first_idx]

    # Adjacency with shared-border weights, built once.
    horiz = comps[:, 1:] != comps[:, :-1]
    vert = comps[1:, :] != comps[:-1, :]
    pairs = np.concatenate(
        [
            np.stack([comps[:, 1:][horiz], comps[:, :-1][horiz]], axis=1),
            np.stack([comps[1:, :][vert], comps[:-1, :][vert]], axis=1),
        ],
        axis=0,
    )
    if len(pairs) == 0:
        # Unreachable for n_comps > 1 on a connected grid (two or more
        # components always share a boundary), but kept as a defensive
        # no-op with the same semantics as the paths above.
        out = labels.copy()
        if state is not None:
            state.record_output(min_size, out)
        return out
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
    final_root = get_backend(backend).merge_small(
        sizes, starts, ends, dst, border_len, min_size, small
    )
    out = comp_label[final_root][comps].astype(np.int32)
    if state is not None:
        state.record_output(min_size, out)
    return out
