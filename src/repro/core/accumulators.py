"""Sigma accumulators and the center-update step.

The accelerator's Cluster Update Unit keeps one *sigma register* per
superpixel: "Each sigma register holds six fields: the accumulated L, a, and
b color information, the accumulated x, y location information, and the
number of pixels assigned to the associated SP" (Section 4.3). After a pass,
the Center Update Unit divides each field by the count to produce the new
center.

:class:`SigmaAccumulator` is the software model of those registers; it
accepts batches (vectorized ``bincount``) rather than single pixels, but the
arithmetic — per-field sums plus a final division — is identical.

:func:`sigma_accumulate_reference` is the canonical form of the
``sigma_accumulate`` kernel contract entry: one pass producing the
partial sums/counts for a batch directly from the flat image arrays,
with x/y derived from the flat pixel index — no (M, 5) values matrix.
The ``native-mt`` backend's C loops must reproduce it bit for bit.
The engine calls the ``sigma_accumulate`` entry of its backend module
and adds the partials to the registers with :meth:`SigmaAccumulator.fold`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..types import check_index_range

__all__ = [
    "SigmaAccumulator",
    "center_movement",
    "check_sigma_args",
    "sigma_accumulate_reference",
]


def check_sigma_args(
    labels, n_clusters, width, idx, lab_flat=None, codes_flat=None
):
    """Validate one ``sigma_accumulate`` call before any backend folds it.

    Every backend runs this first, so all of them reject the same bad
    input with :class:`ConfigurationError` — a compiled kernel would
    otherwise skip (or read past) an out-of-range entry: labels must be a
    1-D vector in ``[0, n_clusters)``, and the batch must select rows of
    the source (``codes_flat``, else ``lab_flat``), either through
    ``idx`` (same length as ``labels``, entries in ``[0, n_rows)``) or as
    its first ``len(labels)`` rows. ``width`` must be at least 1: the C
    loop divides by it, and for a negative width C's truncating ``%``
    and numpy's flooring one give different x/y sums. Returns
    ``(labels, idx)`` as validated arrays.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    n_rows = len(codes_flat if codes_flat is not None else lab_flat)
    labels = check_index_range(labels, n_clusters, "labels")
    if labels.ndim != 1:
        raise ConfigurationError(
            f"labels must be 1-D, got shape {labels.shape}"
        )
    if idx is None:
        if len(labels) > n_rows:
            raise ConfigurationError(
                f"{len(labels)} labels exceed the {n_rows} source rows"
            )
        return labels, None
    idx = check_index_range(idx, n_rows, "idx")
    if idx.shape != labels.shape:
        raise ConfigurationError(
            f"idx shape {idx.shape} does not match labels {labels.shape}"
        )
    return labels, idx


def sigma_accumulate_reference(
    labels,
    n_clusters,
    width,
    lab_flat=None,
    codes_flat=None,
    encoding=None,
    idx=None,
    n_threads=None,
):
    """Canonical one-pass sigma partial accumulation.

    The spec runs serially; ``n_threads`` is accepted for the kernel
    contract and ignored.

    Parameters
    ----------
    labels:
        (M,) assigned cluster per batch entry.
    n_clusters:
        Register count K.
    width:
        Image width; entry ``i``'s coordinates are ``x = i % width``,
        ``y = i // width`` (row-major flat indexing).
    lab_flat:
        (N, 3) float Lab rows (reference datapath), or ``None``.
    codes_flat / encoding:
        (N, 3) integer channel codes plus their
        :class:`~repro.color.hw_convert.LabEncoding` (fixed datapath);
        color fields are the *decoded* code values
        (``encoding.decode``), so center means stay in real Lab units
        while reflecting the code quantization the hardware accumulates.
    idx:
        (M,) flat pixel indices selecting the batch, or ``None`` for
        "every row in order" (``idx[j] == j``).

    Returns ``(sums, counts)``: the (K, 5) float64 field sums and (K,)
    int64 member counts accumulated from zero — precisely the values
    :meth:`SigmaAccumulator.add` would fold in for the equivalent
    (M, 5) values matrix, since each field's sum is the same
    ``np.bincount`` fold.
    """
    labels, idx = check_sigma_args(
        labels, n_clusters, width, idx, lab_flat, codes_flat
    )
    if idx is None:
        idx = np.arange(len(labels), dtype=np.int64)
    else:
        idx = np.asarray(idx, dtype=np.int64)
    vals = np.empty((len(idx), 5), dtype=np.float64)
    if codes_flat is not None:
        vals[:, 0:3] = encoding.decode(np.asarray(codes_flat)[idx])
    else:
        vals[:, 0:3] = np.asarray(lab_flat, dtype=np.float64)[idx]
    vals[:, 3] = idx % width
    vals[:, 4] = idx // width
    counts = np.bincount(labels, minlength=n_clusters).astype(
        np.int64, copy=False
    )
    sums = np.empty((n_clusters, 5), dtype=np.float64)
    for f in range(5):
        sums[:, f] = np.bincount(
            labels, weights=vals[:, f], minlength=n_clusters
        )
    return sums, counts


class SigmaAccumulator:
    """Per-cluster sums of (L, a, b, x, y) and member counts.

    The six fields of the hardware sigma register. Sums are float64, which
    represents integer code sums exactly up to 2**53 — far beyond any
    frame-sized accumulation.
    """

    def __init__(self, n_clusters: int):
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.sums = np.zeros((n_clusters, 5), dtype=np.float64)
        self.counts = np.zeros(n_clusters, dtype=np.int64)

    def reset(self) -> None:
        """Clear all registers (start of a pass)."""
        self.sums.fill(0.0)
        self.counts.fill(0)

    def add(self, values5: np.ndarray, labels: np.ndarray) -> None:
        """Accumulate a batch: ``values5`` is (M, 5), ``labels`` is (M,).

        Each row's five fields are added to its label's register and the
        label's count increments — the six additions per pixel the paper's
        adder unit performs.
        """
        values5 = np.asarray(values5, dtype=np.float64)
        labels = np.asarray(labels)
        if values5.ndim != 2 or values5.shape[1] != 5:
            raise ConfigurationError(f"values5 must be (M, 5), got {values5.shape}")
        if labels.shape != (values5.shape[0],):
            raise ConfigurationError(
                f"labels shape {labels.shape} does not match values {values5.shape}"
            )
        if len(labels) == 0:
            return
        self.counts += np.bincount(labels, minlength=self.n_clusters)
        for f in range(5):
            self.sums[:, f] += np.bincount(
                labels, weights=values5[:, f], minlength=self.n_clusters
            )

    def fold(self, sums: np.ndarray, counts: np.ndarray) -> None:
        """Add zero-based kernel partials into the registers with ``+=``.

        The partials come from ``sigma_accumulate`` or the fused
        ``ppa_assign`` pass, which returns the subset's partials with its
        assignment. Folding ``sigma_accumulate``'s partials is
        bitwise-equal to :meth:`add` on the equivalent (M, 5) values
        matrix, without ever materializing it.
        """
        self.sums += sums
        self.counts += counts

    def compute_centers(self, fallback: np.ndarray) -> np.ndarray:
        """The Center Update Unit's division pass.

        Returns (K, 5) new centers: per-field mean where a cluster received
        members, the ``fallback`` row otherwise (a cluster starved by the
        current subset keeps its previous center — required for S-SLIC,
        where a sub-iteration touches only 1/n of the pixels).
        """
        fallback = np.asarray(fallback, dtype=np.float64)
        if fallback.shape != (self.n_clusters, 5):
            raise ConfigurationError(
                f"fallback must be ({self.n_clusters}, 5), got {fallback.shape}"
            )
        out = fallback.copy()
        got = self.counts > 0
        out[got] = self.sums[got] / self.counts[got, None]
        return out


def center_movement(old: np.ndarray, new: np.ndarray) -> float:
    """Mean spatial (x, y) L2 movement between two center arrays, in pixels.

    The paper's convergence test is "center movement > threshold?"
    (Figure 1); spatial movement is the interpretable, resolution-scaled
    choice.
    """
    old = np.asarray(old, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if old.shape != new.shape:
        raise ConfigurationError(f"center shapes differ: {old.shape} vs {new.shape}")
    d = new[:, 3:5] - old[:, 3:5]
    return float(np.mean(np.sqrt((d ** 2).sum(axis=1))))
