"""Algorithm parameters for SLIC and S-SLIC.

:class:`SlicParams` is the single configuration object accepted by
:func:`repro.core.slic` and :func:`repro.core.sslic`. It validates itself on
construction so bad configurations fail loudly before touching image data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SlicParams", "ARCH_CPA", "ARCH_PPA", "SUBSET_STRATEGIES"]

#: Center Perspective Architecture — the original SLIC iteration order
#: (loop over superpixels, scan a 2S x 2S window around each center).
ARCH_CPA = "cpa"

#: Pixel Perspective Architecture — loop over pixels, compare each against
#: its 9 statically-assigned nearest centers (the accelerator's order).
ARCH_PPA = "ppa"

#: Subset schedules accepted by S-SLIC (see repro.core.subsampling).
SUBSET_STRATEGIES = ("strided", "checkerboard", "rows", "blocks", "random")


@dataclass(frozen=True)
class SlicParams:
    """Parameters shared by SLIC and S-SLIC.

    Attributes
    ----------
    n_superpixels:
        Requested superpixel count K. The realized count is the nearest
        grid-feasible value (standard SLIC behaviour).
    compactness:
        The ``m`` of Equation 5, balancing color against spatial distance.
        The paper notes m is "generally set between 1 and 40"; 10 is the
        common default.
    max_iterations:
        Maximum number of *full-image-equivalent* sweeps. S-SLIC performs
        ``n_subsets`` sub-iterations per sweep, each over ``1/n_subsets``
        of the pixels, so total distance work per sweep matches SLIC.
    max_subiterations:
        Optional hard cap on sub-iterations (overrides ``max_iterations``;
        used by the Fig 2 runtime sweeps for fine-grained control).
    convergence_threshold:
        Stop when the mean spatial movement of the centers over a full
        sweep falls below this many pixels. Set to 0 to always run
        ``max_iterations`` sweeps.
    subsample_ratio:
        Fraction of pixels per sub-iteration. 1.0 reproduces plain SLIC
        ordering; 0.5 and 0.25 are the paper's S-SLIC variants. Must be
        ``1/n`` for integer n.
    architecture:
        ``"ppa"`` (default, the accelerator's pixel-perspective order) or
        ``"cpa"`` (original SLIC center-perspective order).
    subset_strategy:
        How pixels are partitioned into subsets (PPA) — see
        :mod:`repro.core.subsampling`.
    center_update_mode:
        How S-SLIC recomputes centers after each subset pass:

        * ``"accumulate"`` (default, hardware-faithful): the sigma
          registers carry their accumulations across the subset passes of
          one full sweep ("The current accumulations for the 9 SPs in the
          cluster update unit are loaded from the center update unit",
          Section 4.3) and reset at sweep boundaries. Mid-sweep updates
          use the pixels seen so far; the sweep-final update equals a full
          SLIC update, so S-SLIC shares SLIC's fixed point.
        * ``"subset"``: registers reset every pass; centers average only
          the pass's pixels (pure OS-EM).
        * ``"all_assigned"``: centers average every pixel's stored
          assignment each pass (highest quality, but re-reads the whole
          frame per pass — defeating the bandwidth saving; ablation only).
    enforce_connectivity:
        Run the final connectivity pass, absorbing stray fragments smaller
        than ``min_size_factor * S**2`` into adjacent superpixels.
    min_size_factor:
        Fragment-size threshold as a fraction of the nominal superpixel
        area.
    perturb_centers:
        Move each initial center to the lowest-gradient pixel of its 3x3
        neighborhood (Section 2 of the paper).
    static_neighbors:
        PPA only: fix each pixel's 9 candidate centers from the initial
        grid (the accelerator precomputes these offline). ``False``
        recomputes candidates from current center positions each sweep
        (the ablation of Section 4.3's "minimal effect" claim).
    datapath:
        ``None`` for the float64 reference datapath, or a
        :class:`repro.core.distance.FixedDatapath` for the quantized
        hardware datapath.
    seed:
        Seed for the ``"random"`` subset strategy.
    kernel_backend:
        Which :mod:`repro.kernels` backend runs the assignment and
        connectivity hot loops: ``"reference"``, ``"native-mt"``
        (compiled C), or ``"auto"``. ``None`` (default) defers to the
        ``REPRO_KERNEL_BACKEND`` environment variable, then ``auto``.
        Both backends produce bit-identical labels.
    n_threads:
        Kernel threads per frame for the ``native-mt`` backend
        (``reference`` ignores it); ``1`` runs the compiled kernels serially
        on the calling thread. ``None`` defers to
        ``REPRO_KERNEL_THREADS``, then the cores in the process's CPU
        affinity mask. The engine resolves it once per run and passes
        it to every kernel call as ``n_threads=``. Results are
        bit-identical at any thread count, so this only affects speed.
    """

    n_superpixels: int = 100
    compactness: float = 10.0
    max_iterations: int = 10
    max_subiterations: int | None = None
    convergence_threshold: float = 0.25
    subsample_ratio: float = 1.0
    architecture: str = ARCH_PPA
    subset_strategy: str = "strided"
    center_update_mode: str = "accumulate"
    enforce_connectivity: bool = True
    min_size_factor: float = 0.25
    perturb_centers: bool = True
    static_neighbors: bool = True
    datapath: object = None
    seed: int = 0
    kernel_backend: str | None = None
    n_threads: int | None = None

    def __post_init__(self) -> None:
        if self.n_superpixels < 1:
            raise ConfigurationError(
                f"n_superpixels must be >= 1, got {self.n_superpixels}"
            )
        if self.compactness <= 0:
            raise ConfigurationError(
                f"compactness must be > 0, got {self.compactness}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.max_subiterations is not None and self.max_subiterations < 1:
            raise ConfigurationError(
                f"max_subiterations must be >= 1, got {self.max_subiterations}"
            )
        if self.convergence_threshold < 0:
            raise ConfigurationError("convergence_threshold must be >= 0")
        if not (0.0 < self.subsample_ratio <= 1.0):
            raise ConfigurationError(
                f"subsample_ratio must be in (0, 1], got {self.subsample_ratio}"
            )
        n = 1.0 / self.subsample_ratio
        if abs(n - round(n)) > 1e-9:
            raise ConfigurationError(
                f"subsample_ratio must be 1/n for integer n, got {self.subsample_ratio}"
            )
        if self.architecture not in (ARCH_CPA, ARCH_PPA):
            raise ConfigurationError(f"unknown architecture {self.architecture!r}")
        if self.subset_strategy not in SUBSET_STRATEGIES:
            raise ConfigurationError(
                f"unknown subset_strategy {self.subset_strategy!r}; "
                f"choose from {SUBSET_STRATEGIES}"
            )
        if self.center_update_mode not in ("accumulate", "subset", "all_assigned"):
            raise ConfigurationError(
                f"unknown center_update_mode {self.center_update_mode!r}"
            )
        if not (0.0 <= self.min_size_factor < 1.0):
            raise ConfigurationError(
                f"min_size_factor must be in [0, 1), got {self.min_size_factor}"
            )
        if self.kernel_backend is not None:
            # Lazy import: kernels imports core modules at load time.
            from ..kernels import validate_name

            object.__setattr__(
                self, "kernel_backend", validate_name(self.kernel_backend)
            )
        if self.n_threads is not None and self.n_threads < 1:
            raise ConfigurationError(
                f"n_threads must be >= 1, got {self.n_threads}"
            )

    @property
    def n_subsets(self) -> int:
        """Number of pixel subsets: ``round(1 / subsample_ratio)``."""
        return int(round(1.0 / self.subsample_ratio))

    def grid_interval(self, shape) -> float:
        """The S of the paper: ``sqrt(N / K)`` for an (H, W) image."""
        h, w = shape[:2]
        return float(np.sqrt(h * w / self.n_superpixels))

    def with_(self, **changes) -> "SlicParams":
        """Return a copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)
