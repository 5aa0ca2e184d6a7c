"""The ``reference`` backend: the original per-center / per-edge loops.

Thin aliases onto the canonical implementations in :mod:`repro.core` —
these define the semantics every optimized backend must reproduce bit
for bit, and they remain selectable (``REPRO_KERNEL_BACKEND=reference``)
for debugging and for the identity checks in the benchmarks.
"""

from __future__ import annotations

from ..color.hw_convert import lab_from_codes_reference as lab_from_codes
from ..color.reference import rgb_to_lab as lab_from_rgb
from ..core.accumulators import (
    sigma_accumulate_reference as sigma_accumulate,
)
from ..core.assignment import assign_cpa as cpa_assign
from ..core.assignment import ppa_assign_reference as ppa_assign
from ..core.connectivity import (
    enforce_connectivity_reference as enforce_connectivity,
)

__all__ = [
    "cpa_assign",
    "ppa_assign",
    "enforce_connectivity",
    "lab_from_codes",
    "lab_from_rgb",
    "sigma_accumulate",
    "is_available",
]


def is_available() -> bool:
    return True
