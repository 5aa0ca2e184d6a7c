"""The ``reference`` backend: the original per-center / per-edge loops.

Thin aliases onto the canonical implementations in :mod:`repro.core` —
these define the semantics every optimized backend must reproduce bit
for bit, and they remain selectable (``REPRO_KERNEL_BACKEND=reference``)
for debugging and for the identity checks in the benchmarks.
"""

from __future__ import annotations

from ..color.hw_convert import lab_from_codes_reference as lab_from_codes
from ..core.accumulators import (
    sigma_accumulate_reference as sigma_accumulate,
)
from ..core.assignment import assign_cpa as cpa_assign
from ..core.assignment import assign_ppa as ppa_assign
from ..core.connectivity import (
    connected_components_reference as connected_components,
)
from ..core.connectivity import merge_small_reference as merge_small
from ..metrics.boundaries import (
    chamfer_distance_reference as chamfer_distance,
)
from ..metrics.boundaries import (
    contingency_table_reference as contingency_table,
)

__all__ = [
    "cpa_assign",
    "ppa_assign",
    "connected_components",
    "lab_from_codes",
    "sigma_accumulate",
    "merge_small",
    "contingency_table",
    "chamfer_distance",
    "is_available",
]


def is_available() -> bool:
    return True
