"""Exact root-system combinatorics for twisted Einstein geometry on
generalized flag varieties.

Layering: `rootsys` (root systems and integer coroot forms) -> `flag`
(parabolic data, anticanonical class, degree) -> `invariants`
(existence, Ricci lower bound, volumes, curvature) -> `catalog`
(named examples and the Picard-rank-two classification) -> `sweep`/`cli`
(bulk verification and the command line).  All arithmetic is exact.

The package exports the entry points; the types they return, and the
sweep, are imported from their submodules (e.g. `flagtke.flag`,
`flagtke.sweep`).
"""

from . import sweep  # noqa: F401  (every layer loads with the package)
from .catalog import (
    Family,
    catalog_rows,
    classify_picard2,
    example_full_flag,
    example_projectivized_tangent,
)
from .flag import (
    CohomologyClass,
    KahlerClass,
    anticanonical_class,
    degree,
    parabolic,
    snow_check,
)
from .invariants import (
    grlb_report,
    scalar_curvature,
    tke_exists,
    tke_solve_from_kahler,
    trace,
    volume_bound_report,
    volume_class,
    volume_cross_check,
)
from .rootsys import LieType, build_root_system

__version__ = "0.1.0"

__all__ = [
    "LieType",
    "build_root_system",
    "CohomologyClass",
    "KahlerClass",
    "parabolic",
    "degree",
    "snow_check",
    "anticanonical_class",
    "tke_exists",
    "tke_solve_from_kahler",
    "grlb_report",
    "volume_class",
    "volume_cross_check",
    "trace",
    "scalar_curvature",
    "volume_bound_report",
    "Family",
    "classify_picard2",
    "catalog_rows",
    "example_projectivized_tangent",
    "example_full_flag",
    "__version__",
]
