"""Exact cohomology invariants of SU(2) representation varieties of
nonorientable surfaces, with a quaternion numerical oracle for the
underlying geometry.

The public names load their submodule on first access (PEP 562), so
``import su2rep`` alone imports no submodule, and a CLI request imports
only the modules its command computes with.
"""

import importlib

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "exterior": ("Sector", "fixed_point_poincare", "weyl_invariant_series"),
    "locimage": (
        "ImageSpec", "OrdClass", "cup_product", "cup_table", "factorization_check", "image_basis",
        "image_hilbert_series", "iter_cup_entries", "iter_image_runs", "ordinary_basis",
    ),
    "ratpoly": ("NotPolynomialError", "RatFn", "RatPoly", "poly_gcd", "poly_reciprocal"),
    "surfaces": (
        "bigraded_poincare", "equivariant_poincare", "euler_characteristic", "gxt_equivariant_series",
        "has_two_torsion", "kernel_poincare", "orbit_poincare", "pair_poincare", "poincare",
        "poincare_sectors", "recursion_verify", "specialize_total_degree",
    ),
    "targets": ("ConsistencyError", "SurfaceTarget", "TargetKind", "Variant"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
