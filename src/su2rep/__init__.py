"""Exact cohomology invariants of SU(2) representation varieties of
nonorientable surfaces, with a quaternion numerical oracle for the
underlying geometry."""

from .exterior import Sector, fixed_point_poincare, weyl_invariant_series
from .locimage import (
    ImageSpec,
    OrdClass,
    cup_product,
    cup_table,
    factorization_check,
    image_basis,
    image_hilbert_series,
    iter_image_basis,
    ordinary_basis,
)
from .ratpoly import (
    NotPolynomialError,
    RatFn,
    RatPoly,
    poly_gcd,
    poly_reciprocal,
)
from .surfaces import (
    bigraded_poincare,
    equivariant_poincare,
    euler_characteristic,
    gxt_equivariant_series,
    has_two_torsion,
    kernel_poincare,
    orbit_poincare,
    pair_poincare,
    poincare,
    poincare_sectors,
    recursion_verify,
    specialize_total_degree,
)
from .targets import ConsistencyError, SurfaceTarget, TargetKind, Variant

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "ImageSpec",
    "NotPolynomialError",
    "OrdClass",
    "RatFn",
    "RatPoly",
    "Sector",
    "SurfaceTarget",
    "TargetKind",
    "Variant",
    "bigraded_poincare",
    "cup_product",
    "cup_table",
    "equivariant_poincare",
    "euler_characteristic",
    "factorization_check",
    "fixed_point_poincare",
    "gxt_equivariant_series",
    "has_two_torsion",
    "image_basis",
    "image_hilbert_series",
    "iter_image_basis",
    "kernel_poincare",
    "orbit_poincare",
    "ordinary_basis",
    "pair_poincare",
    "poincare",
    "poincare_sectors",
    "poly_gcd",
    "poly_reciprocal",
    "recursion_verify",
    "specialize_total_degree",
    "weyl_invariant_series",
]
