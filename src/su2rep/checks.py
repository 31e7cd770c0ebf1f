"""Cross-module consistency suite behind the ``verify`` CLI command.

Each check ties two independently implemented descriptions of the same
invariant together (closed form vs recursion, predicate enumeration vs
series, product factorization vs direct image, and so on).  A failure here
means the library is internally inconsistent, never that the input was bad.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import locimage, surfaces
from .exterior import Sector, fixed_point_poincare, weyl_invariant_series
from .ratpoly import RatFn, RatPoly, poly_reciprocal
from .targets import ConsistencyError, SurfaceTarget, TargetKind, Variant

ALL_KINDS = (TargetKind.CENTRAL_PLUS, TargetKind.CENTRAL_MINUS, TargetKind.GENERIC)


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _named(name: str):
    """Report a check's failure strings, or the error it raised, as one CheckResult."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            try:
                failures = check(*args, **kwargs)
            except (ConsistencyError, ValueError) as exc:
                failures = [f"{type(exc).__name__}: {exc}"]
            return CheckResult(name, not failures, "; ".join(failures[:4]))

        return run

    return decorate


@_named("poincare-recursion")
def check_recursion(n_max: int) -> list[str]:
    return surfaces.recursion_verify(n_max).failures


@_named("formality-dimension")
def check_fixed_point_dimension(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        fixed_dim = fixed_point_poincare(n)(1)
        for variant in Variant:
            basis = locimage.ordinary_basis(n, variant)
            if not len(basis) == 2 ** (n + 1) == fixed_dim:
                failures.append(f"n={n} {variant.value}")
    return failures


@_named("localization-image-series")
def check_localization_series(n_max: int, basis_n_max: int) -> list[str]:
    failures = []
    ts = RatPoly.one() - RatPoly.t(2)
    for n in range(n_max + 1):
        for variant in Variant:
            target = SurfaceTarget.regular(n) if variant is Variant.REGULAR else SurfaceTarget.singular(n)
            plus, minus = surfaces.poincare_sectors(target)
            for sector, sector_poly in ((Sector.PLUS, plus), (Sector.MINUS, minus)):
                spec = locimage.ImageSpec(n, variant, sector)
                if locimage.image_hilbert_series(spec) != RatFn(sector_poly, ts):
                    failures.append(f"series n={n} {variant.value}/{sector.value}")
                if n <= basis_n_max:
                    bound = 2 * n + 6
                    counts = [0] * (bound + 1)
                    for mask, l in locimage.image_basis(spec, bound):
                        counts[mask.bit_count() + 2 * l] += 1
                    series = locimage.image_hilbert_series(spec).series(bound)
                    if counts != series:
                        failures.append(f"basis-count n={n} {variant.value}/{sector.value}")
    return failures


@_named("kunneth-factorization")
def check_factorization(n_max: int) -> list[str]:
    failures = []
    for n in range(1, n_max + 1):
        report = locimage.factorization_check(n)
        if not report.passed:
            failures.append(f"n={n}: {report.first_discrepancy}")
    return failures


@_named("cup-product-structure")
def check_cup_structure(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        matrix = locimage.minus_pairing_matrix(n)
        if locimage.matrix_rank_exact(matrix) != 1 << n:
            failures.append(f"pairing-rank n={n}")
        for variant in Variant:
            basis = locimage.ordinary_basis(n, variant)
            plus = [c for c in basis if c.sector is Sector.PLUS]
            minus = [c for c in basis if c.sector is Sector.MINUS]
            unit = plus[0]
            if any(locimage.cup_product(unit, c) != (1, c) for c in basis):
                failures.append(f"unit n={n} {variant.value}")
            for a in plus:
                if a.mask == 0:
                    continue
                for b in minus:
                    if locimage.cup_product(a, b) is not None:
                        failures.append(f"mixed n={n} {variant.value}")
            if variant is Variant.SINGULAR:
                if any(
                    locimage.cup_product(a, b) is not None
                    for a in minus
                    for b in minus
                ):
                    failures.append(f"singular-minus n={n}")
    return failures


@_named("weyl-invariant-series")
def check_weyl_invariants(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for kind in ALL_KINDS:
            closed = surfaces.gxt_equivariant_series(SurfaceTarget(kind, n))
            if weyl_invariant_series(n, kind) != closed:
                failures.append(f"n={n} {kind.value}")
    return failures


@_named("pair-poincare-series")
def check_pair_series(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            pair = surfaces.pair_poincare(target)
            if pair != surfaces.pair_poincare_direct(target):
                failures.append(f"display n={n} {kind.value}")
            if any(c < 0 for c in pair.series(30)):
                failures.append(f"negative n={n} {kind.value}")
    return failures


@_named("orbit-space-poincare")
def check_orbit_spaces(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            try:
                poly = surfaces.orbit_poincare(target)
            except (ConsistencyError, ValueError) as exc:
                failures.append(f"n={n} {kind.value}: {exc}")
                continue
            connected = n >= 1 and kind in (TargetKind.CENTRAL_MINUS, TargetKind.GENERIC)
            if connected and poly.coefficient(0) != 1:
                failures.append(f"constant-term n={n} {kind.value}")
            if target == SurfaceTarget.central_minus(1) and poly != RatPoly.one() + RatPoly.t():
                failures.append("spot-value X1-regular orbit")
    return failures


@_named("poincare-duality-euler")
def check_duality_euler(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        regular = surfaces.poincare(SurfaceTarget.regular(n))
        if poly_reciprocal(regular, 3 * n) != regular:
            failures.append(f"duality n={n}")
        expected = 2 if n == 0 else 0
        for make in (SurfaceTarget.regular, SurfaceTarget.singular):
            if surfaces.euler_characteristic(make(n)) != expected:
                failures.append(f"euler n={n}")
    return failures


@_named("bigrading")
def check_bigrading(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for variant in Variant:
            target = SurfaceTarget.regular(n) if variant is Variant.REGULAR else SurfaceTarget.singular(n)
            closed = surfaces.bigraded_poincare(target)
            if locimage.bigraded_generating_function(n, variant) != closed:
                failures.append(f"generating-function n={n} {variant.value}")
            if surfaces.specialize_total_degree(closed) != surfaces.poincare(target):
                failures.append(f"specialization n={n} {variant.value}")
    return failures


@_named("equivariant-series-ties")
def check_equivariant_ties(n_max: int) -> list[str]:
    failures = []
    ts = RatPoly.one() - RatPoly.t(2)
    for n in range(n_max + 1):
        for variant in Variant:
            target = SurfaceTarget.regular(n) if variant is Variant.REGULAR else SurfaceTarget.singular(n)
            total = locimage.image_hilbert_series(
                locimage.ImageSpec(n, variant, Sector.PLUS)
            ) + locimage.image_hilbert_series(locimage.ImageSpec(n, variant, Sector.MINUS))
            if surfaces.equivariant_poincare(target).t_series != total:
                failures.append(f"t-series n={n} {variant.value}")
        generic = surfaces.equivariant_poincare(SurfaceTarget.generic(n)).t_series
        regular = surfaces.equivariant_poincare(SurfaceTarget.regular(n)).t_series
        if generic != RatFn(RatPoly.one() + RatPoly.t(2)) * regular:
            failures.append(f"generic-tie n={n}")
    return failures


def run_verify(n_max: int = 8) -> list[CheckResult]:
    """Run the whole suite; heavy enumerations are capped independently."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [
        check_recursion(n_max),
        check_fixed_point_dimension(min(n_max, 12)),
        check_localization_series(min(n_max, 12), basis_n_max=min(n_max, 8)),
        check_factorization(min(n_max, 8)),
        check_cup_structure(min(n_max, 6)),
        check_weyl_invariants(min(n_max, 12)),
        check_pair_series(min(n_max, 8)),
        check_orbit_spaces(min(n_max, 10)),
        check_duality_euler(min(n_max, 12)),
        check_bigrading(min(n_max, 10)),
        check_equivariant_ties(min(n_max, 12)),
    ]
