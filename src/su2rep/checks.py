"""Cross-module consistency suite behind the ``verify`` CLI command.

Each check ties two independently implemented descriptions of the same
invariant together (closed form vs recursion, predicate enumeration vs
series, product factorization vs direct image, and so on).  A failure here
means the library is internally inconsistent, never that the input was bad.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple

from . import locimage, surfaces
from .exterior import Sector, fixed_point_poincare, weyl_invariant_series
from .ratpoly import RatFn, RatPoly, poly_reciprocal
from .targets import ConsistencyError, SurfaceTarget, TargetKind, Variant

ALL_KINDS = (TargetKind.CENTRAL_PLUS, TargetKind.CENTRAL_MINUS, TargetKind.GENERIC)
# The largest n of every check but the recursion, which runs to the n_max asked for.
CHECK_N_MAX = 12


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


def _named(name: str):
    """Report a check's failure strings, or the error it raised, as one CheckResult: the first 4, then a count."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            try:
                failures = check(*args, **kwargs)
            except Exception as exc:  # any fault is reported by name; it must not end the run
                failures = [f"{type(exc).__name__}: {exc}"]
            more = [f"+{len(failures) - 4} more"] if len(failures) > 4 else []
            return CheckResult(name, not failures, "; ".join([*failures[:4], *more]))

        return run

    return decorate


@_named("poincare-recursion")
def check_recursion(n_max: int) -> list[str]:
    return surfaces.recursion_verify(n_max).failures


@_named("formality-dimension")
def check_fixed_point_dimension(n_max: int) -> list[str]:
    # Equivariant formality: the total Betti number equals that of the fixed
    # locus, two n-tori, and for the generic class twice that.
    failures = []
    for n in range(n_max + 1):
        fixed_dim = fixed_point_poincare(n)(1)
        for kind in ALL_KINDS:
            copies = 2 if kind is TargetKind.GENERIC else 1
            if surfaces.poincare(SurfaceTarget(kind, n))(1) != copies * fixed_dim:
                failures.append(f"n={n} {kind.value}")
    return failures


@_named("localization-image-series")
def check_localization_series(n_max: int) -> list[str]:
    failures = []
    ts = RatPoly.one() - RatPoly.t(2)
    for n in range(n_max + 1):
        for target in (SurfaceTarget.regular(n), SurfaceTarget.singular(n)):
            variant = target.variant
            plus, minus = surfaces.poincare_sectors(target)
            for sector, sector_poly in ((Sector.PLUS, plus), (Sector.MINUS, minus)):
                spec = locimage.ImageSpec(n, variant, sector)
                series = locimage.image_hilbert_series(spec)
                if series != RatFn(sector_poly, ts):
                    failures.append(f"series n={n} {variant.value}/{sector.value}")
                bound = locimage.default_degree_bound(n)
                # Run k of the table the writer prints adds C(n, k) basis elements in each degree k + 2l.
                counts = Counter()
                for k, powers in enumerate(locimage.image_runs(spec, bound)):
                    for l in powers:
                        counts[k + 2 * l] += math.comb(n, k)
                if counts != Counter(dict(enumerate(series.series(bound)))):  # a row past the bound differs too
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
    # Read from the survival table per (sector pair, k_a, k_b) that cup-table walks.
    failures = []
    plus, minus = Sector.PLUS, Sector.MINUS
    for n in range(n_max + 1):
        every_size = list(range(n + 1))
        for variant in Variant:
            surviving = locimage.cup_survival(n, variant)
            if surviving[plus, plus][0] != every_size or surviving[plus, minus][0] != every_size:
                failures.append(f"unit n={n} {variant.value}")
            # a_S a_T = +-a_(S|T) for every disjoint S, T: the exterior algebra.
            if surviving[plus, plus] != [every_size[: n - k_a + 1] for k_a in every_size]:
                failures.append(f"plus-subring n={n} {variant.value}")
            if any(surviving[plus, minus][1:]) or any(k_b for row in surviving[minus, plus] for k_b in row):
                failures.append(f"mixed n={n} {variant.value}")
            # Nothing on the singular fiber; on the regular one a_S pairs with a_(S^c)
            # alone, by a sign: a signed permutation matrix, so a perfect pairing.
            pairing = [[] if variant is Variant.SINGULAR else [n - k_a] for k_a in every_size]
            if surviving[minus, minus] != pairing:
                failures.append(f"minus-pairing n={n} {variant.value}")
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
            # the numerator over 1 - t^4 has degree at most 3n + 3, and past it the coefficients repeat with period 4
            if any(c < 0 for c in pair.series(3 * n + 3)):
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
        for kind in ALL_KINDS:  # the printed dimension is the top degree of the printed Poincare polynomial
            target = SurfaceTarget(kind, n)
            if target.dimension != surfaces.poincare(target).degree():
                failures.append(f"dimension n={n} {kind.value}")
        regular = surfaces.poincare(SurfaceTarget.regular(n))
        if poly_reciprocal(regular, SurfaceTarget.regular(n).dimension) != regular:
            failures.append(f"duality n={n}")
        expected = 2 if n == 0 else 0
        for target in (SurfaceTarget.regular(n), SurfaceTarget.singular(n)):
            if surfaces.euler_characteristic(target) != expected:
                failures.append(f"euler n={n} {target.variant.value}")
    return failures


@_named("bigrading")
def check_bigrading(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for target in (SurfaceTarget.regular(n), SurfaceTarget.singular(n)):
            closed = surfaces.bigraded_poincare(target)
            if locimage.bigraded_generating_function(n, target.variant) != closed:
                failures.append(f"generating-function n={n} {target.variant.value}")
            if surfaces.specialize_total_degree(closed) != surfaces.poincare(target):
                failures.append(f"specialization n={n} {target.variant.value}")
    return failures


@_named("equivariant-series-ties")
def check_equivariant_ties(n_max: int) -> list[str]:
    failures = []
    for n in range(n_max + 1):
        for target in (SurfaceTarget.regular(n), SurfaceTarget.singular(n)):
            plus, minus = (locimage.image_hilbert_series(locimage.ImageSpec(n, target.variant, s)) for s in Sector)
            if surfaces.equivariant_poincare(target).t_series != plus + minus:
                failures.append(f"t-series n={n} {target.variant.value}")
        generic = surfaces.equivariant_poincare(SurfaceTarget.generic(n)).t_series
        regular = surfaces.equivariant_poincare(SurfaceTarget.regular(n)).t_series
        if generic != (RatPoly.one() + RatPoly.t(2)) * regular:
            failures.append(f"generic-tie n={n}")
    return failures


def run_verify(n_max: int) -> list[CheckResult]:
    """Run the whole suite: the recursion to n_max, every other check to min(n_max, CHECK_N_MAX)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = min(n_max, CHECK_N_MAX)
    return [
        check_recursion(n_max),
        check_fixed_point_dimension(n),
        check_localization_series(n),
        check_factorization(n),
        check_cup_structure(n),
        check_weyl_invariants(n),
        check_pair_series(n),
        check_orbit_spaces(n),
        check_duality_euler(n),
        check_bigrading(n),
        check_equivariant_ties(n),
    ]
