"""Closed-form Poincare polynomials and series for the representation varieties.

Everything here is a pure function of a :class:`~su2rep.targets.SurfaceTarget`.
The basic closed forms are, writing P3 = (1+t^3)^n and M = (t+t^2)^n:

* regular fiber:   P3 + M           (plus and minus sector summands)
* singular fiber:  P3 + t^2 M
* generic class:   (1+t^2) (P3 + M)  (a 2-sphere factor splits off)

The orbit-space Poincare polynomial is computed twice on purpose, once from
the closed five-case expression and once assembled from the exact sequence
of the pair (orbit space, fixed orbits); the redundancy is the test, and
:func:`orbit_poincare` refuses to return if the two routes disagree.

Cup products on the pair are trivial, and for the singular variety the whole
reduced orbit-space ring is trivial; for the regular variety the middle class
acts through the localization picture, with the single undetermined product
being the square of the degree-n class, which is not guessed here.  These
facts are reported as metadata flags by the CLI rather than computed rings.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from .exterior import fixed_point_poincare
from .ratpoly import NotPolynomialError, RatFn, RatPoly, poly_reciprocal
from .targets import MEMO_SIZE, ConsistencyError, SurfaceTarget, TargetKind, Variant


# The bases of every closed form, built once: building one per call costs more than its power.
_ONE_PLUS_T = RatPoly({0: 1, 1: 1})
_ONE_MINUS_T = RatPoly({0: 1, 1: -1})
_ONE_PLUS_T3 = RatPoly({0: 1, 3: 1})
_T_PLUS_T2 = RatPoly({1: 1, 2: 1})


@lru_cache(maxsize=MEMO_SIZE)
def poincare_sectors(target: SurfaceTarget) -> tuple[RatPoly, RatPoly]:
    """Poincare polynomials of the plus and minus sectors of the involution."""
    n = target.n
    plus, minus = _ONE_PLUS_T3 ** n, _T_PLUS_T2 ** n
    if target.is_central and target.variant is Variant.SINGULAR:
        minus = RatPoly.t(2) * minus
    if target.kind is TargetKind.GENERIC:
        sphere = RatPoly.one() + RatPoly.t(2)
        plus, minus = sphere * plus, sphere * minus
    return plus, minus


def poincare(target: SurfaceTarget) -> RatPoly:
    """Rational Poincare polynomial of the variety."""
    plus, minus = poincare_sectors(target)
    return plus + minus


def bigraded_poincare(target: SurfaceTarget) -> dict[tuple[int, int], int]:
    """Betti numbers by bidegree (k, 2l), as a dict with no zero entries; central targets only.

    The plus sector contributes (1 + x y^2)^n, that is C(n, k) classes in
    bidegree (k, 2k), and the minus sector (x + y^2)^n, that is C(n, k)
    classes in bidegree (k, 2(n - k)), shifted by y^2 on the singular fiber.
    """
    if not target.is_central:
        raise ValueError("the bigrading is stated for central targets only")
    n = target.n
    shift = 2 if target.variant is Variant.SINGULAR else 0
    counts: Counter = Counter()
    for k, binomial in enumerate((_ONE_PLUS_T ** n).dense_coefficients()):  # C(n, k), one row
        counts[k, 2 * k] += binomial
        counts[k, 2 * (n - k) + shift] += binomial
    return dict(counts)


def specialize_total_degree(bigraded: dict[tuple[int, int], int]) -> RatPoly:
    """Collapse the bigrading to the single grading: bidegree (a, b) -> t^(a+b).

    A bidegree-(k, 2l) class has cohomological degree k + 2l, so the rule is
    forced by the minimal-c1 representatives of the canonical basis.
    """
    counts: Counter = Counter()
    for (a, b), count in bigraded.items():
        counts[a + b] += count
    return RatPoly(counts)


class RecursionReport(namedtuple("RecursionReport", "n_max failures")):
    """failures: "k=..." for each step k = 1..n_max that disagrees with the closed forms."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def recursion_verify(n_max: int) -> RecursionReport:
    """Bootstrap the Poincare polynomials from exact sequences and compare.

    Seeds: the 0-cross-cap regular fiber is two points (P = 2) and the
    singular fiber is a 2-sphere (P = 1 + t^2).  For k >= 1:

    * regular(k) = singular(k-1) + t^(3k) * reversal of singular(k-1),
    * the relative polynomial of (ambient tuples, regular fiber) equals
      ambient(k+1) + t*regular(k) - (1+t)*ambient(k), which must come out as
      t^3 (1+t^3)^k + t (t+t^2)^k,
    * singular(k) = t^(3k+3) * reversal of that relative polynomial
      (Lefschetz duality across the complement of the regular fiber).

    Every step is compared against the closed forms, and the total dimension
    2^(k+1) is compared against the fixed-locus dimension.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")

    singular_prev = RatPoly.one() + RatPoly.t(2)
    failures = []
    for k in range(1, n_max + 1):
        regular_k = singular_prev + poly_reciprocal(singular_prev, 3 * k)
        regular_ok = regular_k == poincare(SurfaceTarget.regular(k))

        ambient, ambient_next = _ONE_PLUS_T3 ** k, _ONE_PLUS_T3 ** (k + 1)
        relative = ambient_next + RatPoly.t(1) * regular_k - _ONE_PLUS_T * ambient
        pair_ok = relative == RatPoly.t(3) * ambient + RatPoly.t(1) * _T_PLUS_T2 ** k

        singular_k = poly_reciprocal(relative, 3 * k + 3)
        singular_ok = singular_k == poincare(SurfaceTarget.singular(k))

        dim = 2 ** (k + 1)
        fixed_dim = fixed_point_poincare(k)(1)
        dimension_ok = regular_k(1) == dim and singular_k(1) == dim and fixed_dim == dim
        if not (regular_ok and pair_ok and singular_ok and dimension_ok):
            failures.append(f"k={k}")
        singular_prev = singular_k
    return RecursionReport(n_max, tuple(failures))


# The RatFn series over the full group (g_series) and over the torus (t_series).
EquivariantSeries = namedtuple("EquivariantSeries", "g_series t_series")


def equivariant_poincare(target: SurfaceTarget) -> EquivariantSeries:
    """Equivariant Poincare series for the full group and for the torus.

    The action is equivariantly formal, so the series are the ordinary
    polynomial divided by 1 - t^4 (full group) and 1 - t^2 (torus).
    """
    p = poincare(target)
    return EquivariantSeries(
        g_series=RatFn(p, RatPoly.one() - RatPoly.t(4)),
        t_series=RatFn(p, RatPoly.one() - RatPoly.t(2)),
    )


def _fixed_orbit_parts(target: SurfaceTarget) -> tuple[RatPoly, RatPoly]:
    """(P, M): the fixed locus modulo the Weyl reflection has Poincare polynomial P + M.

    P = (1+t)^n and M = (1-t)^n when the reflection preserves the two
    components (central +1); P = (1+t)^n and M = 0 when it swaps them
    (central -1); P = 2 (1+t)^n and M = 0 for the doubled fixed locus of a
    generic class.
    """
    plus = _ONE_PLUS_T ** target.n
    if target.kind is TargetKind.CENTRAL_PLUS:
        return plus, _ONE_MINUS_T ** target.n
    if target.kind is TargetKind.CENTRAL_MINUS:
        return plus, RatPoly.zero()
    return 2 * plus, RatPoly.zero()


def gxt_equivariant_series(target: SurfaceTarget) -> RatFn:
    """Equivariant series P/(1-t^2) + M/(1+t^2) of the union of orbits through the fixed locus.

    The closed form of the Weyl-invariant fixed-locus series, with (P, M)
    the parts of :func:`_fixed_orbit_parts`.
    """
    plus, minus = _fixed_orbit_parts(target)
    return RatFn(plus, 1 - RatPoly.t(2)) + RatFn(minus, 1 + RatPoly.t(2))


def pair_poincare(target: SurfaceTarget) -> RatFn:
    """Poincare series of the pair (orbit space, fixed orbits).

    Equals t * (series of orbits through the fixed locus - full equivariant
    series); its cup product is trivial.
    """
    return RatPoly.t(1) * (gxt_equivariant_series(target) - equivariant_poincare(target).g_series)


def pair_poincare_direct(target: SurfaceTarget) -> RatFn:
    """The five-case closed display of the pair series, transcribed term by term."""
    n = target.n
    plus, minus = _ONE_PLUS_T3 ** n, _T_PLUS_T2 ** n
    a = RatFn(_ONE_PLUS_T ** n, RatPoly.one() - RatPoly.t(2))
    b = RatFn(_ONE_MINUS_T ** n, RatPoly.one() + RatPoly.t(2))
    regular_p = plus + minus
    singular_p = plus + RatPoly.t(2) * minus
    one_minus_t4 = RatPoly.one() - RatPoly.t(4)
    if target.kind is TargetKind.CENTRAL_PLUS:
        inner = a + b - RatFn(singular_p if n % 2 else regular_p, one_minus_t4)
    elif target.kind is TargetKind.CENTRAL_MINUS:
        inner = a - RatFn(regular_p if n % 2 else singular_p, one_minus_t4)
    else:
        inner = 2 * a - RatFn(regular_p, RatPoly.one() - RatPoly.t(2))
    return RatPoly.t(1) * inner


def fixed_orbit_space_poincare(target: SurfaceTarget) -> RatPoly:
    """Poincare polynomial P + M of the fixed locus modulo the Weyl reflection (see :func:`_fixed_orbit_parts`)."""
    plus, minus = _fixed_orbit_parts(target)
    return plus + minus


def kernel_poincare(target: SurfaceTarget) -> RatPoly:
    """Poincare polynomial of the kernel of the connecting map.

    1 for the singular fiber; 1 + t^n otherwise (the unit and the top
    minus-sector fixed class survive).
    """
    if target.is_central and target.variant is Variant.SINGULAR:
        return RatPoly.one()
    # For a generic class the unit and the top minus class again span the
    # kernel; doubling this term breaks the n = 0 and n = 1 orbit spaces.
    return RatPoly.one() + RatPoly.t(target.n)


def orbit_poincare_direct(target: SurfaceTarget) -> RatFn:
    """Closed five-case expression for the orbit-space Poincare polynomial."""
    n = target.n
    tail_small = _ONE_PLUS_T
    tail_full = _ONE_PLUS_T * (RatPoly.one() + RatPoly.t(n))
    pair = pair_poincare_direct(target)
    if target.kind is TargetKind.CENTRAL_PLUS:
        fixed = _ONE_PLUS_T ** n + _ONE_MINUS_T ** n
        tail = tail_small if n % 2 else tail_full
    elif target.kind is TargetKind.CENTRAL_MINUS:
        fixed = _ONE_PLUS_T ** n
        tail = tail_full if n % 2 else tail_small
    else:
        fixed = 2 * _ONE_PLUS_T ** n
        tail = tail_full
    return pair + RatFn(tail - RatPoly.t(1) * fixed)


def orbit_poincare_assembled(target: SurfaceTarget) -> RatFn:
    """Orbit-space series assembled from the long exact sequence of the pair."""
    pair = pair_poincare(target)
    fixed = fixed_orbit_space_poincare(target)
    kernel = kernel_poincare(target)
    return pair - RatFn(RatPoly.t(1) * fixed) + RatFn(_ONE_PLUS_T * kernel)


def orbit_poincare(target: SurfaceTarget) -> RatPoly:
    """Poincare polynomial of the orbit space, checked along two routes.

    The closed expression and the exact-sequence assembly must agree and
    collapse to a polynomial with non-negative coefficients.
    """
    direct = orbit_poincare_direct(target)
    assembled = orbit_poincare_assembled(target)
    if direct != assembled:
        raise ConsistencyError(
            f"orbit-space routes disagree for {target}: {direct} vs {assembled}"
        )
    try:
        polynomial = direct.to_polynomial()
    except NotPolynomialError as exc:
        raise ConsistencyError(f"orbit-space series for {target} is not a polynomial: {direct}") from exc
    for exponent, coeff in polynomial.items():
        if coeff < 0:
            raise ConsistencyError(
                f"orbit-space polynomial has a bad coefficient {coeff} at degree {exponent}"
            )
    return polynomial


def has_two_torsion(target: SurfaceTarget) -> bool:
    """Whether integral degree-2 homology of the variety has 2-torsion.

    True for the regular fiber once n >= 2 and for the singular fiber once
    n >= 1; transcribed, not computed (the library works over Q).
    """
    if not target.is_central:
        raise ValueError("the torsion statement covers central targets only")
    if target.variant is Variant.REGULAR:
        return target.n >= 2
    return target.n >= 1


def euler_characteristic(target: SurfaceTarget) -> int:
    """Euler characteristic, evaluated exactly at t = -1 on each sector, so their sum is never made."""
    plus, minus = poincare_sectors(target)
    return plus(-1) + minus(-1)
