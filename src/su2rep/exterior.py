"""Exterior algebra of the fixed-point locus and its equivariant extension.

The torus-fixed locus of the varieties studied here is two disjoint copies
of an n-torus, so its cohomology is (group ring of Z2) tensor Lambda[a_1..a_n]
with each a_i in degree 1.  The component-swapping involution splits every
computation into a plus and a minus sector, and the equivariant theory of the
fixed locus appends a polynomial generator c1 of degree 2.

An exterior monomial a_S is a bitmask (bit i-1 set iff a_i occurs in S).
The product a_S * a_T is zero when the masks meet and otherwise
koszul_sign(S, T) * a_(S|T), where the sign is (-1)**(number of inversions
in the merge of the two ascending index lists).  Golden outputs depend on
this convention; do not change it.

The involution is realized by negating the 0th tuple coordinate.  Negating
any other coordinate is isotopic to it and induces the same action on
cohomology, so nothing downstream depends on the choice.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache

from .ratpoly import RatFn, RatPoly
from .targets import ENUMERATION_CAP, ConsistencyError, TargetKind


def check_enumeration_cap(n: int):
    if n > ENUMERATION_CAP:
        raise ValueError(f"n = {n} exceeds the enumeration cap {ENUMERATION_CAP}")


class Sector(Enum):
    """Eigenspace label for the component-swapping involution."""

    PLUS = "plus"
    MINUS = "minus"

    def __mul__(self, other: "Sector") -> "Sector":
        if not isinstance(other, Sector):
            return NotImplemented
        return Sector.PLUS if self is other else Sector.MINUS


@lru_cache(maxsize=1 << 12)
def _odd_above(mask_a: int) -> int:
    """The mask of the positions with an odd number of bits of mask_a above them."""
    odd = mask_a >> 1  # bit p: bit p + 1 of mask_a; the shifts below XOR in every higher one
    shift = 1
    while shift < mask_a.bit_length():
        odd ^= odd >> shift
        shift <<= 1
    return odd


def koszul_sign(mask_a: int, mask_b: int) -> int:
    """Sign of the merge of two disjoint sorted index sets.

    Each index of mask_b passes the indices of mask_a above it, so the sign
    is the parity of the bits of mask_b at positions with an odd number of
    mask_a bits above them.
    """
    return -1 if (mask_b & _odd_above(mask_a)).bit_count() & 1 else 1


def fixed_point_poincare(n: int) -> RatPoly:
    """Poincare polynomial 2(1+t)**n of the full fixed locus (two n-tori)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2 * (RatPoly.one() + RatPoly.t()) ** n


# The degree through which weyl_invariant_series recounts its monomials.
_COUNT_DEGREE = 40


def weyl_invariant_series(n: int, kind: TargetKind) -> RatFn:
    """Hilbert series of the Weyl invariants of the equivariant fixed locus.

    Computed by direct character counting on the monomial basis a_S * c1**l:

    * central +1 class: the Weyl reflection preserves both components and
      sends a_i -> -a_i, c1 -> -c1, so each component keeps exactly the
      monomials with |S| + l even;
    * central -1 class: the reflection swaps the two components, leaving one
      full copy of the monomial basis;
    * generic class: the fixed locus doubles and the reflection transposes
      the doubling, leaving two full copies.

    The per-monomial sums in l are geometric, so the result is an exact
    rational function; the expansion is re-checked coefficient by coefficient
    against an explicit monomial count through degree ``_COUNT_DEGREE``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    check_enumeration_cap(n)
    numerator: Counter[int] = Counter()
    if kind is TargetKind.CENTRAL_PLUS:
        for mask in range(1 << n):
            k = mask.bit_count()
            numerator[k + 2 * (k & 1)] += 2
        series = RatFn(RatPoly(numerator), RatPoly.one() - RatPoly.t(4))
    else:
        copies = 1 if kind is TargetKind.CENTRAL_MINUS else 2
        for mask in range(1 << n):
            numerator[mask.bit_count()] += copies
        series = RatFn(RatPoly(numerator), RatPoly.one() - RatPoly.t(2))

    # The invariant copies of a_S * c1**l, by the parity of |S| + l.
    copies = {TargetKind.CENTRAL_PLUS: (2, 0), TargetKind.CENTRAL_MINUS: (1, 1)}.get(kind, (2, 2))
    counts = [0] * (_COUNT_DEGREE + 1)
    for mask in range(1 << n):
        k = mask.bit_count()
        for l in range((_COUNT_DEGREE - k) // 2 + 1):  # empty once k > _COUNT_DEGREE
            counts[k + 2 * l] += copies[(k + l) & 1]
    if counts != series.series(_COUNT_DEGREE):
        raise ConsistencyError(f"Weyl-invariant count disagrees with the series: n={n} {kind.value}")
    return series
