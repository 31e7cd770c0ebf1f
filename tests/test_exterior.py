import itertools

import pytest

from su2rep.exterior import Sector, fixed_point_poincare, koszul_sign, weyl_invariant_series
from su2rep.ratpoly import RatFn, RatPoly
from su2rep.targets import TargetKind

t = RatPoly.t
one = RatPoly.one()


def test_sector_multiplication_table():
    assert Sector.PLUS * Sector.PLUS is Sector.PLUS
    assert Sector.PLUS * Sector.MINUS is Sector.MINUS
    assert Sector.MINUS * Sector.PLUS is Sector.MINUS
    assert Sector.MINUS * Sector.MINUS is Sector.PLUS


def _indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _merge_sign(mask_a, mask_b):
    # Insertion sort of a's indices followed by b's; every swap flips the sign.
    seq = _indices(mask_a) + _indices(mask_b)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return sign


def test_koszul_sign_exhaustive():
    assert koszul_sign(0b01, 0b10) == 1
    assert koszul_sign(0b10, 0b01) == -1
    for n in range(7):
        for a, b in itertools.product(range(1 << n), repeat=2):
            if a & b:
                continue
            assert koszul_sign(a, b) == _merge_sign(a, b)
            graded = (-1) ** (a.bit_count() * b.bit_count())
            assert koszul_sign(a, b) * koszul_sign(b, a) == graded


def test_koszul_sign_matches_merge_sign_on_disjoint_pairs():
    # Every disjoint pair of masks of n <= 8 generators is a disjoint pair of 8-bit masks.
    full = (1 << 8) - 1
    for a in range(1 << 8):
        complement = full ^ a
        b = 0
        while True:
            assert koszul_sign(a, b) == _merge_sign(a, b)
            if b == complement:
                break
            b = (b - complement) & complement
    wide = [(0b1011 << 40 | 0b101, 0b100 << 50 | 0b10), ((1 << 63) | 1, 0b110), (0, (1 << 70) - 1)]
    for a, b in wide:
        assert koszul_sign(a, b) == _merge_sign(a, b)


def test_fixed_point_poincare_small_values():
    assert fixed_point_poincare(0) == RatPoly.constant(2)
    assert fixed_point_poincare(1) == 2 * one + 2 * t()
    assert fixed_point_poincare(3) == RatPoly({0: 2, 1: 6, 2: 6, 3: 2})


def test_sector_polynomials_sum_to_fixed_locus():
    for n in range(8):
        assert 2 * (one + t()) ** n == fixed_point_poincare(n)
    with pytest.raises(ValueError):
        fixed_point_poincare(-1)


def test_weyl_series_small_closed_forms():
    assert weyl_invariant_series(0, TargetKind.CENTRAL_PLUS) == RatFn(one, one - t(2)) + RatFn(
        one, one + t(2)
    )
    assert weyl_invariant_series(1, TargetKind.CENTRAL_MINUS) == RatFn(one + t(), one - t(2))
    assert weyl_invariant_series(0, TargetKind.GENERIC) == RatFn(2 * one, one - t(2))


def test_weyl_series_matches_closed_forms_up_to_twelve():
    for n in range(13):
        plus_n = (one + t()) ** n
        minus_n = (one - t()) ** n
        expected = {
            TargetKind.CENTRAL_PLUS: RatFn(plus_n, one - t(2)) + RatFn(minus_n, one + t(2)),
            TargetKind.CENTRAL_MINUS: RatFn(plus_n, one - t(2)),
            TargetKind.GENERIC: RatFn(2 * plus_n, one - t(2)),
        }
        for kind, series in expected.items():
            assert weyl_invariant_series(n, kind) == series


def test_enumeration_cap_guards_large_n():
    with pytest.raises(ValueError):
        weyl_invariant_series(17, TargetKind.CENTRAL_MINUS)


def test_weyl_series_is_the_count_of_invariant_monomials():
    # The invariant copies of a_S * c1**l on the fixed locus: two when |S| + l is even and none when it is odd
    # for the central +1 class, one for the central -1 class and two for the generic class.
    copies = {
        TargetKind.CENTRAL_PLUS: lambda size, power: 2 if (size + power) % 2 == 0 else 0,
        TargetKind.CENTRAL_MINUS: lambda size, power: 1,
        TargetKind.GENERIC: lambda size, power: 2,
    }
    top = 40
    for n in range(13):
        for kind, invariant in copies.items():
            counts = [0] * (top + 1)
            for subset in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
                for power in range(top + 1):
                    degree = len(subset) + 2 * power
                    if degree <= top:
                        counts[degree] += invariant(len(subset), power)
            assert weyl_invariant_series(n, kind).series(top) == counts, (n, kind)
