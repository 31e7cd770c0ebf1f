import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from su2rep import cli
from su2rep.ratpoly import (
    NotPolynomialError,
    RatFn,
    RatPoly,
    poly_divmod,
    poly_gcd,
    poly_reciprocal,
)

t = RatPoly.t
one = RatPoly.one()


def poly(**coeffs):
    return RatPoly({int(k[1:]): v for k, v in coeffs.items()})


# -- strategies ---------------------------------------------------------------

coefficients = st.integers(min_value=-9, max_value=9)
units = st.sampled_from([1, -1])


@st.composite
def polys(draw, max_degree=6):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(n_terms):
        coeffs[draw(st.integers(min_value=0, max_value=max_degree))] = draw(coefficients)
    return RatPoly(coeffs)


nonzero_polys = polys().filter(lambda p: not p.is_zero)


@st.composite
def unit_lead_polys(draw):
    """Polynomials with leading coefficient +-1, which divide any polynomial over Z."""
    d = draw(st.integers(min_value=0, max_value=6))
    low = RatPoly({e: c for e, c in draw(polys()).items() if e < d})
    return low + draw(units) * t(d)


@st.composite
def period_divisors(draw):
    """The divisors of 1 - t^4 = (1 - t)(1 + t)(1 + t^2) over Z, up to sign."""
    den = RatPoly.constant(draw(units))
    for factor in (one - t(), one + t(), one + t(2)):
        if draw(st.booleans()):
            den = den * factor
    return den


def from_json(triples) -> RatPoly:
    assert all(den == "1" for _, _, den in triples)
    return RatPoly({e: int(num) for e, num, _ in triples})


def cli_json(value):
    """What the CLI writes for a payload value, read back."""
    return json.loads("".join(cli._json_chunks(value)))


# -- arithmetic -----------------------------------------------------------------


def test_binomial_square():
    assert (one + t()) * (one + t()) == poly(e0=1, e1=2, e2=1)


def test_regular_one_crosscap_expansion():
    assert (one + t(3)) + (t() + t(2)) == poly(e0=1, e1=1, e2=1, e3=1)


def test_multiplication_by_zero_absorbs():
    p = poly(e0=3, e2=-5)
    assert p * RatPoly.zero() == RatPoly.zero()
    assert (0 * p).is_zero


def test_degree_contract():
    assert RatPoly.zero().degree() == float("-inf")
    assert (t(2) * t(3)).degree() == 5


@pytest.mark.parametrize("exp", [-1, 1.0, (1, 0), (1.7, 0), True, False])
@pytest.mark.parametrize("coeff", [1, 0])
def test_exponent_must_be_a_non_negative_int(exp, coeff):
    with pytest.raises(ValueError):
        RatPoly({exp: coeff})


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2), 1.0, "1", True])
def test_coefficient_must_be_an_int(coeff):
    with pytest.raises(TypeError):
        RatPoly({0: coeff})


# -- poly_reciprocal -----------------------------------------------------------


def test_reciprocal_reverses_coefficients():
    assert poly_reciprocal(one + t(), 3) == poly(e2=1, e3=1)


def test_reciprocal_of_first_singular_poincare():
    # reverse 1 + 2t^3 + t^4 at degree 6, coefficient list reversed by hand
    assert poly_reciprocal(poly(e0=1, e3=2, e4=1), 6) == poly(e2=1, e3=2, e6=1)


def test_reciprocal_identity():
    assert poly_reciprocal(one, 0) == one


def test_reciprocal_rejects_low_degree():
    with pytest.raises(ValueError):
        poly_reciprocal(t(4), 3)


@given(polys(), st.integers(min_value=0, max_value=12))
def test_pow_matches_repeated_multiplication(p, exponent):
    expected = RatPoly.one()
    for _ in range(exponent):
        expected = expected * p
    assert p**exponent == expected


@given(st.sampled_from([1, -1, 2, -3, 0]), polys(max_degree=5), st.integers(min_value=0, max_value=9))
def test_pow_of_any_constant_term_matches_repeated_multiplication(b0, p, exponent):
    # The power recurrence divides by the lowest nonzero coefficient, after shifting out t^v when b0 = 0.
    base = b0 + t() * p
    expected = RatPoly.one()
    for _ in range(exponent):
        expected = expected * base
    assert base**exponent == expected


def test_pow_of_zero_matches_repeated_multiplication():
    for exponent in range(10):
        expected = RatPoly.one()
        for _ in range(exponent):
            expected = expected * RatPoly.zero()
        assert RatPoly.zero() ** exponent == expected


@pytest.mark.parametrize("exponent", [-1, 1.0, True, False])
def test_pow_exponent_must_be_a_non_negative_int(exponent):
    with pytest.raises(ValueError):
        t() ** exponent


def test_pow_takes_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a power called RatPoly.__mul__")

    monkeypatch.setattr(RatPoly, "__mul__", refuse)
    assert ((one + t()) ** 3000).dense_coefficients() == [math.comb(3000, k) for k in range(3001)]


@given(polys(), st.integers(min_value=0, max_value=12))
def test_reciprocal_is_involutive(p, extra):
    d = int(max(p.degree(), 0)) + extra
    assert poly_reciprocal(poly_reciprocal(p, d), d) == p


# -- ratfn canonical form -------------------------------------------------------


def test_simplify_telescoping():
    assert RatFn(one - t(2), one - t()).to_polynomial() == one + t()


def test_simplify_after_multiplication():
    f = RatFn(poly(e0=1, e1=1, e2=1, e3=1), one - t(4)) * (one - t())
    assert f.to_polynomial() == one


def test_simplify_rejects_infinite_series():
    # (1 + t - t^4) / (1 - t^4) = 1 + t + t^5 + ...: of c_1..c_4, only c_1 is nonzero.
    for f in (RatFn(one, one - t()), RatFn(one + t() - t(4), one - t(4))):
        with pytest.raises(NotPolynomialError) as err:
            f.to_polynomial()
        assert not err.value.remainder.is_zero


@st.composite
def near_multiples_of_the_period(draw):
    """q * (1 - t^4) + r with deg r < 4, so that Euclid's remainder is r and often zero or a single term."""
    return draw(polys()) * (one - t(4)) + draw(polys(max_degree=3))


@given(st.one_of(polys(max_degree=9), near_multiples_of_the_period()))
def test_to_polynomial_agrees_with_euclid(p):
    # Euclid is the independent reference for the four-coefficient window of the series recurrence.
    quotient, remainder = poly_divmod(p, one - t(4))
    f = RatFn(p, one - t(4))
    if remainder.is_zero:
        assert f.to_polynomial() == quotient
        return
    with pytest.raises(NotPolynomialError) as err:
        f.to_polynomial()
    assert not err.value.remainder.is_zero
    assert err.value.quotient * (one - t(4)) + err.value.remainder == p


small_dens = st.lists(st.integers(min_value=-2, max_value=2), max_size=5).map(lambda cs: RatPoly(dict(enumerate(cs))))


@given(st.one_of(period_divisors(), small_dens))
def test_accepted_denominators_are_euclids_divisors(den):
    if den.is_zero:
        with pytest.raises(ZeroDivisionError):
            RatFn(one, den)
        return
    try:
        cofactor, remainder = poly_divmod(one - t(4), den)
    except ValueError:  # an inexact step: den does not divide 1 - t^4 over Z
        cofactor, remainder = None, one
    if remainder.is_zero:
        f = RatFn(one, den)
        assert (f * (one - t(4))).to_polynomial() == cofactor
        assert (f * den).to_polynomial() == one
    else:
        with pytest.raises(ValueError):
            RatFn(one, den)


def test_series_geometric():
    assert RatFn(one, one - t(2)).series(5) == [1, 0, 1, 0, 1, 0]


def test_series_long_division_by_hand():
    assert RatFn(one + t(3), one - t(4)).series(7) == [1, 0, 0, 1, 1, 0, 0, 1]


def test_series_of_unit():
    assert RatFn(one + t(), one + t()).series(3) == [1, 0, 0, 0]


def test_denominator_must_divide_one_minus_t4():
    # t would be a pole at 0; 1 + 3t is coprime to 1 - t^4; 2 - 2t^2 divides
    # 1 - t^4 over Q but not over Z.
    for den in (t(), one + 3 * t(), (one - t()) ** 2, 2 * (one - t(2)), 2 * one):
        with pytest.raises(ValueError):
            RatFn(one, den)
    with pytest.raises(ZeroDivisionError):
        RatFn(one, 0)


def test_product_of_two_series_is_a_type_error():
    f = RatFn(one, one - t(2))
    with pytest.raises(TypeError):
        _ = f * f  # a series is scaled only by a polynomial or an int
    with pytest.raises(TypeError):
        _ = RatFn(one) * RatFn(one)
    assert f * ((one - t(2)) * f).to_polynomial() == f


def test_denominator_is_primitive_with_positive_lead():
    f = RatFn(-one - t(), one - t())
    assert f.reduced() == (one + t(), -one + t())


# -- property tests -------------------------------------------------------------


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


@given(nonzero_polys, period_divisors())
def test_ratfn_cancellation(p, q):
    f = RatFn(p, q)
    assert f + (-f) == RatFn(RatPoly.zero())
    assert f + (-f) == 0
    assert not (f - f)


@given(nonzero_polys, period_divisors(), nonzero_polys, period_divisors())
def test_equality_matches_cross_multiplication(a, b, c, d):
    cross = a * d == b * c
    assert (RatFn(a, b) == RatFn(c, d)) == cross


@given(polys(), period_divisors())
def test_json_form_is_coprime_and_primitive(p, q):
    f = RatFn(p, q)
    form = cli_json(cli._series(f))
    num, den = from_json(form["numerator"]), from_json(form["denominator"])
    assert (num, den) == f.reduced()
    assert poly_gcd(num, den) == one  # Euclid, which reduced itself does not run
    assert math.gcd(*(c for _, c in den.items())) == 1
    assert den.dense_coefficients()[-1] > 0
    assert RatFn(num, den) == f


@given(nonzero_polys, period_divisors())
def test_series_survives_simplification(p, q):
    f = RatFn(p * q, q)  # always simplifies to the polynomial p
    assert f.to_polynomial() == p
    assert f.series(10) == RatFn(p).series(10)


@given(polys(), unit_lead_polys())
def test_divmod_reconstructs(a, b):
    quotient, remainder = poly_divmod(a, b)
    assert quotient * b + remainder == a
    assert remainder.degree() < b.degree()


def test_divmod_rejects_an_inexact_step():
    with pytest.raises(ValueError):
        poly_divmod(one + t(), 2 * t())
    assert poly_divmod(2 + 2 * t(), 2 * t()) == (one, 2 * one)  # every step is exact


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b, c):
    # Over Z the gcd of a*c and b*c is primitive with a positive lead; it is
    # divided by the primitive part of c and divides both products.
    g = poly_gcd(a * c, b * c)
    assert poly_divmod(a * c, g)[1].is_zero
    assert poly_divmod(b * c, g)[1].is_zero
    assert poly_divmod(g, poly_gcd(c, RatPoly.zero()))[1].is_zero
    assert math.gcd(*(coeff for _, coeff in g.items())) == 1
    assert g.dense_coefficients()[-1] > 0


@given(polys(), period_divisors(), polys(), st.integers(min_value=0, max_value=12))
def test_scaling_is_the_cauchy_product_of_the_series(p, q, r, m):
    f = RatFn(p, q)
    series, scale = f.series(m), r.dense_coefficients()
    cauchy = [sum(c * series[k - j] for j, c in enumerate(scale[: k + 1])) for k in range(m + 1)]
    assert (f * r).series(m) == cauchy
    assert r * f == f * r


@given(polys(), period_divisors(), st.integers(min_value=0, max_value=12))
def test_coefficients_stay_ints(p, q, n_max):
    f = RatFn(p, q) * q
    assert all(type(c) is int for c in f.series(n_max))
    assert all(type(c) is int for c in (p * q + p).dense_coefficients())
    assert type(p(-1)) is int


def test_json_triples_are_decimal_free_strings():
    p = RatPoly({0: -7, 3: 10**30})
    assert cli_json(cli._triples(p.items())) == [[0, "-7", "1"], [3, str(10**30), "1"]]
    # canonical form flips signs so the denominator leads positively
    f = RatFn(one, one - t(2))
    assert cli_json(cli._series(f)) == {
        "numerator": [[0, "-1", "1"]],
        "denominator": [[0, "-1", "1"], [2, "1", "1"]],
    }
