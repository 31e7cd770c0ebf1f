"""Exact rational polynomials and rational functions.

Polynomials are univariate in ``t`` and stored sparsely as a map from
non-negative integer exponents to nonzero ``fractions.Fraction``
coefficients.  The one two-variable object of the package, the bigraded
Poincare polynomial, is a table of Betti numbers by bidegree and is held as
a plain ``dict`` (see :func:`su2rep.surfaces.bigraded_poincare`).

Every series the package needs is a polynomial over H*(BSU(2)) = Q[c]
(c in degree 4), or over Q[c1] (c1 in degree 2) for the torus, fixed-locus
and localization-image versions, so every denominator divides 1 - t^4.  A
``RatFn`` holds one polynomial, the numerator N of N / (1 - t^4).  The
constructor rescales a given numerator and denominator to that form and
rejects a denominator that does not divide 1 - t^4.  Equality, hashing,
sums, differences, products and Taylor coefficients work on N alone; no
polynomial gcd is taken on those paths.  The coprime canonical form
(numerator and denominator coprime, denominator integer-primitive with a
positive leading coefficient) is computed only when a function is printed
or serialized, by ``to_json`` and ``str``.

All values are immutable after construction and every operation is a pure
function, so the types here are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NotPolynomialError(ValueError):
    """A rational function failed to simplify to a polynomial.

    Carries the witness of the failed division: ``quotient`` and a nonzero
    ``remainder`` with N = quotient * (1 - t^4) + remainder, where N is the
    numerator over 1 - t^4.
    """

    def __init__(self, quotient: "RatPoly", remainder: "RatPoly"):
        self.quotient = quotient
        self.remainder = remainder
        super().__init__(f"not a polynomial; division leaves remainder {remainder}")


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


class RatPoly:
    """Sparse polynomial over Q in one variable ``t``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        for exp, value in (coeffs or {}).items():
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a non-negative int, got {exp!r}")
            value = _coerce_coeff(value)
            if value:
                data[exp] = value
        self._coeffs = data

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls({})

    @classmethod
    def one(cls) -> "RatPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value) -> "RatPoly":
        return cls({0: Fraction(value)})

    @classmethod
    def t(cls, power: int = 1) -> "RatPoly":
        """The monomial t**power."""
        return cls({power: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self):
        """Degree; -inf for the zero polynomial."""
        if not self._coeffs:
            return -math.inf
        return max(self._coeffs)

    def coefficient(self, exp) -> Fraction:
        return self._coeffs.get(exp, Fraction(0))

    def items(self):
        """Coefficients as (exponent, value) pairs in canonical order."""
        return sorted(self._coeffs.items())

    def dense_coefficients(self, upto: int | None = None) -> list[Fraction]:
        """Coefficient list c0..c_max (or ..c_upto)."""
        top = self.degree()
        n = int(top) if top >= 0 else 0
        if upto is not None:
            n = upto
        return [self.coefficient(k) for k in range(n + 1)]

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self._coeffs[max(self._coeffs)]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for exp, value in other._coeffs.items():
            acc = out.get(exp, Fraction(0)) + value
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            if not scale:
                return RatPoly.zero()
            return RatPoly({e: c * scale for e, c in self._coeffs.items()})
        if not isinstance(other, RatPoly):
            return NotImplemented
        out: dict = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                acc = out.get(exp, Fraction(0)) + c1 * c2
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = RatPoly.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __call__(self, value) -> Fraction:
        """Evaluate at an exact rational point."""
        value = Fraction(value)
        return sum((c * value**e for e, c in self._coeffs.items()), Fraction(0))

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other) if not isinstance(other, RatPoly) else other
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return not self.is_zero

    def _term_str(self, exp, coeff) -> str:
        vars_part = "" if exp == 0 else ("t" if exp == 1 else f"t^{exp}")
        if not vars_part:
            return str(coeff)
        if coeff == 1:
            return vars_part
        if coeff == -1:
            return f"-{vars_part}"
        return f"{coeff}*{vars_part}"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = [self._term_str(e, c) for e, c in self.items()]
        out = terms[0]
        for term in terms[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"RatPoly({self})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        """JSON form: [exponent, numerator-string, denominator-string] triples.

        Integer parts are emitted as decimal strings so arbitrary precision
        survives any JSON consumer.
        """
        return [[exp, str(coeff.numerator), str(coeff.denominator)] for exp, coeff in self.items()]


def poly_reciprocal(p: RatPoly, d: int) -> RatPoly:
    """The reversal t**d * p(1/t); requires d >= deg(p) so the result is a polynomial."""
    if d < 0:
        raise ValueError("reversal degree must be non-negative")
    if not p.is_zero and d < p.degree():
        raise ValueError(f"reversal degree {d} is below deg(p) = {p.degree()}")
    return RatPoly({d - e: c for e, c in p._coeffs.items()})


def poly_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Euclidean division of polynomials: a = q*b + r, deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot: dict = {}
    rem = dict(a._coeffs)
    deg_b = b.degree()
    lead_b = b.leading_coefficient()
    while rem and max(rem) >= deg_b:
        deg_r = max(rem)
        factor = rem[deg_r] / lead_b
        shift = deg_r - deg_b
        quot[shift] = factor
        for e, c in b._coeffs.items():
            k = e + shift
            acc = rem.get(k, Fraction(0)) - factor * c
            if acc:
                rem[k] = acc
            else:
                rem.pop(k, None)
    return RatPoly(quot), RatPoly(rem)


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd of polynomials over Q (zero if both are zero)."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.leading_coefficient())


# Every denominator in the package divides this one (see the module docstring).
_ONE_MINUS_T4 = RatPoly({0: 1, 4: -1})


class RatFn:
    """Univariate rational function over Q, held as a numerator over 1 - t^4."""

    __slots__ = ("_num",)

    def __init__(self, numerator, denominator=1):
        num = self._as_poly(numerator)
        den = self._as_poly(denominator)
        cofactor, remainder = poly_divmod(_ONE_MINUS_T4, den)
        if remainder:
            raise ValueError(f"denominator {den} does not divide 1 - t^4")
        self._num = num * cofactor

    @classmethod
    def _from_numerator(cls, num: RatPoly) -> "RatFn":
        # Trusted path for results of arithmetic: num is already over 1 - t^4.
        out = object.__new__(cls)
        out._num = num
        return out

    @staticmethod
    def _as_poly(value) -> RatPoly:
        if isinstance(value, RatPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return RatPoly.constant(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, (RatPoly, int, Fraction)):
            return cls(other)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFn._from_numerator(self._num + other._num)

    __radd__ = __add__

    def __neg__(self):
        return RatFn._from_numerator(-self._num)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num, remainder = poly_divmod(self._num * other._num, _ONE_MINUS_T4)
        if remainder:
            raise ValueError("product has a denominator that does not divide 1 - t^4")
        return RatFn._from_numerator(num)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num

    def __hash__(self):
        return hash(self._num)

    def __bool__(self):
        return not self._num.is_zero

    def _reduced(self) -> tuple[RatPoly, RatPoly]:
        # The monic gcd g is a product of the integer factors t - 1, t + 1 and
        # t^2 + 1 of t^4 - 1, so (t^4 - 1) / g is integer-primitive and monic.
        g = poly_gcd(self._num, _ONE_MINUS_T4)
        return -poly_divmod(self._num, g)[0], poly_divmod(-_ONE_MINUS_T4, g)[0]

    def __str__(self):
        num, den = self._reduced()
        if den == RatPoly.one():
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"RatFn({self})"

    # -- queries --------------------------------------------------------------

    def to_polynomial(self) -> RatPoly:
        """The polynomial equal to this function, or NotPolynomialError."""
        quotient, remainder = poly_divmod(self._num, _ONE_MINUS_T4)
        if remainder:
            raise NotPolynomialError(quotient, remainder)
        return quotient

    def series(self, n_max: int = 40) -> list[Fraction]:
        """Exact Taylor coefficients c0..c_{n_max} at t = 0: c_k = N_k + c_{k-4}."""
        if n_max < 0:
            raise ValueError("series order must be non-negative")
        out: list[Fraction] = []
        for k in range(n_max + 1):
            acc = self._num.coefficient(k)
            out.append(acc + out[k - 4] if k >= 4 else acc)
        return out

    def to_json(self) -> dict:
        num, den = self._reduced()
        return {"numerator": num.to_json(), "denominator": den.to_json()}
