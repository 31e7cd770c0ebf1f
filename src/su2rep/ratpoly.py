"""Exact integer polynomials and rational functions.

Every invariant of the package is a Betti number or a Poincare series, so
every coefficient is an ``int``.  A ``RatPoly`` is univariate in ``t`` and
holds the trimmed tuple c0..c_deg of its coefficients.  The bigraded Poincare
polynomial, the one two-variable object of the package, is a ``dict`` of
Betti numbers by bidegree (see :func:`su2rep.surfaces.bigraded_poincare`).

Every series the package needs is a polynomial over H*(BSU(2)) = Z[c]
(c in degree 4), or over Z[c1] (c1 in degree 2) for the torus, fixed-locus
and localization-image versions, so every denominator divides 1 - t^4.  A
``RatFn`` holds one polynomial, the numerator N of N / (1 - t^4).  Over Z the
divisors of 1 - t^4 = -(t - 1)(t + 1)(t^2 + 1) are +-1 times a product of some
of those monic factors, so the constructor looks a denominator's cofactor up
in a table of all 16 and rejects any other denominator, such as 2 - 2t^2.
The series form a module over Z[t]: a series is added to or subtracted from a
series, and multiplied only by a ``RatPoly`` or an ``int``, so a product of
two series is a ``TypeError``.  Equality, hashing, sums, differences, multiples
and Taylor coefficients work on N alone.  The one division is the recurrence
c_k = N_k + c_(k-4) of the Taylor coefficients: ``to_polynomial`` reads the
quotient from it.  The coprime canonical form (denominator primitive with a
positive leading coefficient) is made only for output, by ``RatFn.reduced``.
Sums of N's coefficients by degree mod 4 give N(1), N(-1) and whether N(i) = 0;
the denominator is the product of the factors that do not vanish where N does.
No gcd is taken and no request runs Euclid (``poly_gcd`` and ``poly_divmod``
are the tests' reference).  Powers of any base follow Miller's recurrence, in
time that follows the size of the output.

All values are immutable after construction and every operation is a pure
function, so the types here are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from collections.abc import Iterator


class NotPolynomialError(ValueError):
    """A rational function failed to simplify to a polynomial.

    Carries the witness of the failed division: ``quotient`` and a nonzero
    ``remainder`` in degrees deg N - 3..deg N with N = quotient * (1 - t^4) +
    remainder, where N is the numerator over 1 - t^4.
    """

    def __init__(self, quotient: "RatPoly", remainder: "RatPoly"):
        self.quotient = quotient
        self.remainder = remainder
        super().__init__(f"not a polynomial; division leaves remainder {remainder}")


class RatPoly:
    """Polynomial over Z in one variable ``t``: the trimmed tuple of coefficients c0..c_deg."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        """Build from a mapping {exponent: int coefficient}; zero coefficients are dropped."""
        coeffs = coeffs or {}
        for exp, value in coeffs.items():
            if not isinstance(exp, int) or isinstance(exp, bool) or exp < 0:
                raise ValueError(f"exponent must be a non-negative int, got {exp!r}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"coefficient must be an int, got {type(value).__name__}")
        dense = [0] * (max(coeffs, default=-1) + 1)
        for exp, value in coeffs.items():
            dense[exp] = value
        self._coeffs = _trimmed(dense)

    @classmethod
    def _dense(cls, coeffs: list[int]) -> "RatPoly":
        # Trusted path for results of arithmetic: a fresh list of ints c0, c1, ...
        out = object.__new__(cls)
        out._coeffs = _trimmed(coeffs)
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls._dense([])

    @classmethod
    def one(cls) -> "RatPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> "RatPoly":
        return cls({0: value})

    @classmethod
    def t(cls, power: int = 1) -> "RatPoly":
        """The monomial t**power."""
        return cls({power: 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self):
        """Degree; -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else -math.inf

    def coefficient(self, exp: int) -> int:
        return self._coeffs[exp] if 0 <= exp < len(self._coeffs) else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero coefficients as (exponent, value) pairs in ascending order, each made when it is asked for."""
        return ((exp, c) for exp, c in enumerate(self._coeffs) if c)

    def dense_coefficients(self) -> list[int]:
        """Coefficient list c0..c_deg; [0] for the zero polynomial."""
        return list(self._coeffs) or [0]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, int):
            return RatPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for exp, c in enumerate(b):
            out[exp] += c
        return RatPoly._dense(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly._dense([-c for c in self._coeffs])

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
        if isinstance(other, int):
            return RatPoly._dense([c * other for c in self._coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RatPoly.zero()
        terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return RatPoly._dense(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7): for self = t^v b with b0 != 0, q = b^n has q0 = b0^n
        and k b0 q_k = sum over i >= 1 of ((n + 1) i - k) b_i q_(k-i), each q_k an integer, so each division is exact."""
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if not self._coeffs:
            return RatPoly.one() if exponent == 0 else RatPoly.zero()
        n, shift = exponent, next(v for v, c in enumerate(self._coeffs) if c)
        b0, *tail = self._coeffs[shift:]
        terms = [(i, (n + 1) * i, c) for i, c in enumerate(tail, 1) if c]
        q = [b0 ** n]
        for k in range(1, len(tail) * n + 1):
            acc = 0
            for i, weight, c in terms:
                if i > k:
                    break
                acc += (weight - k) * c * q[k - i]
            q.append(acc // (k * b0))
        return RatPoly._dense([0] * (shift * n) + q)

    def __call__(self, value):
        """Evaluate at a point by Horner's rule; exact at an integer point."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

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


def _trimmed(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_reciprocal(p: RatPoly, d: int) -> RatPoly:
    """The reversal t**d * p(1/t); requires d >= deg(p) so the result is a polynomial."""
    if d < 0:
        raise ValueError("reversal degree must be non-negative")
    if not p.is_zero and d < p.degree():
        raise ValueError(f"reversal degree {d} is below deg(p) = {p.degree()}")
    return RatPoly._dense([0] * (d + 1 - len(p._coeffs)) + list(reversed(p._coeffs)))


def poly_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Euclidean division over Z: a = q*b + r, deg r < deg b.

    Raises ValueError when a step's leading coefficient is not a multiple of
    lead(b); that cannot happen when lead(b) = +-1 or when b divides a over Z.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a._coeffs)
    deg_b = len(b._coeffs) - 1
    lead_b = b._coeffs[-1]
    terms = [(j, y) for j, y in enumerate(b._coeffs) if y]
    quot = [0] * max(len(rem) - deg_b, 0)
    for shift in reversed(range(len(quot))):
        factor, inexact = divmod(rem[shift + deg_b], lead_b)
        if inexact:
            raise ValueError(f"{b} does not divide {a} over Z")
        quot[shift] = factor
        if factor:
            for j, y in terms:
                rem[shift + j] -= factor * y
    return RatPoly._dense(quot), RatPoly._dense(rem[:deg_b])


def _primitive(p: RatPoly) -> RatPoly:
    content = math.gcd(*p._coeffs) * (-1 if p._coeffs and p._coeffs[-1] < 0 else 1)
    return RatPoly._dense([c // content for c in p._coeffs]) if content else p


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Gcd over Q, scaled to be primitive over Z with a positive leading coefficient.

    Zero if both are zero.  Runs Euclid on primitive pseudo-remainders: the
    remainder of lead(b)^(deg a - deg b + 1) * a by b has integer coefficients.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        scale = b._coeffs[-1] ** max(len(a._coeffs) - len(b._coeffs) + 1, 0)
        a, b = b, _primitive(poly_divmod(scale * a, b)[1])
    return a


# Every denominator in the package divides 1 - t^4 = -(t - 1)(t + 1)(t^2 + 1) (see the module docstring).
_FACTORS_OF_T4_MINUS_1 = (RatPoly({0: -1, 1: 1}), RatPoly({0: 1, 1: 1}), RatPoly({0: 1, 2: 1}))


def _cofactors() -> dict:
    """Each of the 16 divisors of 1 - t^4 over Z, +-1 times a product of some of its factors, to its cofactor."""
    pairs = [(RatPoly.one(), -RatPoly.one())]  # divisor * cofactor = -(product of the factors so far)
    for f in _FACTORS_OF_T4_MINUS_1:
        pairs = [pair for divisor, cofactor in pairs for pair in ((divisor * f, cofactor), (divisor, cofactor * f))]
    return {sign * divisor: sign * cofactor for divisor, cofactor in pairs for sign in (1, -1)}


_COFACTORS = _cofactors()


class RatFn:
    """Univariate rational function over Q, held as an integer numerator over 1 - t^4."""

    __slots__ = ("_num",)

    def __init__(self, numerator, denominator=1):
        num, den = RatPoly._coerce(numerator), RatPoly._coerce(denominator)
        if num is None or den is None:
            raise TypeError(f"cannot interpret {type(numerator).__name__} / {type(denominator).__name__}")
        cofactor = _COFACTORS.get(den)
        if cofactor is None:
            if den.is_zero:
                raise ZeroDivisionError("polynomial division by zero")
            raise ValueError(f"denominator {den} does not divide 1 - t^4")
        self._num = num * cofactor

    @classmethod
    def _from_numerator(cls, num: RatPoly) -> "RatFn":
        # Trusted path for results of arithmetic: num is already over 1 - t^4.
        out = object.__new__(cls)
        out._num = num
        return out

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, (RatPoly, int)):
            return cls(other)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFn._from_numerator(self._num + other._num)

    def __neg__(self):
        return RatFn._from_numerator(-self._num)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scale by a polynomial or an int; a product of two series is not defined (TypeError)."""
        other = RatPoly._coerce(other)
        if other is None:
            return NotImplemented
        return RatFn._from_numerator(self._num * other)

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

    def reduced(self) -> tuple[RatPoly, RatPoly]:
        """The coprime (numerator, denominator), the denominator primitive with a positive leading coefficient."""
        # s_j sums N's coefficients of degree j mod 4: N(1), N(-1), and N(i) = 0 exactly when s0 = s2 and s1 = s3.
        s0, s1, s2, s3 = (sum(self._num._coeffs[j::4]) for j in range(4))
        vanishes = (s0 + s1 + s2 + s3 == 0, s0 - s1 + s2 - s3 == 0, s0 == s2 and s1 == s3)
        den = math.prod((f for f, zero in zip(_FACTORS_OF_T4_MINUS_1, vanishes) if not zero), start=RatPoly.one())
        return (self * den).to_polynomial(), den

    def __str__(self):
        num, den = self.reduced()
        if den == RatPoly.one():
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"RatFn({self})"

    # -- queries --------------------------------------------------------------

    def to_polynomial(self) -> RatPoly:
        """The polynomial equal to this function, or NotPolynomialError: with d = deg N, the Taylor coefficients
        c_0..c_(d-4), provided that c_(d-3)..c_d all vanish."""
        coeffs = self.series(max(len(self._num._coeffs) - 1, 0))
        window = max(len(coeffs) - 4, 0)
        quotient = RatPoly._dense(coeffs[:window])
        if any(coeffs[window:]):
            raise NotPolynomialError(quotient, RatPoly._dense([0] * window + coeffs[window:]))
        return quotient

    def series(self, n_max: int) -> list[int]:
        """Exact Taylor coefficients c0..c_{n_max} at t = 0: c_k = N_k + c_{k-4}."""
        if n_max < 0:
            raise ValueError("series order must be non-negative")
        out: list[int] = []
        for k in range(n_max + 1):
            acc = self._num.coefficient(k)
            out.append(acc + out[k - 4] if k >= 4 else acc)
        return out
