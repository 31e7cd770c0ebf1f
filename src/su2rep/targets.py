"""Identification of the representation variety a computation refers to.

A target is a conjugacy class of SU(2) (one of the central elements, or a
generic class isomorphic to the 2-sphere) together with the cross-cap count
``n``: the underlying surface is the connected sum of ``n + 1`` projective
planes, so points of the variety are (n+1)-tuples of unit quaternions whose
squares multiply into the class.

For central classes the variety is the regular or the singular fiber of the
product-of-squares map depending on parity: the regular fiber sits over
``(-1)^n`` and the singular fiber over ``(-1)^(n+1)``.  That parity dispatch
is centralized here so it is written (and unit tested) exactly once.  The
two types every module shares live here too: ``ConsistencyError`` and ``CheckReport``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

#: Enumerations over all 2**n exterior monomials refuse to run past this size.
ENUMERATION_CAP = 16

#: Entries kept by ``surfaces.poincare_sectors``, the memo keyed by caller input; a
#: ``verify --n-max 12`` run asks it for 39 keys.
MEMO_SIZE = 64


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: the library, never the input, is wrong."""


class CheckReport(namedtuple("CheckReport", "n failures")):
    """The outcome of a library cross-check run at n: failures, one string per discrepancy, empty when it passed."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_discrepancy(self) -> str | None:
        return self.failures[0] if self.failures else None


class TargetKind(Enum):
    CENTRAL_PLUS = "plus"
    CENTRAL_MINUS = "minus"
    GENERIC = "generic"


class Variant(Enum):
    """Regular versus singular fiber of the product-of-squares map."""

    REGULAR = "regular"
    SINGULAR = "singular"


class SurfaceTarget(namedtuple("SurfaceTarget", "kind n")):
    """An immutable, hashable (kind, n) pair, validated at construction."""

    __slots__ = ()

    def __new__(cls, kind: TargetKind, n: int):
        if not isinstance(kind, TargetKind):
            raise TypeError("kind must be a TargetKind")
        if not isinstance(n, int) or n < 0:
            raise ValueError("cross-cap count n must be a non-negative integer")
        return super().__new__(cls, kind, n)

    @property
    def is_central(self) -> bool:
        return self.kind is not TargetKind.GENERIC

    @property
    def dimension(self) -> int:
        """Real dimension of the variety: 3n, and 2 more for a generic class, a 2-sphere.

        A singular fiber also holds the tuples of pure imaginary units, (S^2)^(n+1),
        so its dimension is at least 2n + 2, which exceeds 3n for n <= 1.
        """
        if self.kind is TargetKind.GENERIC:
            return 3 * self.n + 2
        return max(3 * self.n, 2 * self.n + 2) if self.variant is Variant.SINGULAR else 3 * self.n

    @property
    def variant(self) -> Variant:
        """Regular/singular classification; only central targets have one."""
        if self.kind is TargetKind.CENTRAL_PLUS:
            return Variant.REGULAR if self.n % 2 == 0 else Variant.SINGULAR
        if self.kind is TargetKind.CENTRAL_MINUS:
            return Variant.REGULAR if self.n % 2 == 1 else Variant.SINGULAR
        raise ValueError("generic targets are neither regular nor singular fibers")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def central_minus(cls, n: int) -> "SurfaceTarget":
        return cls(TargetKind.CENTRAL_MINUS, n)

    @classmethod
    def generic(cls, n: int) -> "SurfaceTarget":
        return cls(TargetKind.GENERIC, n)

    @classmethod
    def regular(cls, n: int) -> "SurfaceTarget":
        """The central target whose variety is the regular fiber (over (-1)^n)."""
        kind = TargetKind.CENTRAL_PLUS if n % 2 == 0 else TargetKind.CENTRAL_MINUS
        return cls(kind, n)

    @classmethod
    def singular(cls, n: int) -> "SurfaceTarget":
        """The central target whose variety is the singular fiber (over (-1)^(n+1))."""
        kind = TargetKind.CENTRAL_MINUS if n % 2 == 0 else TargetKind.CENTRAL_PLUS
        return cls(kind, n)
