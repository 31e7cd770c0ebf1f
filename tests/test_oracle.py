"""An evaluation oracle for the big printed series: each list is checked at random points modulo a prime.

A polynomial identity of degree d that fails holds at a random point mod p
with probability at most d/p (Schwartz 1980, Zippel 1979); here d is about
9000 and p = 2^61 - 1.  Coefficients are read as text and reduced mod p from
18-digit pieces, linear in their digits.  The closed forms are written out
from the paper's displays, not imported from ``surfaces``.
"""

import contextlib
import functools
import io
import json
import random

import pytest

from su2rep.cli import main

P = (1 << 61) - 1
POINTS = [random.Random(2008).randrange(2, P) for _ in range(3)]
N = 3000  # even: the plus target is the regular fiber and the minus target the singular one
LISTS = ("poincare", "poincare_plus", "poincare_minus")


def _residue(text: str) -> int:
    """int(text) mod P, folded from 18-digit pieces."""
    head = len(text) % 18 or 18
    value = int(text[:head])
    for start in range(head, len(text), 18):
        value = (value * 10**18 + int(text[start : start + 18])) % P
    return value


def _evaluate(residues: list, r: int) -> int:
    """The polynomial with these coefficients mod P, lowest degree first, at r mod P."""
    value = 0
    for c in reversed(residues):
        value = (value * r + c) % P
    return value


def _closed_forms(target: str, r: int) -> dict:
    """The betti lists at r mod P.

    (1 + r^3)^n + (r + r^2)^n, the second term times r^2 on the singular
    fiber, and both times 1 + r^2 for the generic class, a 2-sphere.
    """
    plus, minus = pow(1 + r**3, N, P), pow(r + r * r, N, P)
    if target == "minus":
        minus = minus * r * r % P
    if target == "generic":
        plus, minus = plus * (1 + r * r) % P, minus * (1 + r * r) % P
    return {"poincare": (plus + minus) % P, "poincare_plus": plus, "poincare_minus": minus}


@functools.lru_cache(maxsize=1)  # the planted test reuses the last case's output
def _betti(target: str, fmt: str) -> tuple:
    """The printed lists of ``betti --n N``, coefficients as text, and its printed dimension."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["betti", "--n", str(N), "--target", target, "--format", fmt, "--no-cache"]) == 0
    if fmt == "json":
        payload = json.loads(out.getvalue(), parse_int=str)
        return {name: payload[name] for name in LISTS}, payload["dimension"]
    lists, dimension = {name: [] for name in LISTS}, None
    for line in out.getvalue().splitlines()[1:]:
        path, value = line.split(",", 1)
        name, _, index = path.partition("/")
        if name in lists:
            assert int(index) == len(lists[name])
            lists[name].append(value)
        elif name == "dimension":
            dimension = value
    return lists, dimension


def _mismatches(target: str, lists: dict) -> list:
    """The names of the lists that differ from their closed forms at some point."""
    expected = [_closed_forms(target, r) for r in POINTS]
    residues = {name: [_residue(text) for text in lists[name]] for name in LISTS}
    return [name for name in LISTS if any(_evaluate(residues[name], r) != at[name] for r, at in zip(POINTS, expected))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["generic", "minus", "plus"])
def test_betti_lists_are_their_closed_forms(target, fmt):
    lists, dimension = _betti(target, fmt)
    assert _mismatches(target, lists) == []
    assert int(dimension) == len(lists["poincare"]) - 1


def test_the_oracle_catches_one_unit_in_one_coefficient():
    lists, _ = _betti("plus", "json")
    middle = len(lists["poincare_plus"]) // 2
    assert len(lists["poincare_plus"][middle]) > 800  # a coefficient of many 18-digit pieces
    planted = {**lists, "poincare_plus": list(lists["poincare_plus"])}
    planted["poincare_plus"][middle] = str(int(planted["poincare_plus"][middle]) + 1)
    assert _mismatches("plus", planted) == ["poincare_plus"]
