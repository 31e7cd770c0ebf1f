"""An evaluation oracle for the big printed series: each list is checked at random points modulo a prime.

A polynomial identity of degree d that fails holds at a random point mod p
with probability at most d/p (Schwartz 1980, Zippel 1979); here d is about
9000 and p = 2^61 - 1.  Coefficients are read as text and reduced mod p from
144-digit pieces, linear in their digits.  The closed forms are written out
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


PIECE = 144  # digits: int() of a piece this short is cheap, and the fold stays linear in the digits


def _residue(text: str) -> int:
    """int(text) mod P, folded from PIECE-digit pieces."""
    head = len(text) % PIECE or PIECE
    value, scale = int(text[:head]) % P, pow(10, PIECE, P)
    for start in range(head, len(text), PIECE):
        value = (value * scale + int(text[start : start + PIECE])) % P
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
    assert len(lists["poincare_plus"][middle]) > 800  # a coefficient of several pieces
    planted = {**lists, "poincare_plus": list(lists["poincare_plus"])}
    planted["poincare_plus"][middle] = str(int(planted["poincare_plus"][middle]) + 1)
    assert _mismatches("plus", planted) == ["poincare_plus"]


def _bigraded(target: str, fmt: str) -> tuple:
    """The printed ``bigraded --n N``: its (k, b, count text, denominator text) entries and its ``specialized`` list."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bigraded", "--n", str(N), "--target", target, "--format", fmt, "--no-cache"]) == 0
    if fmt == "json":
        payload = json.loads(out.getvalue(), parse_int=str)
        return [(int(k), int(b), count, den) for (k, b), count, den in payload["bigraded"]], payload["specialized"]
    fields = dict(line.split(",", 1) for line in out.getvalue().splitlines()[1:])
    entries, specialized = [], []
    while f"bigraded/{len(entries)}/1" in fields:
        at = f"bigraded/{len(entries)}"
        entries.append((int(fields[f"{at}/0/0"]), int(fields[f"{at}/0/1"]), fields[f"{at}/1"], fields[f"{at}/2"]))
    while f"specialized/{len(specialized)}" in fields:
        specialized.append(fields[f"specialized/{len(specialized)}"])
    assert len(fields) == 4 * len(entries) + len(specialized) + 6  # and command, n, schema, rule, target, variety
    return entries, specialized


def _bigraded_mismatches(target: str, entries: list, specialized: list) -> list:
    """Which of ``bigraded`` and ``specialized`` differ from their closed forms at some point.

    The counts of x^k y^b sum to (1 + x y^2)^n + y^s (x + y^2)^n, with s = 2 on
    the singular fiber (the minus target at even n) and 0 on the regular one;
    x^k y^b -> t^(k + b) takes them to the Poincare polynomial.
    """
    s = 2 if target == "minus" else 0
    counts = [(k, b, _residue(count)) for k, b, count, _ in entries]
    coefficients = [_residue(text) for text in specialized]
    found = []
    if any(den != "1" for *_, den in entries) or any(
        sum(c * pow(x, k, P) * pow(y, b, P) for k, b, c in counts) % P
        != (pow(1 + x * y * y, N, P) + pow(y, s, P) * pow(x + y * y, N, P)) % P
        for x, y in zip(POINTS, POINTS[1:] + POINTS[:1])
    ):
        found.append("bigraded")
    if any(_evaluate(coefficients, r) != _closed_forms(target, r)["poincare"] for r in POINTS):
        found.append("specialized")
    return found


@functools.lru_cache(maxsize=1)  # the planted test reuses the last case's output
def _bigraded_output(target: str, fmt: str) -> tuple:
    return _bigraded(target, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["minus", "plus"])
def test_bigraded_counts_are_their_closed_forms(target, fmt):
    entries, specialized = _bigraded_output(target, fmt)
    assert _bigraded_mismatches(target, entries, specialized) == []


def test_the_bigraded_oracle_catches_one_unit_in_one_count():
    entries, specialized = _bigraded_output("plus", "json")
    middle = len(entries) // 2
    k, b, count, den = entries[middle]
    assert len(count) > 800  # a count of several pieces
    planted = [*entries[:middle], (k, b, str(int(count) + 1), den), *entries[middle + 1 :]]
    assert _bigraded_mismatches("plus", planted, specialized) == ["bigraded"]
