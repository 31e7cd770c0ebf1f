"""An evaluation oracle for the big printed series: each list is checked at random points modulo a prime.

A polynomial identity of degree d that fails holds at a random point mod p
with probability at most d/p (Schwartz 1980, Zippel 1979); here d is about
9000 and p = 2^61 - 1.  Coefficients are read as text and reduced mod p from
144-digit pieces, linear in their digits.  The closed forms are written out
from the paper's displays, not imported from ``surfaces``.  A printed series
num/den is checked against a closed form num'/den' as num(r) den'(r) =
den(r) num'(r), so no inverse is taken.
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


# -- orbit and equivariant: printed series against the displays of the pair and orbit spaces --------------------------

SERIES_LISTS = {
    "orbit": ("poincare", "pair_series"),
    "equivariant": ("t_series", "g_series", "fixed_orbit_g_series", "pair_series"),
}
# JSON on every target and CSV on generic; orbit on plus in JSON comes last, for the planted test to reuse.
SERIES_CASES = [("equivariant", "generic", "csv"), ("orbit", "generic", "csv")] + [
    (command, target, "json") for command in ("equivariant", "orbit") for target in ("generic", "minus", "plus")
]


def _series_closed_forms(target: str, r: int) -> dict:
    """Each printed list at r mod P, as (numerator, denominator).

    At even n, with A = (1+r)^n, B = (1-r)^n, R = (1+r^3)^n + (r+r^2)^n and
    S = (1+r^3)^n + r^2 (r+r^2)^n, the orbits through the fixed locus give
    A/(1-r^2) + B/(1+r^2) on plus, A/(1-r^2) on minus and 2A/(1-r^2) on
    generic.  The pair series is r(A/(1-r^2) + B/(1+r^2) - R/(1-r^4)),
    r(A/(1-r^2) - S/(1-r^4)) and r(2A/(1-r^2) - R/(1-r^2)); the orbit
    polynomial is pair - r(A+B) + (1+r)(1+r^n), pair - rA + (1+r) and
    pair - 2rA + (1+r)(1+r^n).  The Poincare polynomial R, S or (1+r^2)R
    over 1-r^4 and over 1-r^2 gives the g- and t-series.
    """
    r2 = r * r % P
    a, b = pow(1 + r, N, P), pow(1 - r, N, P)
    cube, mixed = pow(1 + r**3, N, P), pow(r + r2, N, P)
    big_r, big_s = cube + mixed, cube + r2 * mixed
    d2, d4 = 1 - r2, 1 - r2 * r2
    full_tail = (1 + r) * (1 + pow(r, N, P))
    # Plus and minus go over 1 - r^4: A/(1 - r^2) = A(1 + r^2)/(1 - r^4) and B/(1 + r^2) = B(1 - r^2)/(1 - r^4).
    if target == "plus":
        den, fixed_orbit, poincare = d4, a * (1 + r2) + b * d2, big_r
        pair = r * (fixed_orbit - big_r)
        orbit = pair + (full_tail - r * (a + b)) * d4
    elif target == "minus":
        den, fixed_orbit, poincare = d4, a * (1 + r2), big_s
        pair = r * (fixed_orbit - big_s)
        orbit = pair + (1 + r - r * a) * d4
    else:
        den, fixed_orbit, poincare = d2, 2 * a, (1 + r2) * big_r
        pair = r * (2 * a - big_r)
        orbit = pair + (full_tail - 2 * r * a) * d2
    forms = {
        "poincare": (orbit, den),
        "pair_series": (pair, den),
        "fixed_orbit_g_series": (fixed_orbit, den),
        "g_series": (poincare, d4),
        "t_series": (poincare, d2),
    }
    return {name: (num % P, den % P) for name, (num, den) in forms.items()}


def _unflatten(rows: list) -> dict:
    """The payload of CSV rows ``a/0/1,value``, nested again: a level keyed 0, 1, ... becomes a list."""
    root: dict = {}
    for row in rows:
        path, value = row.split(",", 1)
        *parents, leaf = path.split("/")
        node = root
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value

    def nested(node):
        if not isinstance(node, dict):
            return node
        if all(key.isdigit() for key in node):
            assert sorted(map(int, node)) == list(range(len(node)))
            return [nested(node[str(i)]) for i in range(len(node))]
        return {key: nested(value) for key, value in node.items()}

    return nested(root)


@functools.lru_cache(maxsize=1)  # the planted test reuses the last case's output
def _printed(command: str, target: str, fmt: str) -> dict:
    """The lists of ``command --n N`` that the oracle checks, every number as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--n", str(N), "--target", target, "--format", fmt, "--no-cache"]) == 0
    if fmt == "json":
        payload = json.loads(out.getvalue(), parse_int=str)
    else:
        payload = _unflatten(out.getvalue().splitlines()[1:])
    return {name: payload[name] for name in SERIES_LISTS[command]}


def _signed_residue(text: str) -> int:
    return -_residue(text[1:]) % P if text.startswith("-") else _residue(text)


def _coefficients(triples: list) -> list:
    """The residues of a printed polynomial's (exponent, numerator, denominator) triples, lowest degree first."""
    assert all(den == "1" for *_, den in triples)  # every printed coefficient is an integer
    out = [0] * (int(triples[-1][0]) + 1 if triples else 0)
    for e, c, _ in triples:
        out[int(e)] = _signed_residue(c)
    return out


def _fraction(printed) -> tuple:
    """(numerator, denominator) as residue lists: a coefficient list is its own numerator over 1."""
    if isinstance(printed, list):
        return [_signed_residue(c) for c in printed], [1]
    return _coefficients(printed["numerator"]), _coefficients(printed["denominator"])


def _series_mismatches(target: str, printed: dict) -> list:
    """The names of the printed lists whose num/den differs from the closed form's num'/den' at some point."""
    fractions = {name: _fraction(value) for name, value in printed.items()}
    expected = [_series_closed_forms(target, r) for r in POINTS]
    return [
        name
        for name, (num, den) in fractions.items()
        if any(
            _evaluate(num, r) * at[name][1] % P != _evaluate(den, r) * at[name][0] % P
            for r, at in zip(POINTS, expected)
        )
    ]


@pytest.mark.parametrize("command, target, fmt", SERIES_CASES)
def test_orbit_and_equivariant_series_are_their_closed_forms(command, target, fmt):
    assert _series_mismatches(target, _printed(command, target, fmt)) == []


def test_the_series_oracle_catches_one_unit_in_one_orbit_coefficient():
    printed = _printed("orbit", "plus", "json")
    middle = len(printed["poincare"]) // 2
    assert len(printed["poincare"][middle]) > 800  # a coefficient of several pieces
    planted = {**printed, "poincare": list(printed["poincare"])}
    planted["poincare"][middle] = str(int(planted["poincare"][middle]) + 1)
    assert _series_mismatches("plus", planted) == ["poincare"]
