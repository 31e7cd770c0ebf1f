"""Localization images and the ordinary cohomology ring they determine.

Restriction to the torus-fixed locus embeds the equivariant cohomology of a
central-target variety into the free module spanned by a_S * c1**l.  Per
sector the image is cut out by a bidegree predicate on (k, l) with
k = |S|:

* plus sector (both variants):   k <= l
* minus sector, regular fiber:   k + l >= n
* minus sector, singular fiber:  k + l >= n + 1

Each predicate is upward closed in l, so it is captured by the minimal
admissible c1-power for each k.  The ordinary cohomology ring is the
quotient of the image by the classes divisible by c1; it is modelled here by
the canonical minimal-c1 representatives, one per (sector, subset), which
makes cup products a single bigraded multiplication followed by one
predicate test.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import combinations

from .exterior import Sector, check_enumeration_cap, koszul_sign
from .ratpoly import RatFn, RatPoly
from .targets import ConsistencyError, Variant


class ImageSpec(namedtuple("ImageSpec", "n variant sector")):
    """Per-sector localization image of one central-target variety."""

    __slots__ = ()

    def __new__(cls, n: int, variant: Variant, sector: Sector):
        self = super().__new__(cls, n, variant, sector)
        self.__post_init__()
        return self

    def __post_init__(self):
        # Called through the class at every construction, so bench/traced.py can count them.
        if self.n < 0:
            raise ValueError("n must be non-negative")

    def min_c1_power(self, k: int) -> int:
        """Smallest admissible c1-power above exterior degree k."""
        if not 0 <= k <= self.n:
            raise ValueError(f"exterior degree {k} out of range 0..{self.n}")
        return _min_c1_powers(self.n, self.variant, self.sector)[k]


def _min_c1_powers(n: int, variant: Variant, sector: Sector) -> range:
    """The least admissible c1-power above each exterior degree k = 0..n: the three cases of the module docstring."""
    if sector is Sector.PLUS:
        return range(n + 1)
    if variant is Variant.REGULAR:
        return range(n, -1, -1)
    return range(n + 1, 0, -1)


def _mask_runs(n_total, max_total_degree, min_c1_of_mask) -> Iterator[tuple[int, range]]:
    # The checks run at the call; the runs are made one at a time.
    check_enumeration_cap(n_total)
    if max_total_degree < 0:
        raise ValueError("degree bound must be non-negative")
    return (
        (mask, range(min_c1_of_mask(mask), (max_total_degree - mask.bit_count()) // 2 + 1))
        for mask in range(1 << n_total)
    )


def _mask_hilbert_series(n_total, min_c1_of_mask) -> RatFn:
    check_enumeration_cap(n_total)
    degrees = Counter(mask.bit_count() + 2 * min_c1_of_mask(mask) for mask in range(1 << n_total))
    return RatFn(RatPoly(degrees), RatPoly.one() - RatPoly.t(2))


def iter_image_runs(spec: ImageSpec, max_total_degree: int) -> Iterator[tuple[int, range]]:
    """Per subset mask, in ascending order, the range of its admissible c1-powers with total degree <= bound.

    The range depends only on k = |mask|; it is empty when the bound admits
    no c1-power.  The cap and bound checks raise when this is called, not at
    the first ``next``.
    """
    min_c1 = _min_c1_powers(spec.n, spec.variant, spec.sector)
    return _mask_runs(spec.n, max_total_degree, lambda mask: min_c1[mask.bit_count()])


def image_basis(spec: ImageSpec, max_total_degree: int) -> list[tuple[int, int]]:
    """All admissible (subset mask, c1-power) pairs with total degree <= bound.

    The runs of ``iter_image_runs``, expanded: ordered by mask
    (colexicographic on subsets) and then by c1-power.
    """
    return [(mask, l) for mask, powers in iter_image_runs(spec, max_total_degree) for l in powers]


def image_hilbert_series(spec: ImageSpec) -> RatFn:
    """Hilbert series sum(C(n,k) t^(k+2l)) over admissible (k, l), exactly."""
    degrees: Counter = Counter()
    for k, l in enumerate(_min_c1_powers(*spec)):
        degrees[k + 2 * l] += math.comb(spec.n, k)
    return RatFn(RatPoly(degrees), RatPoly.one() - RatPoly.t(2))


def tensor_min_c1(left: ImageSpec, right: ImageSpec):
    """Tensor over Q[c1] of two same-sector images, on concatenated generators: mask -> its least c1-power.

    The fixed loci of a product glue by merging the 0th coordinates and
    concatenating the rest, so the left factor owns generator indices
    1..left.n and the right factor the remaining right.n indices.  A mask
    splits into a left and a right subset, and its least c1-power is the sum
    of theirs, read from the two factor tables.  Only like sectors tensor:
    the quotient by the diagonal involution kills the mixed terms, and the
    plus (resp. minus) part of the product is plus x plus (resp. minus x minus).
    """
    if left.sector is not right.sector:
        raise ValueError("only like sectors combine; mixed sectors die in the quotient")
    left_c1, right_c1 = _min_c1_powers(*left), _min_c1_powers(*right)
    low = (1 << left.n) - 1
    return lambda mask: left_c1[(mask & low).bit_count()] + right_c1[(mask >> left.n).bit_count()]


class FactorizationReport(namedtuple("FactorizationReport", "n degree_bound failures")):
    """failures: "variant/sector: detail" for each image that does not factor."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_discrepancy(self) -> str | None:
        return self.failures[0] if self.failures else None


def default_degree_bound(n: int) -> int:
    """The degree bound 2n + 6 of an image enumerated for n generators when none is asked for."""
    return 2 * n + 6


def factorization_check(n: int) -> FactorizationReport:
    """Compare direct localization images against their product factorizations.

    The regular image on n+1 tuple slots must match (regular on n slots)
    tensor (regular on 2 slots); the singular image must match (regular on
    n+1 slots) tensor (the n = 0 singular image).  Both are checked run by
    run up to ``default_degree_bound(n)``, a differing run named by its first
    basis element, and symbolically through Hilbert series, which also pins
    down the eventually periodic tail.
    """
    if n < 1:
        raise ValueError("factorization requires n >= 1")
    bound = default_degree_bound(n)
    failures = []
    for variant in (Variant.REGULAR, Variant.SINGULAR):
        for sector in (Sector.PLUS, Sector.MINUS):
            direct = ImageSpec(n, variant, sector)
            if variant is Variant.REGULAR:
                left, right = ImageSpec(n - 1, Variant.REGULAR, sector), ImageSpec(1, Variant.REGULAR, sector)
            else:
                left, right = ImageSpec(n, Variant.REGULAR, sector), ImageSpec(0, Variant.SINGULAR, sector)
            min_c1 = tensor_min_c1(left, right)  # on left.n + right.n = n generators
            runs = zip(iter_image_runs(direct, bound), _mask_runs(n, bound, min_c1))
            differing = next(((mask, a, b) for (mask, a), (_, b) in runs if a != b), None)
            direct_series = image_hilbert_series(direct)
            # (1 - t^2) makes the right factor a polynomial, or NotPolynomialError says it does not.
            right_poly = ((RatPoly.one() - RatPoly.t(2)) * image_hilbert_series(right)).to_polynomial()
            tensor_series = image_hilbert_series(left) * right_poly
            if differing is not None:
                mask, a, b = differing
                detail = f"first differing basis element {(mask, min(set(a) ^ set(b)))}"
            elif direct_series != _mask_hilbert_series(n, min_c1) or direct_series != tensor_series:
                detail = "Hilbert series disagree"
            else:
                continue
            failures.append(f"{variant.value}/{sector.value}: {detail}")
    return FactorizationReport(n, bound, tuple(failures))


class OrdClass(namedtuple("OrdClass", "n variant sector mask")):
    """Basis class of ordinary cohomology: a sector and a generator subset.

    The class is represented by the admissible image element with the least
    c1-power over its subset; its cohomological degree is k + 2*l_min.
    """

    __slots__ = ()

    def __new__(cls, n: int, variant: Variant, sector: Sector, mask: int):
        if not 0 <= mask < (1 << n):
            raise ValueError("subset mask uses generators beyond n")
        return super().__new__(cls, n, variant, sector, mask)

    @property
    def k(self) -> int:
        return self.mask.bit_count()

    @property
    def c1_power(self) -> int:
        return _min_c1_powers(self.n, self.variant, self.sector)[self.k]

    @property
    def degree(self) -> int:
        return self.k + 2 * self.c1_power

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)


def ordinary_basis(n: int, variant: Variant) -> list[OrdClass]:
    """The 2**(n+1) canonical basis classes: all plus subsets, then all minus."""
    check_enumeration_cap(n)
    out = [OrdClass(n, variant, Sector.PLUS, mask) for mask in range(1 << n)]
    out += [OrdClass(n, variant, Sector.MINUS, mask) for mask in range(1 << n)]
    return out


def cup_product(c1: OrdClass, c2: OrdClass) -> tuple[int, OrdClass] | None:
    """Cup product of two basis classes: a signed basis class, or None for zero.

    Multiply the minimal representatives; the product survives the quotient
    by c1-divisible classes exactly when its c1-power is again minimal for
    the resulting subset.
    """
    if (c1.n, c1.variant) != (c2.n, c2.variant):
        raise ValueError("classes live on different varieties")
    if c1.mask & c2.mask:
        return None
    result = OrdClass(c1.n, c1.variant, c1.sector * c2.sector, c1.mask | c2.mask)
    l = c1.c1_power + c2.c1_power
    minimal = result.c1_power
    if l < minimal:
        raise ConsistencyError("product escaped the localization image")
    if l > minimal:
        return None
    return koszul_sign(c1.mask, c2.mask), result


def _submasks(complement: int, sizes: list[int]) -> list[int]:
    """The submasks of complement whose bit count is in sizes (distinct, ascending), in ascending order."""
    bits = [1 << p for p in range(complement.bit_length()) if complement >> p & 1]
    if len(sizes) != len(bits) + 1 or sizes[0] or sizes[-1] != len(bits):  # not every size 0..len(bits)
        return sorted(sum(chosen) for size in sizes for chosen in combinations(bits, size))
    submasks = [0]
    for bit in bits:  # bit lies above every submask so far, so the list stays ascending
        submasks += [submask | bit for submask in submasks]
    return submasks


def cup_survival(n: int, variant: Variant) -> dict[tuple[Sector, Sector], list[list[int]]]:
    """Which cup products of basis classes survive: (sector_a, sector_b) -> per k_a, the surviving k_b.

    A product of disjoint masks survives the quotient by c1-divisible classes
    when its c1-power l_a(k_a) + l_b(k_b) is the least one of its subset, so
    this is O(n^2).  A product below that least c1-power escaped the
    localization image and raises ``ConsistencyError``.
    """
    min_c1 = {sector: _min_c1_powers(n, variant, sector) for sector in Sector}
    surviving = {}
    for sector_a in Sector:
        for sector_b in Sector:
            l_a, l_b, l_min = min_c1[sector_a], min_c1[sector_b], min_c1[sector_a * sector_b]
            surviving[sector_a, sector_b] = by_k_a = [[] for _ in range(n + 1)]
            for k_a in range(n + 1):
                for k_b in range(n - k_a + 1):  # disjoint: k_a + k_b <= n
                    excess = l_a[k_a] + l_b[k_b] - l_min[k_a + k_b]
                    if excess < 0:
                        raise ConsistencyError("product escaped the localization image")
                    if not excess:
                        by_k_a[k_a].append(k_b)
    return surviving


def iter_cup_entries(n: int, variant: Variant) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
    """The nonzero entries of ``cup_table`` as (i, [(j, k, coeff), ...]) per left factor i that has any, in order.

    ``cup_survival`` runs at the call, so an escape raises before any entry
    is made.  The walk visits, for each left factor and right sector, only
    the submasks of the complement whose size survives.
    """
    check_enumeration_cap(n)
    return _cup_walk(n, cup_survival(n, variant))


def _cup_walk(n: int, surviving: dict) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
    offset = {Sector.PLUS: 0, Sector.MINUS: 1 << n}
    full = (1 << n) - 1
    for sector_a in Sector:
        # (index of the right sector's first class, of the product's, surviving sizes by k_a)
        right = [(offset[b], offset[sector_a * b], surviving[sector_a, b]) for b in Sector]
        for mask in range(1 << n):
            complement, k_a = full ^ mask, mask.bit_count()
            products = []
            for j0, k0, sizes in right:
                k = k0 + mask  # b is disjoint from mask, so the product's mask is mask + b
                products += [(j0 + b, k + b, koszul_sign(mask, b)) for b in _submasks(complement, sizes[k_a])]
            if products:
                yield offset[sector_a] + mask, products


def cup_table(n: int, variant: Variant) -> dict:
    """Full multiplication table over the canonical basis, as plain values.

    Entries are [i, j, k, coeff] with basis indices into ``basis`` and only
    nonzero products listed, in the order of (i, j): the entries of
    ``iter_cup_entries``, whose products are those of ``cup_product``.
    """
    return {
        "n": n,
        "target": variant.value,
        "basis": [
            {"sector": cls.sector.value, "subset": list(cls.indices), "c1_power": cls.c1_power, "coeff": "1"}
            for cls in ordinary_basis(n, variant)
        ],
        "table": [[i, j, k, coeff] for i, products in iter_cup_entries(n, variant) for j, k, coeff in products],
    }


def minus_pairing_matrix(n: int) -> list[list[int]]:
    """Pairing of minus-sector classes of the regular variety into top degree 3n."""
    check_enumeration_cap(n)
    top = OrdClass(n, Variant.REGULAR, Sector.PLUS, (1 << n) - 1)
    size = 1 << n
    matrix = []
    for mask_a in range(size):
        row = []
        a = OrdClass(n, Variant.REGULAR, Sector.MINUS, mask_a)
        for mask_b in range(size):
            b = OrdClass(n, Variant.REGULAR, Sector.MINUS, mask_b)
            product = cup_product(a, b)
            if product is None:
                row.append(0)
            else:
                sign, cls = product
                row.append(sign if cls == top else 0)
        matrix.append(row)
    return matrix


def matrix_rank_exact(matrix: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free Gaussian elimination.

    Each eliminated row is cross-multiplied and then divided by its content,
    so the entries stay integers and the rows stay primitive.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                row = [lead * rv - factor * pv for rv, pv in zip(rows[r], rows[rank])]
                content = math.gcd(*row) or 1
                rows[r] = [v // content for v in row]
        rank += 1
        if rank == len(rows):
            break
    return rank


def bigraded_generating_function(n: int, variant: Variant) -> dict[tuple[int, int], int]:
    """Canonical basis classes counted by bidegree (k, 2l), as a dict with no zero entries.

    Every subset mask is visited once, and counted in each sector at its
    least c1-power, read from the sector's table.
    """
    check_enumeration_cap(n)
    sizes = Counter(mask.bit_count() for mask in range(1 << n))
    counts: Counter = Counter()
    for sector in Sector:
        min_c1 = _min_c1_powers(n, variant, sector)
        for k, count in sizes.items():
            counts[k, 2 * min_c1[k]] += count
    return dict(counts)
