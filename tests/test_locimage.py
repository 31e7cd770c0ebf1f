import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from su2rep import locimage
from su2rep.exterior import ENUMERATION_CAP, Sector
from su2rep.locimage import (
    ImageSpec,
    OrdClass,
    bigraded_generating_function,
    cup_product,
    cup_survival,
    cup_table,
    factorization_check,
    image_basis,
    image_hilbert_series,
    image_runs,
    iter_cup_entries,
    matrix_rank_exact,
    minus_pairing_matrix,
    ordinary_basis,
    tensor_min_c1,
)
from su2rep.ratpoly import RatFn, RatPoly
from su2rep.surfaces import bigraded_poincare, poincare, poincare_sectors
from su2rep.targets import ConsistencyError, SurfaceTarget, Variant

GOLDEN = Path(__file__).parent / "golden"

t = RatPoly.t
one = RatPoly.one()


def subsets(pairs):
    """(mask, l) pairs as a set of (sorted index tuple, l) for readability."""
    return {(tuple(i + 1 for i in range(8) if mask >> i & 1), l) for mask, l in pairs}


# -- image bases and series -----------------------------------------------------


def test_minus_regular_basis_low_degrees():
    spec = ImageSpec(1, Variant.REGULAR, Sector.MINUS)
    assert subsets(image_basis(spec, 4)) == {((), 1), ((), 2), ((1,), 0), ((1,), 1)}


def test_plus_basis_low_degrees():
    for variant in Variant:
        spec = ImageSpec(1, variant, Sector.PLUS)
        assert subsets(image_basis(spec, 3)) == {((), 0), ((), 1), ((1,), 1)}


def test_minus_singular_basis_n0():
    spec = ImageSpec(0, Variant.SINGULAR, Sector.MINUS)
    assert subsets(image_basis(spec, 4)) == {((), 1), ((), 2)}


def test_basis_is_ordered_by_mask_then_power():
    spec = ImageSpec(2, Variant.REGULAR, Sector.MINUS)
    basis = image_basis(spec, 6)
    assert basis == sorted(basis)


def test_hilbert_series_small_closed_forms():
    assert image_hilbert_series(ImageSpec(1, Variant.REGULAR, Sector.PLUS)) == RatFn(
        one + t(3), one - t(2)
    )
    assert image_hilbert_series(ImageSpec(1, Variant.REGULAR, Sector.MINUS)) == RatFn(
        t() + t(2), one - t(2)
    )
    assert image_hilbert_series(ImageSpec(0, Variant.SINGULAR, Sector.MINUS)) == RatFn(
        t(2), one - t(2)
    )


def test_hilbert_series_equals_sector_poincare_over_torus_factor():
    for n in range(13):
        for variant in Variant:
            target = (
                SurfaceTarget.regular(n) if variant is Variant.REGULAR else SurfaceTarget.singular(n)
            )
            plus, minus = poincare_sectors(target)
            assert image_hilbert_series(ImageSpec(n, variant, Sector.PLUS)) == RatFn(
                plus, one - t(2)
            )
            assert image_hilbert_series(ImageSpec(n, variant, Sector.MINUS)) == RatFn(
                minus, one - t(2)
            )


def test_basis_counts_match_series_coefficients():
    for n in range(7):
        for variant in Variant:
            for sector in Sector:
                spec = ImageSpec(n, variant, sector)
                bound = 2 * n + 6
                counts = [0] * (bound + 1)
                for mask, l in image_basis(spec, bound):
                    counts[bin(mask).count("1") + 2 * l] += 1
                assert counts == image_hilbert_series(spec).series(bound)


# -- Kunneth combination ---------------------------------------------------------


def test_combined_predicates_match_direct_ones():
    # regular(n) against regular(n-1) x regular(1), all sectors
    for n in range(1, 6):
        for sector in Sector:
            combined = tensor_min_c1(
                ImageSpec(n - 1, Variant.REGULAR, sector), ImageSpec(1, Variant.REGULAR, sector)
            )
            direct = ImageSpec(n, Variant.REGULAR, sector)
            for mask in range(1 << n):
                k = bin(mask).count("1")
                assert combined(mask) == direct.min_c1_powers[k]


def test_combined_singular_predicate():
    for n in range(4):
        combined = tensor_min_c1(
            ImageSpec(n, Variant.REGULAR, Sector.MINUS), ImageSpec(0, Variant.SINGULAR, Sector.MINUS)
        )
        direct = ImageSpec(n, Variant.SINGULAR, Sector.MINUS)
        for mask in range(1 << n):
            assert combined(mask) == direct.min_c1_powers[bin(mask).count("1")]


def test_mixed_sector_combination_is_rejected():
    with pytest.raises(ValueError):
        tensor_min_c1(
            ImageSpec(1, Variant.REGULAR, Sector.PLUS), ImageSpec(1, Variant.REGULAR, Sector.MINUS)
        )


def test_image_spec_rejects_negative_n_and_is_immutable():
    with pytest.raises(ValueError):
        ImageSpec(-1, Variant.REGULAR, Sector.PLUS)
    spec = ImageSpec(2, Variant.REGULAR, Sector.PLUS)
    with pytest.raises(AttributeError):
        spec.n = 3


def test_equal_image_specs_share_lru_cache_entries():
    calls = []

    @functools.lru_cache(maxsize=None)
    def keyed(spec):
        calls.append(spec)
        return spec.min_c1_powers[spec.n]

    first = ImageSpec(3, Variant.SINGULAR, Sector.MINUS)
    second = ImageSpec(3, Variant.SINGULAR, Sector.MINUS)
    assert first == second and hash(first) == hash(second)
    assert keyed(first) == keyed(second) == 1
    assert calls == [first]
    assert keyed(ImageSpec(3, Variant.REGULAR, Sector.MINUS)) == 0


def test_min_c1_powers_are_the_least_the_predicates_admit():
    # The bidegree predicates of the module docstring, with k = |S| and l the c1-power.
    predicates = {
        (Variant.REGULAR, Sector.PLUS): lambda n, k, l: k <= l,
        (Variant.SINGULAR, Sector.PLUS): lambda n, k, l: k <= l,
        (Variant.REGULAR, Sector.MINUS): lambda n, k, l: k + l >= n,
        (Variant.SINGULAR, Sector.MINUS): lambda n, k, l: k + l >= n + 1,
    }
    for (variant, sector), admits in predicates.items():
        for n in range(8):
            least = [min(l for l in range(n + 2) if admits(n, k, l)) for k in range(n + 1)]
            assert list(locimage._min_c1_powers(n, variant, sector)) == least, (n, variant, sector)
            assert ImageSpec(n, variant, sector).min_c1_powers == locimage._min_c1_powers(n, variant, sector)


def test_factorization_hand_case_n1():
    spec = ImageSpec(1, Variant.REGULAR, Sector.MINUS)
    combined = tensor_min_c1(
        ImageSpec(0, Variant.REGULAR, Sector.MINUS), ImageSpec(1, Variant.REGULAR, Sector.MINUS)
    )
    expected = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]
    assert image_basis(spec, 6) == expected
    assert [combined(mask) for mask in (0, 1)] == [1, 0]  # the least c1-power of each run above


def _admissible_pairs(n, min_c1_of_mask, bound):
    # Every (mask, l) with l at or above the mask's least c1-power and total degree <= bound.
    return [
        (mask, l)
        for mask in range(1 << n)
        for l in range(bound + 1)
        if l >= min_c1_of_mask(mask) and mask.bit_count() + 2 * l <= bound
    ]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("sector", list(Sector))
def test_runs_expand_to_the_admissible_pairs(variant, sector):
    for n in range(7):
        spec = ImageSpec(n, variant, sector)
        for bound in range(2 * n + 7):
            runs = image_runs(spec, bound)  # run k belongs to every mask of size k
            assert len(runs) == n + 1
            expected = _admissible_pairs(n, lambda mask: spec.min_c1_powers[mask.bit_count()], bound)
            assert [(mask, l) for mask in range(1 << n) for l in runs[mask.bit_count()]] == expected
            assert image_basis(spec, bound) == expected


@pytest.mark.parametrize(
    "n, bound", [(ENUMERATION_CAP + 1, 10), (2, -1)], ids=["over-cap", "negative-bound"]
)
def test_image_runs_checks_at_the_call(n, bound):
    with pytest.raises(ValueError):
        image_runs(ImageSpec(n, Variant.REGULAR, Sector.PLUS), bound)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_factorization_check_passes(n):
    report = factorization_check(n)
    assert report.passed
    assert report.first_discrepancy is None


def test_factorization_check_refuses_n_over_the_cap():
    with pytest.raises(ValueError, match="enumeration cap"):
        factorization_check(ENUMERATION_CAP + 1)


# -- ordinary basis and cup products ---------------------------------------------


def test_ordinary_basis_n0():
    regular = ordinary_basis(0, Variant.REGULAR)
    assert [(c.sector, c.degree) for c in regular] == [(Sector.PLUS, 0), (Sector.MINUS, 0)]
    singular = ordinary_basis(0, Variant.SINGULAR)
    assert [(c.sector, (c.k, 2 * c.c1_power)) for c in singular] == [
        (Sector.PLUS, (0, 0)),
        (Sector.MINUS, (0, 2)),
    ]


def test_ordinary_basis_n1_regular_degrees():
    degrees = sorted(c.degree for c in ordinary_basis(1, Variant.REGULAR))
    assert degrees == [0, 1, 2, 3]


def test_ordinary_basis_size_matches_fixed_locus():
    for n in range(13):
        for variant in Variant:
            assert len(ordinary_basis(n, variant)) == 2 ** (n + 1)


def test_basis_degrees_reproduce_poincare_polynomial():
    for n in range(9):
        for variant, make in ((Variant.REGULAR, SurfaceTarget.regular), (Variant.SINGULAR, SurfaceTarget.singular)):
            acc = RatPoly.zero()
            for c in ordinary_basis(n, variant):
                acc = acc + t(c.degree) if c.degree else acc + one
            assert acc == poincare(make(n))


def test_cup_pairing_of_complementary_minus_classes():
    a = OrdClass(2, Variant.REGULAR, Sector.MINUS, 0b01)
    b = OrdClass(2, Variant.REGULAR, Sector.MINUS, 0b10)
    assert cup_product(a, b) == (1, OrdClass(2, Variant.REGULAR, Sector.PLUS, 0b11))


def test_cup_singular_minus_classes_annihilate():
    a = OrdClass(2, Variant.SINGULAR, Sector.MINUS, 0b01)
    b = OrdClass(2, Variant.SINGULAR, Sector.MINUS, 0b10)
    assert cup_product(a, b) is None


def test_cup_unit_acts_trivially():
    for n in range(4):
        for variant in Variant:
            unit = OrdClass(n, variant, Sector.PLUS, 0)
            for c in ordinary_basis(n, variant):
                assert cup_product(unit, c) == (1, c)
                assert cup_product(c, unit) == (1, c)


def test_cup_rejects_mismatched_varieties():
    with pytest.raises(ValueError):
        cup_product(
            OrdClass(1, Variant.REGULAR, Sector.PLUS, 0), OrdClass(1, Variant.SINGULAR, Sector.PLUS, 0)
        )


def _as_vector(product, basis_index, dim):
    vec = [0] * dim
    if product is not None:
        sign, cls = product
        vec[basis_index[cls]] = sign
    return vec


def test_cup_product_graded_commutative_and_associative():
    for n in range(4):
        for variant in Variant:
            basis = ordinary_basis(n, variant)
            index = {c: i for i, c in enumerate(basis)}
            for a, b in itertools.product(basis, repeat=2):
                left = cup_product(a, b)
                right = cup_product(b, a)
                sign = (-1) ** (a.degree * b.degree)
                assert _as_vector(left, index, len(basis)) == [
                    sign * v for v in _as_vector(right, index, len(basis))
                ]
            for a, b, c in itertools.product(basis, repeat=3):
                ab = cup_product(a, b)
                bc = cup_product(b, c)
                left = None if ab is None else cup_product(ab[1], c)
                left_sign = None if left is None else ab[0] * left[0]
                right = None if bc is None else cup_product(a, bc[1])
                right_sign = None if right is None else bc[0] * right[0]
                if left is None or right is None:
                    assert left is None and right is None
                else:
                    assert (left_sign, left[1]) == (right_sign, right[1])


def _cup_table_reference(n, variant):
    # Every ordered pair of basis classes through the single-pair API.
    basis = ordinary_basis(n, variant)
    index = {cls: i for i, cls in enumerate(basis)}
    table = []
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            product = cup_product(a, b)
            if product is not None:
                sign, cls = product
                table.append([i, j, index[cls], sign])
    return table


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("variant", list(Variant))
def test_cup_table_matches_all_pairs_reference(n, variant):
    assert cup_table(n, variant)["table"] == _cup_table_reference(n, variant)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("variant", list(Variant))
def test_cup_survival_matches_cup_product(n, variant):
    surviving = cup_survival(n, variant)
    assert set(surviving) == set(itertools.product(Sector, repeat=2))
    for rows in surviving.values():
        assert len(rows) == n + 1
        assert all(row == sorted(set(row)) and set(row) <= set(range(n - k_a + 1)) for k_a, row in enumerate(rows))
    basis = ordinary_basis(n, variant)
    for a, b in itertools.product(basis, repeat=2):
        if not a.mask & b.mask:
            assert (cup_product(a, b) is not None) == (b.k in surviving[a.sector, b.sector][a.k]), (a, b)


def test_submasks_of_given_sizes_ascend():
    for complement in range(1 << 6):
        every = [b for b in range(complement + 1) if b & complement == b]
        m = complement.bit_count()
        for sizes in itertools.chain.from_iterable(itertools.combinations(range(m + 1), r) for r in range(m + 2)):
            expected = [b for b in every if b.bit_count() in sizes]
            assert locimage._submasks(complement, list(sizes)) == expected


def test_submasks_of_as_many_sizes_as_bits_plus_one_but_not_every_size():
    # Four sizes for three bits, but 1 and 3 are missing and 5 and 6 exceed the bit count.
    assert locimage._submasks(0b111, [0, 2, 5, 6]) == [0b000, 0b011, 0b101, 0b110]


def test_cup_table_raises_when_a_product_escapes_the_image(monkeypatch):
    # With a zero minus-sector rule, minus x minus lands below the plus rule.
    broken = {Sector.PLUS: (0, 1), Sector.MINUS: (0, 0)}
    monkeypatch.setattr(locimage, "_min_c1_powers", lambda n, variant, sector: broken[sector])
    with pytest.raises(ConsistencyError):
        cup_table(1, Variant.REGULAR)
    with pytest.raises(ConsistencyError):  # at the call, before any entry is asked for
        iter_cup_entries(1, Variant.REGULAR)


def test_minus_pairing_is_perfect_for_small_n():
    for n in range(5):
        matrix = minus_pairing_matrix(n)
        assert matrix_rank_exact(matrix) == 1 << n


@pytest.mark.parametrize(
    "matrix, rank",
    [([[1, 2], [2, 4]], 1), ([[2, 4, 6], [1, 3, 5], [3, 7, 11]], 2), ([[0, 3], [2, 1]], 2), ([], 0)],
)
def test_rank_by_elimination(matrix, rank):
    assert matrix_rank_exact(matrix) == rank


def fraction_rank(matrix) -> int:
    """Rank over Q by textbook Gaussian elimination on Fractions."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, len(rows)):
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
    return rank


small_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=5)
)


@given(small_matrices)
def test_rank_matches_fraction_elimination(matrix):
    assert matrix_rank_exact(matrix) == fraction_rank(matrix)


def test_plus_subring_matches_exterior_structure_constants():
    # Independent sign oracle: count inversions by explicit insertion sort.
    def sort_sign(seq):
        seq = list(seq)
        sign = 1
        for i in range(1, len(seq)):
            j = i
            while j > 0 and seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                sign = -sign
                j -= 1
        return sign

    for n in range(5):
        for variant in Variant:
            plus = [c for c in ordinary_basis(n, variant) if c.sector is Sector.PLUS]
            for a, b in itertools.product(plus, repeat=2):
                product = cup_product(a, b)
                if set(a.indices) & set(b.indices):
                    assert product is None
                else:
                    sign, cls = product
                    assert cls.sector is Sector.PLUS
                    assert set(cls.indices) == set(a.indices) | set(b.indices)
                    assert sign == sort_sign(a.indices + b.indices)


def test_reduced_plus_times_minus_vanishes():
    for n in range(5):
        for variant in Variant:
            basis = ordinary_basis(n, variant)
            plus = [c for c in basis if c.sector is Sector.PLUS and c.mask]
            minus = [c for c in basis if c.sector is Sector.MINUS]
            assert all(cup_product(a, b) is None for a in plus for b in minus)


# -- bigrading -------------------------------------------------------------------


def test_bigraded_generating_function_matches_closed_form():
    for n in range(13):
        for variant, make in ((Variant.REGULAR, SurfaceTarget.regular), (Variant.SINGULAR, SurfaceTarget.singular)):
            assert bigraded_generating_function(n, variant) == bigraded_poincare(make(n))


# -- golden tables ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("variant", list(Variant))
def test_cup_tables_match_goldens(n, variant):
    path = GOLDEN / f"cup_table_n{n}_{variant.value}.json"
    assert json.loads(path.read_text()) == cup_table(n, variant)
