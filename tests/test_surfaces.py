import pytest

from su2rep.ratpoly import RatFn, RatPoly, poly_reciprocal
from su2rep.surfaces import (
    bigraded_poincare,
    equivariant_poincare,
    euler_characteristic,
    fixed_orbit_space_poincare,
    gxt_equivariant_series,
    has_two_torsion,
    kernel_poincare,
    orbit_poincare,
    orbit_poincare_assembled,
    orbit_poincare_direct,
    pair_poincare,
    pair_poincare_direct,
    poincare,
    poincare_sectors,
    recursion_verify,
    specialize_total_degree,
)
from su2rep.targets import MEMO_SIZE, SurfaceTarget, TargetKind, Variant

t = RatPoly.t
one = RatPoly.one()
ALL_KINDS = (TargetKind.CENTRAL_PLUS, TargetKind.CENTRAL_MINUS, TargetKind.GENERIC)


# -- target parity dispatch -------------------------------------------------------


def test_central_value_parity_table():
    # regular fiber sits over (-1)^n, singular over (-1)^(n+1)
    for n in range(6):
        regular = SurfaceTarget.regular(n)
        singular = SurfaceTarget.singular(n)
        assert regular.variant is Variant.REGULAR
        assert singular.variant is Variant.SINGULAR
        expected_regular_kind = TargetKind.CENTRAL_PLUS if (-1) ** n == 1 else TargetKind.CENTRAL_MINUS
        assert regular.kind is expected_regular_kind
        assert singular.kind is not expected_regular_kind


def test_generic_target_has_no_variant():
    with pytest.raises(ValueError):
        _ = SurfaceTarget.generic(2).variant


def test_poincare_degree_is_the_printed_dimension():
    # singular fibers at n <= 1 hold (S^2)^(n+1), of dimension 2n + 2 > 3n
    for n in range(13):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            assert poincare(target).degree() == target.dimension, target
    assert SurfaceTarget.central_minus(0).dimension == 2
    assert SurfaceTarget(TargetKind.CENTRAL_PLUS, 1).dimension == 4


def test_target_validation():
    with pytest.raises(ValueError):
        SurfaceTarget.regular(-1)


@pytest.mark.parametrize("kind", ["plus", None, 0])
def test_target_rejects_a_kind_that_is_not_a_target_kind(kind):
    with pytest.raises(TypeError):
        SurfaceTarget(kind, 1)


@pytest.mark.parametrize("n", [-1, 1.0, "1", None])
def test_target_rejects_a_negative_or_non_int_n(n):
    with pytest.raises(ValueError):
        SurfaceTarget(TargetKind.CENTRAL_PLUS, n)


def test_target_is_immutable():
    target = SurfaceTarget(TargetKind.CENTRAL_PLUS, 2)
    for name in ("n", "kind", "extra"):
        with pytest.raises(AttributeError):
            setattr(target, name, 3)
    assert target == SurfaceTarget(TargetKind.CENTRAL_PLUS, 2)


def test_equal_targets_are_equal_and_hash_alike():
    first = SurfaceTarget(TargetKind.CENTRAL_MINUS, 3)
    second = SurfaceTarget.central_minus(3)
    assert first == second and hash(first) == hash(second)
    assert first != SurfaceTarget(TargetKind.CENTRAL_PLUS, 3)
    assert first != SurfaceTarget(TargetKind.CENTRAL_MINUS, 4)
    assert {first: "x"}[second] == "x"
    assert SurfaceTarget(kind=TargetKind.GENERIC, n=0) == SurfaceTarget.generic(0)
    assert repr(first) == "SurfaceTarget(kind=<TargetKind.CENTRAL_MINUS: 'minus'>, n=3)"


# -- Poincare polynomials ------------------------------------------------------------


def test_poincare_sphere_times_circle():
    assert poincare(SurfaceTarget.regular(1)) == one + t() + t(2) + t(3)


def test_poincare_two_sphere():
    assert poincare(SurfaceTarget.singular(0)) == one + t(2)


def test_poincare_generic_kunneth_factor():
    expected = (one + t(2)) * (one + t() + t(2) + t(3))
    assert poincare(SurfaceTarget.generic(1)) == expected


def test_sector_split_sums_to_total():
    for n in range(8):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            plus, minus = poincare_sectors(target)
            assert plus + minus == poincare(target)


def test_plus_sector_is_ambient_tuple_cohomology():
    for n in range(8):
        for make in (SurfaceTarget.regular, SurfaceTarget.singular):
            plus, _ = poincare_sectors(make(n))
            assert plus == (one + t(3)) ** n


def test_sector_memo_is_bounded_and_a_repeated_target_hits():
    poincare_sectors.cache_clear()
    for n in range(200):
        poincare_sectors(SurfaceTarget.regular(n))
    info = poincare_sectors.cache_info()
    assert info.currsize == info.maxsize == MEMO_SIZE
    poincare_sectors(SurfaceTarget.regular(199))
    assert poincare_sectors.cache_info()[:2] == (info.hits + 1, info.misses)


# -- bigrading ------------------------------------------------------------------------


def test_bigraded_closed_forms_small():
    # (1 + x y^2) + (x + y^2), then 1 + y^2, then 1 + 1
    assert bigraded_poincare(SurfaceTarget.regular(1)) == {(0, 0): 1, (1, 2): 1, (1, 0): 1, (0, 2): 1}
    assert bigraded_poincare(SurfaceTarget.singular(0)) == {(0, 0): 1, (0, 2): 1}
    assert bigraded_poincare(SurfaceTarget.regular(0)) == {(0, 0): 2}


def test_bigraded_rejects_generic():
    with pytest.raises(ValueError):
        bigraded_poincare(SurfaceTarget.generic(1))


def test_specialization_recovers_single_grading():
    for n in range(13):
        for make in (SurfaceTarget.regular, SurfaceTarget.singular):
            target = make(n)
            assert specialize_total_degree(bigraded_poincare(target)) == poincare(target)


# -- recursion bootstrap -----------------------------------------------------------------


def test_recursion_first_step_by_hand():
    # regular(1) = singular(0) + t^3 * reversal: (1 + t^2) + (t + t^3) = 1 + t + t^2 + t^3
    seed = one + t(2)
    assert seed + poly_reciprocal(seed, 3) == poincare(SurfaceTarget.regular(1))


def test_recursion_verifies_through_ten():
    report = recursion_verify(10)
    assert report.passed
    assert (report.n, report.failures) == (10, ())


def test_recursion_rejects_bad_bounds():
    with pytest.raises(ValueError):
        recursion_verify(0)


# -- equivariant series --------------------------------------------------------------------


def test_equivariant_series_small_values():
    series = equivariant_poincare(SurfaceTarget.regular(0))
    assert series.t_series == RatFn(2 * one, one - t(2))
    g_singular0 = equivariant_poincare(SurfaceTarget.singular(0)).g_series
    assert g_singular0 == RatFn(one, one - t(2))
    assert equivariant_poincare(SurfaceTarget.regular(1)).t_series == RatFn(
        one + t() + t(2) + t(3), one - t(2)
    )


def test_t_series_is_sum_of_sector_image_series():
    from su2rep.exterior import Sector
    from su2rep.locimage import ImageSpec, image_hilbert_series

    for n in range(13):
        for variant, make in ((Variant.REGULAR, SurfaceTarget.regular), (Variant.SINGULAR, SurfaceTarget.singular)):
            total = image_hilbert_series(ImageSpec(n, variant, Sector.PLUS)) + image_hilbert_series(
                ImageSpec(n, variant, Sector.MINUS)
            )
            assert equivariant_poincare(make(n)).t_series == total
        generic = equivariant_poincare(SurfaceTarget.generic(n)).t_series
        regular = equivariant_poincare(SurfaceTarget.regular(n)).t_series
        assert generic == (one + t(2)) * regular


def test_gxt_series_closed_forms():
    assert gxt_equivariant_series(SurfaceTarget(TargetKind.CENTRAL_PLUS, 0)) == RatFn(one, one - t(2)) + RatFn(
        one, one + t(2)
    )
    assert gxt_equivariant_series(SurfaceTarget.central_minus(2)) == RatFn(
        (one + t()) ** 2, one - t(2)
    )
    assert gxt_equivariant_series(SurfaceTarget.generic(1)) == RatFn(
        2 * (one + t()), one - t(2)
    )


# -- pair series ------------------------------------------------------------------------------


def test_pair_series_vanishes_for_klein_bottle_regular_fiber():
    assert not pair_poincare(SurfaceTarget.central_minus(1))


def test_pair_series_vanishes_for_generic_n0():
    assert not pair_poincare(SurfaceTarget.generic(0))


def test_pair_series_matches_direct_display():
    for n in range(9):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            assert pair_poincare(target) == pair_poincare_direct(target)


def test_pair_series_nonnegative_to_degree_30():
    for n in range(9):
        for kind in ALL_KINDS:
            series = pair_poincare(SurfaceTarget(kind, n)).series(30)
            assert all(c >= 0 for c in series)


def test_pair_series_central_plus_n1_value():
    # bracket collapses to 1 by hand: (2 + 2t^3 - (1 + 2t^3 + t^4)) / (1 - t^4)
    assert pair_poincare(SurfaceTarget(TargetKind.CENTRAL_PLUS, 1)) == RatFn(t())


# -- orbit spaces ------------------------------------------------------------------------------


def test_orbit_regular_one_crosscap():
    assert orbit_poincare(SurfaceTarget.central_minus(1)) == one + t()


def test_orbit_two_central_points():
    # X_0(+1) is the two central elements with trivial action; the quotient is S^0.
    assert orbit_poincare(SurfaceTarget(TargetKind.CENTRAL_PLUS, 0)) == RatPoly.constant(2)


def test_orbit_generic_small_values():
    # n = 0: two disjoint 2-sphere orbits, quotient is two points.
    assert orbit_poincare(SurfaceTarget.generic(0)) == RatPoly.constant(2)
    # n = 1: sphere factor collapses, circle survives.
    assert orbit_poincare(SurfaceTarget.generic(1)) == one + t()


def test_orbit_klein_bottle_point():
    assert orbit_poincare(SurfaceTarget(TargetKind.CENTRAL_PLUS, 1)) == one


def test_orbit_two_sphere_collapses_to_point():
    assert orbit_poincare(SurfaceTarget.central_minus(0)) == one


def test_orbit_two_routes_agree_everywhere():
    for n in range(11):
        for kind in ALL_KINDS:
            target = SurfaceTarget(kind, n)
            assert orbit_poincare_direct(target) == orbit_poincare_assembled(target)
            poly = orbit_poincare(target)
            assert all(c.denominator == 1 and c >= 0 for _, c in poly.items())


def test_orbit_connected_quotients_have_unit_constant_term():
    for n in range(1, 11):
        for kind in (TargetKind.CENTRAL_MINUS, TargetKind.GENERIC):
            assert orbit_poincare(SurfaceTarget(kind, n)).coefficient(0) == 1


def test_fixed_orbit_space_poincare_forms():
    assert fixed_orbit_space_poincare(SurfaceTarget(TargetKind.CENTRAL_PLUS, 2)) == (one + t()) ** 2 + (
        one - t()
    ) ** 2
    assert fixed_orbit_space_poincare(SurfaceTarget.central_minus(2)) == (one + t()) ** 2
    assert fixed_orbit_space_poincare(SurfaceTarget.generic(2)) == 2 * (one + t()) ** 2


# -- kernel, torsion, Euler characteristics ------------------------------------------------------


def test_kernel_polynomial_values():
    assert kernel_poincare(SurfaceTarget.regular(0)) == RatPoly.constant(2)
    assert kernel_poincare(SurfaceTarget.regular(3)) == one + t(3)
    assert kernel_poincare(SurfaceTarget.singular(2)) == one
    assert kernel_poincare(SurfaceTarget.generic(1)) == one + t()


def test_two_torsion_predicate():
    assert not has_two_torsion(SurfaceTarget.regular(1))
    assert has_two_torsion(SurfaceTarget.regular(2))
    assert has_two_torsion(SurfaceTarget.singular(1))
    assert not has_two_torsion(SurfaceTarget.singular(0))
    with pytest.raises(ValueError):
        has_two_torsion(SurfaceTarget.generic(3))


def test_euler_characteristics():
    assert euler_characteristic(SurfaceTarget.regular(0)) == 2
    assert euler_characteristic(SurfaceTarget.singular(0)) == 2
    for n in range(1, 13):
        assert euler_characteristic(SurfaceTarget.regular(n)) == 0
        assert euler_characteristic(SurfaceTarget.singular(n)) == 0
        assert euler_characteristic(SurfaceTarget.generic(n)) == 0


def test_poincare_duality_reciprocal():
    for n in range(13):
        p = poincare(SurfaceTarget.regular(n))
        assert poly_reciprocal(p, 3 * n) == p
