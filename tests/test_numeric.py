import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from su2rep import quaternions as quat
from su2rep.numeric import (
    J,
    MINUS_ONE,
    ONE,
    RANK_TOL,
    ChartReport,
    box,
    box_differential,
    box_singular_values,
    chart_point,
    conjugate_tuple,
    dist,
    fixed_point_residual,
    flip_zeroth,
    hamilton,
    normals,
    numeric_check_suite,
    principal_root,
    product_of_squares,
    random_angles,
    random_axes,
    random_units,
    singular_example,
    singular_values,
    sqrt_fiber_is_sphere,
    square,
    uniforms,
    x1r_chart_check,
)
from su2rep.targets import SurfaceTarget, TargetKind

I = quat.IDENTITY
J_ROW = np.array([0.0, 0.0, 1.0, 0.0])


def _bits(seed=12345):
    return random.Random(seed)


def _tuples(bits, count, size):
    units = random_units(bits, count * size)
    return [units[i : i + size] for i in range(0, count * size, size)]


def _array(quaternions):
    """Complex pairs (w + x i, y + z i), nested in lists, as a numpy array of (w, x, y, z) rows."""
    if isinstance(quaternions[0], complex):
        a, b = quaternions
        return np.array([a.real, a.imag, b.real, b.imag])
    return np.array([_array(q) for q in quaternions])


def _pairs(rows):
    """The rows (w, x, y, z) of a numpy array as complex pairs."""
    return [(complex(w, x), complex(y, z)) for w, x, y, z in np.asarray(rows, dtype=float).tolist()]


# -- the numpy forms ------------------------------------------------------------


def test_box_of_identity_tuple():
    assert np.allclose(box(np.tile(I, (4, 1))), I)


def test_box_of_single_imaginary_unit():
    assert np.allclose(box(J_ROW[None, :]), quat.MINUS_IDENTITY)


def test_box_of_constant_imaginary_tuple():
    for n in range(4):
        expected = I if (n + 1) % 2 == 0 else quat.MINUS_IDENTITY
        assert np.allclose(box(singular_example(n)), expected)


# -- the standard-library kernels against the numpy forms -----------------------------


def test_hamilton_product_and_square_match_numpy():
    left, right = random_units(_bits(1), 500), random_units(_bits(2), 500)
    products = _array([hamilton(p, q) for p, q in zip(left, right)])
    assert np.max(np.abs(products - quat.mul(_array(left), _array(right)))) <= 1e-15
    assert np.max(np.abs(_array([square(p) for p in left]) - quat.square(_array(left)))) <= 1e-15


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_product_of_squares_matches_box(size):
    tuples = _tuples(_bits(size), 300, size)
    assert np.max(np.abs(_array([product_of_squares(t) for t in tuples]) - box(_array(tuples)))) <= 1e-15


@pytest.mark.parametrize("size", [2, 3, 4])
def test_singular_values_match_numpy_svd(size):
    tuples = _tuples(_bits(10 + size), 500, size)
    mine = np.array([singular_values(t) for t in tuples])
    assert np.max(np.abs(mine - box_singular_values(_array(tuples)))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_third_singular_value_vanishes_at_the_singular_example(n):
    assert _pairs(singular_example(n)) == [J] * (n + 1)
    assert singular_values([J] * (n + 1))[2] <= 1e-12
    assert box_singular_values(singular_example(n))[2] <= 1e-12


def test_singular_values_stay_accurate_where_two_meet():
    # spectra known in closed form: a one-entry tuple [g] has Y = the vector part of g,
    # so (2, 2|w|, 2|w|); g (J, J, J) g^-1 has (2 sqrt 3, 0, 0); [1] is exactly (2, 2, 2),
    # checked by test_rank_at_identity_singleton
    for g in random_units(_bits(6), 2000):
        found, w = singular_values([g]), abs(g[0].real)
        assert max(abs(a - b) for a, b in zip(found, [2.0, 2.0 * w, 2.0 * w])) <= 1e-14, g
        found = singular_values(conjugate_tuple([J] * 3, g))
        assert max(abs(a - b) for a, b in zip(found, [2.0 * math.sqrt(3.0), 0.0, 0.0])) <= 1e-14, g


def test_conjugation_by_g_is_g_q_g_inverse():
    points, units = random_units(_bits(3), 200), random_units(_bits(4), 200)
    for q, g in zip(points, units):
        inverse = (g[0].conjugate(), -g[1])
        assert dist(conjugate_tuple([q], g)[0], hamilton(hamilton(g, q), inverse)) <= 1e-15


# -- product of squares -------------------------------------------------------


def test_product_of_squares_of_constant_imaginary_tuple():
    for n in range(4):
        assert product_of_squares([J] * (n + 1)) == (ONE if (n + 1) % 2 == 0 else MINUS_ONE)


def test_box_conjugation_equivariance():
    bits = _bits()
    for points, g in zip(_tuples(bits, 200, 3), random_units(bits, 200)):
        left = product_of_squares(conjugate_tuple(points, g))
        right = conjugate_tuple([product_of_squares(points)], g)[0]
        assert dist(left, right) < 1e-12


def test_zeroth_flip_preserves_box_exactly():
    for points in _tuples(_bits(), 200, 3):
        flipped = flip_zeroth(points)
        assert flipped[0] == (-points[0][0], -points[0][1]) and flipped[1:] == points[1:]
        assert product_of_squares(flipped) == product_of_squares(points)


# -- differential rank ----------------------------------------------------------


def test_rank_three_at_random_points():
    assert all(singular_values(points)[2] > RANK_TOL for points in _tuples(_bits(), 500, 3))


def test_rank_drops_at_constant_imaginary_tuple():
    assert singular_values([J] * 3)[2] <= RANK_TOL


def test_rank_at_identity_singleton():
    # differential is xi -> 2 xi, full rank
    assert singular_values([ONE]) == [2.0, 2.0, 2.0]


def test_rank_drops_at_conjugates_of_the_constant_imaginary_tuple():
    # g (J, J, J) g^-1 is critical too; off the axes the rotated rows of Y resolve its
    # zero singular values to about eps, as the SVD of the numpy form does
    conjugates = [conjugate_tuple([J] * 3, g) for g in random_units(_bits(8), 200)]
    for points in conjugates:
        values = singular_values(points)
        assert sum(value > RANK_TOL for value in values) == 1
        assert max(values[1:]) <= 1e-13
    assert np.max(box_singular_values(_array(conjugates))[:, 1:]) <= 1e-13


def test_singular_value_gap():
    floor = min(singular_values(points)[2] for points in _tuples(_bits(), 500, 2))
    degenerate = singular_values([J] * 2)[2]
    assert floor > 1e4 * max(degenerate, 1e-300)


# -- square-root fibers ------------------------------------------------------------


def test_sqrt_of_identity_is_antipodal_pair():
    assert not sqrt_fiber_is_sphere(ONE)
    root = principal_root(ONE)
    assert root == ONE
    assert square(root) == square((-root[0], -root[1])) == ONE


def test_sqrt_of_minus_identity_is_sphere():
    assert sqrt_fiber_is_sphere(MINUS_ONE)
    assert sqrt_fiber_is_sphere((complex(-1.0, 1e-10), 0j))
    assert max(dist(square(axis), MINUS_ONE) for axis in random_axes(_bits(), 50)) < 1e-12


def test_sqrt_half_angle_values():
    # rotation by pi/2 about the torus axis splits into angles pi/4 and pi/4 + pi
    root = principal_root((1j, 0j))
    assert dist(root, (complex(math.cos(math.pi / 4), math.sin(math.pi / 4)), 0j)) < 1e-15


def test_sqrt_roundtrip_bulk():
    residual = max(dist(square(principal_root(g)), g) for g in random_units(_bits(), 10_000))
    assert residual < 1e-9


def test_principal_root_matches_numpy():
    units = random_units(_bits(5), 500)
    mine = _array([principal_root(g) for g in units])
    assert np.max(np.abs(mine - quat.principal_sqrt(_array(units)))) <= 1e-15


# -- the sphere-times-circle chart ----------------------------------------------------


def test_chart_lands_on_variety_at_zero_angle():
    for axis in random_axes(_bits(), 10):
        first, second = chart_point(axis, 0.0)
        assert first == ONE
        assert dist(second, axis) < 1e-15  # exp(pi/2 X) = X


def test_chart_relation_identity():
    bits = _bits()
    for axis, t in zip(random_axes(bits, 100), random_angles(bits, 100)):
        assert dist(product_of_squares(chart_point(axis, t)), MINUS_ONE) < 1e-12


def test_chart_check_passes():
    report = x1r_chart_check(2000, seed=0)
    assert isinstance(report, ChartReport)
    assert report.passed
    assert report.max_relation_residual <= 1e-10
    assert report.max_equivariance_residual <= 1e-10
    assert report.min_output_separation > 1e-8


def test_chart_check_rejects_empty_sample():
    with pytest.raises(ValueError):
        x1r_chart_check(0)


def test_chart_check_of_one_sample_has_no_pairs():
    report = x1r_chart_check(1, seed=3)
    assert report.min_output_separation == math.inf
    assert report.passed  # decided by the residuals alone


def _all_pairs_separation(samples, seed):
    """The chart's output separation over every pair, from the draws x1r_chart_check makes."""
    bits = random.Random(seed)
    axes = random_axes(bits, samples)
    points = [chart_point(axis, t) for axis, t in zip(axes, random_angles(bits, samples))][:256]
    rows = [(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag) for (a, b), (c, d) in points]
    return min(math.dist(p, q) for i, p in enumerate(rows) for q in rows[i + 1 :])


def test_chart_separations_are_the_all_pairs_ones_in_bounded_memory():
    for samples in (2, 3, 31, 256, 257):  # at most the first 256 chart points are compared
        for seed in range(5):
            report = x1r_chart_check(samples, seed)
            assert report.min_output_separation == _all_pairs_separation(samples, seed), (samples, seed)
    tracemalloc.start()
    try:
        numeric_check_suite(seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak} bytes"


# -- fixed points -----------------------------------------------------------------------


def _circle(count):
    return [(complex(math.cos(t), math.sin(t)), 0j) for t in random_angles(_bits(), count)]


def test_fixed_point_residual_of_torus_tuple_is_zero():
    assert fixed_point_residual(_circle(5)) == 0.0


def test_fixed_point_residual_of_j_is_one():
    assert fixed_point_residual([J]) == 1.0


def test_fixed_point_residual_after_conjugation():
    moved = conjugate_tuple(_circle(5), random_units(_bits(7), 1)[0])
    assert fixed_point_residual(moved) > 1e-3


# -- dimension at smooth points ------------------------------------------------

_IJK = [(1j, 0j), (0j, 1 + 0j), (0j, 1j)]


@pytest.mark.parametrize(
    "target, points",
    [
        (SurfaceTarget.regular(0), [I]),
        (SurfaceTarget.regular(0), [quat.MINUS_IDENTITY]),
        (SurfaceTarget.singular(0), singular_example(0)),
        (SurfaceTarget.regular(1), _array([chart_point(axis, t) for axis, t in zip(_IJK, [0.3, 1.0, 2.0])])),
        (SurfaceTarget.regular(2), [I, I, I]),
        (SurfaceTarget.generic(1), [quat.principal_sqrt(J_ROW), I]),
    ],
    ids=["regular-0-at-1", "regular-0-at-minus-1", "singular-0-at-j", "regular-1-chart", "regular-2-at-1", "generic-1"],
)
def test_dimension_is_the_tuple_dimension_less_the_constraint_rank(target, points):
    # 3(n+1) minus the rank of the constraint differential: all three rows for a
    # central class, only the trace row for a generic class
    points = np.asarray(points, dtype=float)
    values, differential = box(points), box_differential(points)
    if target.is_central:
        center = I if target.kind is TargetKind.CENTRAL_PLUS else quat.MINUS_IDENTITY
        assert np.allclose(values, center)
        ranks = np.sum(box_singular_values(points) > RANK_TOL, axis=-1)
    else:
        assert np.allclose(values[..., 0], 0.0)  # trace zero
        trace_row = np.einsum("...i,...ij->...j", values[..., 1:], differential)
        ranks = (np.linalg.norm(trace_row, axis=-1) > RANK_TOL).astype(int)
    assert np.all(3 * (target.n + 1) - ranks == target.dimension)


# -- the seeded stream ------------------------------------------------------------------


def test_seeded_stream_is_pinned():
    # the oracle's draws for seed 0; any change to the stream changes every numeric-check residual
    assert uniforms(random.Random(0), 3) == [0.38524530801093704, 0.8902439183457648, 0.040484381006232306]
    assert uniforms(random.Random(0), 1) == [(random.Random(0).getrandbits(64) >> 11) / 2**53]
    assert normals(random.Random(0), 3) == [0.9546981644685173, 2.0528436906007133, 0.24822438615934558]
    assert [-1.0 + 2.0 * u for u in uniforms(random.Random(0), 2)] == [-0.22950938397812592, 0.7804878366915295]


def test_seeded_stream_reads_successive_64_bit_words():
    bits, words = random.Random(9), random.Random(9)
    expected = [(words.getrandbits(64) >> 11) * 2.0**-53 for _ in range(1000)]
    assert uniforms(bits, 400) + uniforms(bits, 600) == expected
    assert random_angles(random.Random(9), 5) == [2.0 * math.pi * u for u in expected[:5]]


def test_seeded_stream_draws_have_the_right_size_range_and_moments():
    bits = random.Random(7)
    draws = uniforms(bits, 1200)
    assert len(draws) == 1200 and all(isinstance(u, float) and 0.0 <= u < 1.0 for u in draws)
    values = normals(bits, 20_001)
    assert len(values) == 20_001
    assert abs(statistics.fmean(values)) < 0.05 and abs(statistics.pstdev(values) - 1.0) < 0.05
    units = random_units(bits, 30)
    assert len(units) == 30 and all(abs(dist(g, (0j, 0j)) - 1.0) < 1e-15 for g in units)
    axes = random_axes(bits, 30)
    assert all(a.real == 0.0 and abs(dist(axis, (0j, 0j)) - 1.0) < 1e-15 for axis in axes for a in axis[:1])


def test_numeric_suite_all_pass():
    rows = numeric_check_suite(seed=0)
    assert all(row["pass"] for row in rows)
    names = {row["check_name"] for row in rows}
    assert {"sqrt_roundtrip", "x1r_chart", "regular_rank_gap"} <= names


def test_exact_residuals_stay_exactly_zero():
    for seed in range(4):
        rows = {row["check_name"]: row for row in numeric_check_suite(seed)}
        for name in ("zeroth_flip_invariance", "regular_rank_gap", "fixed_point_residual"):
            assert rows[name]["max_residual"] == 0.0, (seed, name)
