import random
import tracemalloc

import numpy as np
import pytest

from su2rep import quaternions as quat
from su2rep.numeric import (
    RANK_TOL,
    ChartReport,
    SeededStream,
    box,
    box_differential,
    box_differential_rank,
    box_singular_values,
    conjugate_tuple,
    fixed_point_residual,
    flip_zeroth,
    numeric_check_suite,
    singular_example,
    sqrt_fiber,
    x1r_chart,
    x1r_chart_check,
)
from su2rep.targets import SurfaceTarget, TargetKind

RNG = np.random.default_rng(12345)

I = quat.IDENTITY
J = np.array([0.0, 0.0, 1.0, 0.0])


# -- product of squares -------------------------------------------------------


def test_box_of_identity_tuple():
    assert np.allclose(box(np.tile(I, (4, 1))), I)


def test_box_of_single_imaginary_unit():
    assert np.allclose(box(J[None, :]), quat.MINUS_IDENTITY)


def test_box_of_constant_imaginary_tuple():
    for n in range(4):
        expected = I if (n + 1) % 2 == 0 else quat.MINUS_IDENTITY
        assert np.allclose(box(singular_example(n)), expected)


def test_box_conjugation_equivariance():
    points = quat.random_unit(RNG, (200, 3))
    g = quat.random_unit(RNG, 200)
    left = box(conjugate_tuple(points, g))
    right = quat.mul(quat.mul(g, box(points)), quat.conj(g))
    assert np.max(quat.dist(left, right)) < 1e-12


def test_zeroth_flip_preserves_box_exactly():
    points = quat.random_unit(RNG, (200, 3))
    assert np.array_equal(box(flip_zeroth(points)), box(points))


# -- differential rank ----------------------------------------------------------


def test_rank_three_at_random_points():
    points = quat.random_unit(RNG, (500, 3))
    assert np.all(box_differential_rank(points) == 3)


def test_rank_drops_at_constant_imaginary_tuple():
    assert box_differential_rank(singular_example(2)) < 3


def test_rank_at_identity_singleton():
    # differential is xi -> 2 xi, full rank
    assert box_differential_rank(I[None, :]) == 3


def test_singular_value_gap():
    points = quat.random_unit(RNG, (500, 2))
    floor = box_singular_values(points)[:, 2].min()
    degenerate = box_singular_values(singular_example(1))[2]
    assert floor > 1e4 * max(degenerate, 1e-300)


# -- square-root fibers ------------------------------------------------------------


def test_sqrt_of_identity_is_antipodal_pair():
    fiber = sqrt_fiber(I)
    assert fiber.kind == "two_points"
    assert np.allclose(sorted(fiber.points[:, 0]), [-1.0, 1.0])
    assert np.allclose(quat.square(fiber.points), np.stack([I, I]))


def test_sqrt_of_minus_identity_is_sphere():
    fiber = sqrt_fiber(quat.MINUS_IDENTITY)
    assert fiber.kind == "two_sphere"
    axes = quat.random_axis(RNG, 50)
    points = fiber.sphere_point(axes)
    assert np.max(quat.dist(quat.square(points), quat.MINUS_IDENTITY)) < 1e-12


def test_sqrt_half_angle_values():
    # rotation by pi/2 about the torus axis splits into angles pi/4 and pi/4 + pi
    g = np.array([0.0, 1.0, 0.0, 0.0])
    fiber = sqrt_fiber(g)
    expected = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0, 0.0])
    found = fiber.points
    assert np.allclose(found[0], expected) or np.allclose(found[1], expected)
    assert np.allclose(found[0], -found[1])


def test_sqrt_roundtrip_bulk():
    g = quat.random_unit(RNG, 10_000)
    residual = np.max(quat.dist(quat.square(quat.principal_sqrt(g)), g))
    assert residual < 1e-9


# -- the sphere-times-circle chart ----------------------------------------------------


def test_chart_lands_on_variety_at_zero_angle():
    axes = quat.random_axis(RNG, 10)
    points = x1r_chart(axes, np.zeros(10))
    assert np.allclose(points[:, 0], I)
    assert np.allclose(points[:, 1], quat.exp_im((np.pi / 2) * axes))


def test_chart_relation_identity():
    axes = quat.random_axis(RNG, 100)
    angles = RNG.uniform(0, 2 * np.pi, 100)
    points = x1r_chart(axes, angles)
    relation = quat.mul(quat.square(points[:, 0]), quat.square(points[:, 1]))
    assert np.max(quat.dist(relation, quat.MINUS_IDENTITY)) < 1e-12


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
    assert report.min_output_separation == np.inf
    assert report.passed  # decided by the residuals alone


def _all_pairs_separation(samples, seed):
    """The chart's output separation as computed all pairs at once, from the draws x1r_chart_check makes."""
    rng = SeededStream(seed)
    axes = quat.random_axis(rng, samples)
    angles = rng.uniform(0.0, 2.0 * np.pi, samples)
    points = x1r_chart(axes, angles)
    keep = min(samples, 256)
    flat = points[:keep].reshape(keep, 8)
    diff = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=-1)
    return float(diff[~np.eye(keep, dtype=bool)].min())


def test_chart_separations_are_the_all_pairs_ones_in_bounded_memory():
    for samples in (2, 31, 32, 33, 256, 10_000):  # blocks of 32 rows: one, a part, whole, and one more
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


def test_fixed_point_residual_of_torus_tuple_is_zero():
    angles = RNG.uniform(0, 2 * np.pi, 5)
    diagonal = np.stack([np.cos(angles), np.sin(angles), np.zeros(5), np.zeros(5)], axis=1)
    assert fixed_point_residual(diagonal) == 0.0


def test_fixed_point_residual_of_j_is_one():
    assert fixed_point_residual(J[None, :]) == 1.0


def test_fixed_point_residual_after_conjugation():
    angles = RNG.uniform(0, 2 * np.pi, 5)
    diagonal = np.stack([np.cos(angles), np.sin(angles), np.zeros(5), np.zeros(5)], axis=1)
    moved = conjugate_tuple(diagonal, quat.random_unit(RNG))
    assert fixed_point_residual(moved) > 1e-3


# -- dimension at smooth points ------------------------------------------------


@pytest.mark.parametrize(
    "target, points",
    [
        (SurfaceTarget.regular(0), [I]),
        (SurfaceTarget.regular(0), [quat.MINUS_IDENTITY]),
        (SurfaceTarget.singular(0), singular_example(0)),
        (SurfaceTarget.regular(1), x1r_chart(np.eye(3), [0.3, 1.0, 2.0])),
        (SurfaceTarget.regular(2), [I, I, I]),
        (SurfaceTarget.generic(1), [quat.principal_sqrt(J), I]),
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
        ranks = box_differential_rank(points)
    else:
        assert np.allclose(values[..., 0], 0.0)  # trace zero
        trace_row = np.einsum("...i,...ij->...j", values[..., 1:], differential)
        ranks = (np.linalg.norm(trace_row, axis=-1) > RANK_TOL).astype(int)
    assert np.all(3 * (target.n + 1) - ranks == target.dimension)


def test_seeded_stream_is_pinned():
    # the oracle's draws for seed 0; any change to the stream changes every numeric-check residual
    assert SeededStream(0).random(3).tolist() == [0.38524530801093704, 0.8902439183457648, 0.040484381006232306]
    assert SeededStream(0).random() == (random.Random(0).getrandbits(64) >> 11) / 2**53
    assert SeededStream(0).standard_normal(3).tolist() == [0.9546981644685173, 2.0528436906007133, 0.24822438615934558]
    assert SeededStream(0).uniform(-1.0, 1.0, 2).tolist() == [-0.22950938397812592, 0.7804878366915295]


def test_seeded_stream_draws_have_the_right_shape_range_and_moments():
    rng = SeededStream(7)
    uniforms = rng.random((300, 4))
    assert uniforms.shape == (300, 4) and uniforms.dtype == np.float64
    assert 0.0 <= uniforms.min() and uniforms.max() < 1.0
    normals = rng.standard_normal((20_001,))
    assert normals.shape == (20_001,)
    assert abs(normals.mean()) < 0.05 and abs(normals.std() - 1.0) < 0.05
    unit = quat.random_unit(rng, (10, 3))
    assert unit.shape == (10, 3, 4) and np.allclose(np.linalg.norm(unit, axis=-1), 1.0)


def test_numeric_suite_all_pass():
    rows = numeric_check_suite(seed=0)
    assert all(row["pass"] for row in rows)
    names = {row["check_name"] for row in rows}
    assert {"sqrt_roundtrip", "x1r_chart", "regular_rank_gap"} <= names
