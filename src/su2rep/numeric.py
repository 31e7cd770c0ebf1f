"""Floating-point oracle for the finite-dimensional geometry.

The symbolic modules own the topology; this module draws unit-quaternion
tuples and checks the geometric facts the closed forms rest on: the
product-of-squares map and the rank of its differential, square-root fibers,
the sphere-times-circle chart of the first regular variety, and the
torus-fixed locus.

Randomness is always drawn from a ``SeededStream``, an explicitly seeded
stream built on the standard library's Mersenne Twister, so every report is
reproducible, under any numpy release, and no command loads ``numpy.random``.
"""

from __future__ import annotations

import random
from collections import namedtuple

import numpy as np

from . import quaternions as quat

#: Residual tolerance used by the pass/fail checks.
RESIDUAL_TOL = 1e-10

#: Singular values above this threshold count toward the rank.
RANK_TOL = 1e-6

#: Within this distance of -1 a square-root fiber is the 2-sphere.
SPHERE_TOL = 1e-9

#: Sample count of every check of ``numeric_check_suite``.
SUITE_SAMPLES = 2000

#: Rows of the pairwise distances that ``x1r_chart_check`` holds at once.
SEPARATION_BLOCK = 32


class SeededStream:
    """Seeded float64 draws with the methods the oracle calls on a numpy ``Generator``.

    The bits come from ``random.Random(seed)``: a uniform in [0, 1) is the top 53
    bits of one 64-bit word, and normals come from pairs of uniforms by Box-Muller.
    """

    def __init__(self, seed: int):
        self._bits = random.Random(seed)

    def random(self, size=()):
        """Uniform floats in [0, 1)."""
        words = np.frombuffer(self._bits.randbytes(8 * int(np.prod(size))), dtype="<u8")
        return ((words >> 11) * 2.0**-53).reshape(size)

    def uniform(self, low, high, size=()):
        return low + (high - low) * self.random(size)

    def standard_normal(self, size=()):
        """Box-Muller: uniforms u, then v, give sqrt(-2 log(1 - u)) times cos(2 pi v), then times sin(2 pi v)."""
        count = int(np.prod(size))
        u, v = self.random((2, (count + 1) // 2))
        radius = np.sqrt(-2.0 * np.log1p(-u))
        angle = 2.0 * np.pi * v
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count].reshape(size)


def box(points):
    """Ordered product of squares of the tuple entries (left to right)."""
    points = np.asarray(points, dtype=float)
    out = np.broadcast_to(quat.IDENTITY, points[..., 0, :].shape).copy()
    for k in range(points.shape[-2]):
        out = quat.mul(out, quat.square(points[..., k, :]))
    return out


def box_differential(points):
    """Differential of the product of squares in the right-trivialized frame.

    Returns (..., 3, 3m) matrices whose k-th 3x3 block is
    Ad(prefix_k) (I + Ad(g_k)) with prefix_k the product of the first k
    squares.  Full rank 3 marks a regular point.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[-2]
    prefix = np.broadcast_to(quat.IDENTITY, points[..., 0, :].shape).copy()
    eye = np.eye(3)
    blocks = []
    for k in range(m):
        g_k = points[..., k, :]
        block = quat.rotation_matrix(prefix) @ (eye + quat.rotation_matrix(g_k))
        blocks.append(block)
        prefix = quat.mul(prefix, quat.square(g_k))
    return np.concatenate(blocks, axis=-1)


def box_singular_values(points):
    """Singular values (..., 3) of the differential, descending."""
    return np.linalg.svd(box_differential(points), compute_uv=False)


def box_differential_rank(points):
    """Numerical rank (0..3) of the differential at one tuple, or the array of ranks of a batch."""
    ranks = np.sum(box_singular_values(points) > RANK_TOL, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def conjugate_tuple(points, g):
    """Simultaneous conjugation of every tuple entry by g."""
    points = np.asarray(points, dtype=float)
    g = np.asarray(g, dtype=float)
    g_b = np.broadcast_to(g[..., None, :], points.shape)
    return quat.mul(quat.mul(g_b, points), quat.conj(g_b))


def flip_zeroth(points):
    """Negate the 0th entry; the product of squares is unchanged exactly."""
    points = np.asarray(points, dtype=float).copy()
    points[..., 0, :] = -points[..., 0, :]
    return points


def singular_example(n: int):
    """The tuple (J, ..., J) with J*J = -1, a critical point of the product map."""
    j = np.array([0.0, 0.0, 1.0, 0.0])
    return np.tile(j, (n + 1, 1))


def fixed_point_residual(point) -> float:
    """Distance of a tuple from the torus-fixed locus.

    Zero exactly when every entry lies on the torus circle w + x*i; measured
    as the largest magnitude of the components orthogonal to the torus axis.
    """
    point = np.asarray(point, dtype=float)
    return float(np.max(np.hypot(point[..., 2], point[..., 3])))


class SqrtFiber(namedtuple("SqrtFiber", "kind points", defaults=(None,))):
    """Solutions of h*h = g: kind "two_points", the antipodal pair in points, or "two_sphere" when g = -1."""

    __slots__ = ()

    def sphere_point(self, axis):
        """Point of the sphere fiber at a given unit imaginary direction."""
        if self.kind != "two_sphere":
            raise ValueError("only the sphere fiber is parametrized by an axis")
        axis = np.asarray(axis, dtype=float)
        return np.concatenate([np.zeros(axis.shape[:-1] + (1,)), axis], axis=-1)


def sqrt_fiber(g) -> SqrtFiber:
    """The square-root fiber of a unit quaternion.

    Away from -1 the fiber is the antipodal pair through the half angle; at
    (or within ``SPHERE_TOL`` of) -1 it is the 2-sphere of unit imaginary
    quaternions, i.e. the rotation angle pi/2 shell.  Returned point
    solutions satisfy |h*h - g| <= 10*SPHERE_TOL.
    """
    g = quat.normalize(g)
    if np.linalg.norm(g - quat.MINUS_IDENTITY) <= SPHERE_TOL:
        return SqrtFiber("two_sphere")
    root = quat.principal_sqrt(g)
    return SqrtFiber("two_points", np.stack([root, -root]))


class ChartReport(namedtuple("ChartReport", "max_relation_residual max_equivariance_residual min_output_separation")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.max_relation_residual <= RESIDUAL_TOL
            and self.max_equivariance_residual <= RESIDUAL_TOL
            and self.min_output_separation > 1e-8
        )


def x1r_chart(axes, angles):
    """Chart of the first regular variety from (sphere direction, angle).

    F(X, t) = (exp(t X), exp((pi/2 - t) X)); the squares multiply to
    exp(pi X) = -1 identically, so the image lies on the variety.
    """
    axes = np.asarray(axes, dtype=float)
    angles = np.asarray(angles, dtype=float)[..., None]
    first = quat.exp_im(angles * axes)
    second = quat.exp_im((np.pi / 2 - angles) * axes)
    return np.stack([first, second], axis=-2)


def x1r_chart_check(samples: int, seed: int = 0) -> ChartReport:
    """Sample the chart and measure the residuals of its defining properties."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    rng = SeededStream(seed)
    axes = quat.random_axis(rng, samples)
    angles = rng.uniform(0.0, 2.0 * np.pi, samples)
    points = x1r_chart(axes, angles)

    relation = quat.mul(quat.square(points[:, 0]), quat.square(points[:, 1]))
    relation_residual = float(np.max(quat.dist(relation, quat.MINUS_IDENTITY)))

    g = quat.random_unit(rng, samples)
    rotated_axes = np.einsum("nij,nj->ni", quat.rotation_matrix(g), axes)
    left = x1r_chart(rotated_axes, angles)
    right = conjugate_tuple(points, g)
    equivariance_residual = float(np.max(quat.dist(left, right)))

    # Injectivity proxy on a subsample: distinct chart points stay separated.
    keep = min(samples, 256)
    return ChartReport(relation_residual, equivariance_residual, _min_separation(points[:keep].reshape(keep, 8)))


def _min_separation(rows) -> float:
    """Least distance between two distinct rows of a 2-d array; +inf for fewer than two rows.

    The distances are those of the all-pairs ``norm(rows[:, None] - rows[None])``,
    float for float, made ``SEPARATION_BLOCK`` rows at a time with the diagonal
    masked by +inf, so memory stays linear in the row count.
    """
    least = np.inf
    for start in range(0, len(rows), SEPARATION_BLOCK):
        block = np.linalg.norm(rows[start : start + SEPARATION_BLOCK, None, :] - rows[None, :, :], axis=-1)
        own = np.arange(len(block))
        block[own, start + own] = np.inf
        least = min(least, block.min())
    return float(least)


def numeric_check_suite(seed: int = 0) -> list[dict]:
    """Run every geometric check on ``SUITE_SAMPLES`` samples; JSON-ready rows.

    Each check gives its largest residual and whether it passed.  A check
    that raises gives a failed row whose detail names the error, and the
    checks after it still run.
    """
    samples = SUITE_SAMPLES
    rng = SeededStream(seed)
    tuples = quat.random_unit(rng, (samples, 3))

    def box_conjugation_equivariance():
        g = quat.random_unit(rng, samples)
        residual = np.max(quat.dist(box(conjugate_tuple(tuples, g)), quat.mul(quat.mul(g, box(tuples)), quat.conj(g))))
        return residual, residual <= 1e-12

    def zeroth_flip_invariance():
        residual = np.max(quat.dist(box(flip_zeroth(tuples)), box(tuples)))
        return residual, residual == 0.0

    def sqrt_roundtrip():
        g = quat.random_unit(rng, samples)
        residual = np.max(quat.dist(quat.square(quat.principal_sqrt(g)), g))
        return residual, residual <= 1e-9

    def sqrt_degenerate_fiber():
        fiber = sqrt_fiber(quat.MINUS_IDENTITY)
        axes = quat.random_axis(rng, samples)
        residual = np.max(quat.dist(quat.square(fiber.sphere_point(axes)), quat.MINUS_IDENTITY))
        ok = fiber.kind == "two_sphere" and sqrt_fiber(quat.IDENTITY).kind == "two_points"
        return residual, ok and residual <= 1e-12

    def chart():
        report = x1r_chart_check(samples, seed)
        return max(report.max_relation_residual, report.max_equivariance_residual), report.passed

    def regular_rank_gap():
        values = box_singular_values(quat.random_unit(rng, (samples, 3)))
        regular_floor = float(values[:, 2].min())
        singular_third = float(box_singular_values(singular_example(2))[2])
        gap_ok = (
            bool(np.all(values[:, 2] > RANK_TOL))
            and box_differential_rank(singular_example(2)) < 3
            and regular_floor >= 1e4 * max(singular_third, 1e-300)
        )
        return singular_third, gap_ok

    def fixed_point():
        diag = np.zeros((samples, 2, 4))
        angles = rng.uniform(0.0, 2.0 * np.pi, (samples, 2))
        diag[..., 0] = np.cos(angles)
        diag[..., 1] = np.sin(angles)
        residual = fixed_point_residual(diag)
        moved = fixed_point_residual(conjugate_tuple(diag, quat.random_unit(rng, samples)))
        return residual, residual <= 1e-12 and moved > 1e-6

    rows = []
    for name, check in (
        ("box_conjugation_equivariance", box_conjugation_equivariance),
        ("zeroth_flip_invariance", zeroth_flip_invariance),
        ("sqrt_roundtrip", sqrt_roundtrip),
        ("sqrt_degenerate_fiber", sqrt_degenerate_fiber),
        ("x1r_chart", chart),
        ("regular_rank_gap", regular_rank_gap),
        ("fixed_point_residual", fixed_point),
    ):
        row = {"check_name": name, "samples": samples}
        try:
            residual, passed = check()
        except Exception as exc:  # any fault is reported by name; it must not end the run
            row.update({"max_residual": None, "pass": False, "detail": f"{type(exc).__name__}: {exc}"})
        else:
            row.update({"max_residual": float(residual), "pass": bool(passed)})
        rows.append(row)
    return rows
