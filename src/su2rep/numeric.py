"""Floating-point oracle for the finite-dimensional geometry.

The symbolic modules own the topology; this module draws unit-quaternion
tuples and checks the geometric facts the closed forms rest on: the
product-of-squares map and the rank of its differential, square-root fibers,
the sphere-times-circle chart of the first regular variety, and the
torus-fixed locus.

The checks run on the standard library alone.  A quaternion w + x i + y j + z k
is the pair of complex numbers (a, b) = (w + x i, y + z i), that is a + b j,
and the maximal torus is the circle b = 0.  Randomness is always drawn from an
explicitly seeded ``random.Random``, so every report is reproducible and no
command loads numpy.  ``box``, ``box_differential``, ``box_singular_values``
and ``singular_example`` are the same maps batched over numpy arrays of
(w, x, y, z) rows; they load numpy, through ``quaternions``, when called.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from operator import mul

#: Residual tolerance used by the pass/fail checks.
RESIDUAL_TOL = 1e-10

#: Singular values above this threshold count toward the rank.
RANK_TOL = 1e-6

#: Within this distance of -1 a square-root fiber is the 2-sphere.
SPHERE_TOL = 1e-9

#: Sample count of every check of ``numeric_check_suite``.
SUITE_SAMPLES = 2000

#: 1, -1 and j as complex pairs; a tuple of copies of j is a critical point of the product map.
ONE = (1 + 0j, 0j)
MINUS_ONE = (-1 + 0j, 0j)
J = (0j, 1 + 0j)


# -- the seeded stream --------------------------------------------------------


def uniforms(bits: random.Random, count: int) -> list:
    """Uniform floats in [0, 1): each the top 53 bits of the next ``bits.getrandbits(64)``, scaled."""
    return [(bits.getrandbits(64) >> 11) * 2.0**-53 for _ in range(count)]


def normals(bits: random.Random, count: int) -> list:
    """Box-Muller: uniforms u, then v, give sqrt(-2 log(1 - u)) times cos(2 pi v), then times sin(2 pi v)."""
    half = (count + 1) // 2
    u, v = uniforms(bits, half), uniforms(bits, half)
    # cmath.rect(r, t) is (r cos t, r sin t), the same floats as the two products
    pairs = [cmath.rect(math.sqrt(-2.0 * math.log1p(-x)), 2.0 * math.pi * y) for x, y in zip(u, v)]
    return [z.real for z in pairs] + [z.imag for z in pairs[: count - half]]


def random_angles(bits: random.Random, count: int) -> list:
    """Uniform angles in [0, 2 pi)."""
    return [2.0 * math.pi * u for u in uniforms(bits, count)]


def random_units(bits: random.Random, count: int) -> list:
    """Haar-distributed unit quaternions: normalized 4-d Gaussians, one (w, x, y, z) after another."""
    values = normals(bits, 4 * count)
    units, run = [], iter(values)
    for w, x, y, z in zip(run, run, run, run):
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        units.append((complex(w / norm, x / norm), complex(y / norm, z / norm)))
    return units


def random_axes(bits: random.Random, count: int) -> list:
    """Uniform unit imaginary quaternions (points of the 2-sphere): normalized 3-d Gaussians."""
    values = normals(bits, 3 * count)
    axes, run = [], iter(values)
    for x, y, z in zip(run, run, run):
        norm = math.sqrt(x * x + y * y + z * z)
        axes.append((complex(0.0, x / norm), complex(y / norm, z / norm)))
    return axes


def _tuples(entries: list, size: int) -> list:
    """Consecutive runs of size entries."""
    return [entries[i : i + size] for i in range(0, len(entries), size)]


# -- quaternions as complex pairs -----------------------------------------------


def hamilton(p, q):
    """Hamilton product: (a + b j)(c + d j) = (a c - b conj(d)) + (a d + b conj(c)) j."""
    a, b = p
    c, d = q
    return a * c - b * d.conjugate(), a * d + b * c.conjugate()


def square(q):
    """q q = (a a - |b|^2) + 2 Re(a) b j; a negated q has the same square, exactly."""
    a, b = q
    return a * a - (b.real * b.real + b.imag * b.imag), 2.0 * a.real * b


def dist(p, q) -> float:
    """Euclidean distance between two quaternions."""
    return math.hypot(abs(p[0] - q[0]), abs(p[1] - q[1]))


def conjugate_tuple(points, g) -> list:
    """Simultaneous conjugation of every tuple entry by g: g q g^-1, with g^-1 = conj(g) = (conj(a), -b)."""
    inverse = (g[0].conjugate(), -g[1])
    return [hamilton(hamilton(g, q), inverse) for q in points]


def flip_zeroth(points) -> list:
    """Negate the 0th entry; the product of squares is unchanged exactly."""
    (a, b), *rest = points
    return [(-a, -b), *rest]


def product_of_squares(points):
    """Ordered product of squares of the tuple entries (left to right)."""
    out = ONE
    for q in points:
        out = hamilton(out, square(q))
    return out


def principal_root(q):
    """Half-angle square root of a unit quaternion.

    At exactly -1 the root along the first imaginary axis is returned; every
    axis works there, and nearby inputs stay within the branch because the
    half angle is continuous up to the cut.
    """
    a, b = q
    x = a.imag
    vnorm = math.sqrt(x * x + b.real * b.real + b.imag * b.imag)
    half = 0.5 * math.atan2(vnorm, min(max(a.real, -1.0), 1.0))
    if vnorm == 0.0:
        return complex(math.cos(half), math.sin(half)), 0j
    scale = math.sin(half) / vnorm
    return complex(math.cos(half), scale * x), scale * b


def sqrt_fiber_is_sphere(q) -> bool:
    """Whether the square roots of q are the 2-sphere of unit imaginary quaternions, not an antipodal pair.

    That is so at -1, taken within ``SPHERE_TOL``; elsewhere the roots are
    plus and minus ``principal_root(q)``.
    """
    return dist(q, MINUS_ONE) <= SPHERE_TOL


def fixed_point_residual(points) -> float:
    """Distance of quaternions from the torus-fixed locus.

    Zero exactly when every entry lies on the torus circle w + x*i; measured
    as the largest magnitude of the components orthogonal to the torus axis.
    """
    return max(abs(b) for _, b in points)


# -- the differential of the product of squares ------------------------------------


def singular_values(points) -> list:
    """Singular values of the differential of the product of squares at one tuple, descending.

    With D the differential in the right-trivialized frame, D D^T is
    4 sum_k (w_k^2 I + y_k y_k^T), where w_k is the real part of the k-th
    entry g_k and y_k the vector part of P_k g_k P_k^-1, P_k the product of
    the first k squares.  So the squared singular values are 4 (sum_k w_k^2 +
    sigma^2), sigma the singular values of Y, the 3 x m matrix of columns y_k.

    One-sided Jacobi rotations (Hestenes) turn the rows of Y until they are
    orthogonal, and sigma^2 are then their squared norms.  Y Y^T is never
    formed: it would square Y, and the rotated rows keep a zero sigma to eps.
    """
    prefix, trace, columns = ONE, 0.0, []
    for g in points:
        trace += g[0].real * g[0].real
        moved = hamilton(prefix, g)  # P_k g_k
        a, v = hamilton(moved, (prefix[0].conjugate(), -prefix[1]))  # P_k g_k P_k^-1, whose vector part is y_k
        columns.append((a.imag, v.real, v.imag))
        prefix = hamilton(moved, g)  # P_(k+1) = P_k g_k g_k
    rows = list(zip(*columns))
    for _ in range(50):
        turned = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            # a pair counts as orthogonal once r_p . r_q is below 1e-15 |r_p| |r_q|; exact zeros stay exact
            rp, rq = rows[p], rows[q]
            gamma = sum(map(mul, rp, rq))
            alpha, beta = sum(map(mul, rp, rp)), sum(map(mul, rq, rq))
            if gamma * gamma > 1e-30 * alpha * beta:
                c, s = _rotation(alpha, beta, gamma)
                rows[p] = [c * x - s * y for x, y in zip(rp, rq)]
                rows[q] = [s * x + c * y for x, y in zip(rp, rq)]
                turned = True
        if not turned:
            break
    return sorted((2.0 * math.sqrt(trace + sum(map(mul, row, row))) for row in rows), reverse=True)


def _rotation(app, aqq, apq) -> tuple:
    """Cosine and sine of the Jacobi rotation in the (p, q) plane that zeroes apq."""
    theta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.hypot(t, 1.0)
    return c, t * c


# -- the sphere-times-circle chart -------------------------------------------------


def _exp(axis, t):
    """exp(t X) = cos t + sin t X for a unit imaginary quaternion X; a real part of X is ignored."""
    s = math.sin(t)
    return complex(math.cos(t), s * axis[0].imag), s * axis[1]


def chart_point(axis, t) -> tuple:
    """Chart of the first regular variety from (sphere direction, angle).

    F(X, t) = (exp(t X), exp((pi/2 - t) X)); the squares multiply to
    exp(pi X) = -1 identically, so the image lies on the variety.
    """
    return _exp(axis, t), _exp(axis, math.pi / 2 - t)


class ChartReport(namedtuple("ChartReport", "max_relation_residual max_equivariance_residual min_output_separation")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.max_relation_residual <= RESIDUAL_TOL
            and self.max_equivariance_residual <= RESIDUAL_TOL
            and self.min_output_separation > 1e-8
        )


def x1r_chart_check(samples: int, seed: int = 0) -> ChartReport:
    """Sample the chart and measure the residuals of its defining properties."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    bits = random.Random(seed)
    axes = random_axes(bits, samples)
    angles = random_angles(bits, samples)
    points = [chart_point(axis, t) for axis, t in zip(axes, angles)]
    relation_residual = max(dist(product_of_squares(point), MINUS_ONE) for point in points)

    # F(g X g^-1, t) = g F(X, t) g^-1, entry by entry
    equivariance_residual = 0.0
    for point, axis, t, g in zip(points, axes, angles, random_units(bits, samples)):
        rotated, first, second = conjugate_tuple([axis, *point], g)
        left_first, left_second = chart_point(rotated, t)
        equivariance_residual = max(equivariance_residual, dist(left_first, first), dist(left_second, second))

    # Injectivity proxy on a subsample: distinct chart points stay separated.
    rows = [(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag) for (a, b), (c, d) in points[:256]]
    return ChartReport(relation_residual, equivariance_residual, _min_separation(rows))


def _min_separation(rows) -> float:
    """Least distance between two distinct rows; +inf for fewer than two rows.

    The rows are sorted by their first coordinate, so the pairs of a row end
    where that coordinate alone differs by the least distance found so far.
    """
    rows, least = sorted(rows), math.inf
    for i, row in enumerate(rows):
        for other in rows[i + 1 :]:
            if other[0] - row[0] >= least:
                break
            distance = math.dist(row, other)
            if distance < least:
                least = distance
    return least


# -- the suite --------------------------------------------------------------------


def numeric_check_suite(seed: int = 0) -> list[dict]:
    """Run every geometric check on ``SUITE_SAMPLES`` samples; JSON-ready rows.

    Each check gives its largest residual and whether it passed.  A check
    that raises gives a failed row whose detail names the error, and the
    checks after it still run.
    """
    samples = SUITE_SAMPLES
    bits = random.Random(seed)
    tuples = _tuples(random_units(bits, 3 * samples), 3)
    products = [product_of_squares(points) for points in tuples]  # both box checks compare with these

    def box_conjugation_equivariance():
        residual = max(
            dist(product_of_squares(conjugate_tuple(points, g)), conjugate_tuple([product], g)[0])
            for points, product, g in zip(tuples, products, random_units(bits, samples))
        )
        return residual, residual <= 1e-12

    def zeroth_flip_invariance():
        residual = max(dist(product_of_squares(flip_zeroth(t)), product) for t, product in zip(tuples, products))
        return residual, residual == 0.0

    def sqrt_roundtrip():
        residual = max(dist(square(principal_root(g)), g) for g in random_units(bits, samples))
        return residual, residual <= 1e-9

    def sqrt_degenerate_fiber():
        # the sphere fiber over -1 is the unit imaginary quaternions themselves
        residual = max(dist(square(axis), MINUS_ONE) for axis in random_axes(bits, samples))
        ok = sqrt_fiber_is_sphere(MINUS_ONE) and not sqrt_fiber_is_sphere(ONE)
        return residual, ok and residual <= 1e-12

    def chart():
        report = x1r_chart_check(samples, seed)
        return max(report.max_relation_residual, report.max_equivariance_residual), report.passed

    def regular_rank_gap():
        regular_floor = min(singular_values(points)[2] for points in _tuples(random_units(bits, 3 * samples), 3))
        singular_third = singular_values([J] * 3)[2]
        gap_ok = (
            regular_floor > RANK_TOL
            and singular_third <= RANK_TOL
            and regular_floor >= 1e4 * max(singular_third, 1e-300)
        )
        return singular_third, gap_ok

    def fixed_point():
        circle = [(complex(math.cos(t), math.sin(t)), 0j) for t in random_angles(bits, 2 * samples)]
        residual = fixed_point_residual(circle)
        units = random_units(bits, samples)
        moved = fixed_point_residual([q for pair, g in zip(_tuples(circle, 2), units) for q in conjugate_tuple(pair, g)])
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


# -- the batched numpy forms ----------------------------------------------------------


def box(points):
    """Ordered product of squares of the tuple entries (left to right), over (..., m, 4) arrays."""
    from . import quaternions as quat

    np = quat.np
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
    from . import quaternions as quat

    np = quat.np
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
    from .quaternions import np

    return np.linalg.svd(box_differential(points), compute_uv=False)


def singular_example(n: int):
    """The tuple (J, ..., J) with J*J = -1, a critical point of the product map, as an (n+1, 4) array."""
    from .quaternions import np

    return np.tile([0.0, 0.0, 1.0, 0.0], (n + 1, 1))
