"""Batched unit-quaternion helpers on numpy arrays.

Quaternions are float arrays of shape (..., 4) in (w, x, y, z) order; all
functions broadcast.  It is the one module that imports numpy at load time, and
no command loads it: ``numeric.box`` and its batched siblings import it when
called.  Under the usual dictionary with 2x2 special unitary
matrices the trace is 2w, and the maximal torus used throughout the package
is the circle w + x*i, so the i-axis is the torus axis.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError as exc:  # numpy is the optional extra of this module alone
    raise ImportError("su2rep.quaternions needs numpy: pip install 'su2rep[numpy]'") from exc

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
MINUS_IDENTITY = np.array([-1.0, 0.0, 0.0, 0.0])


def normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def square(q):
    return mul(q, q)


def rotation_matrix(q):
    """Conjugation action on imaginary quaternions as (..., 3, 3) matrices."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def principal_sqrt(g):
    """Half-angle square root of a unit quaternion.

    At exactly -1 the root along the first imaginary axis is returned; every
    axis works there, and nearby inputs stay within the branch because the
    half angle is continuous up to the cut.
    """
    g = np.asarray(g, dtype=float)
    w = np.clip(g[..., 0], -1.0, 1.0)
    vec = g[..., 1:]
    vnorm = np.linalg.norm(vec, axis=-1)
    angle = np.arctan2(vnorm, w)
    degenerate = vnorm == 0.0
    fallback = np.zeros_like(vec)
    fallback[..., 0] = 1.0
    axis = np.where(degenerate[..., None], fallback, vec / np.where(degenerate, 1.0, vnorm)[..., None])
    half = 0.5 * angle
    return np.concatenate([np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1)


def _shape_tuple(shape) -> tuple:
    if isinstance(shape, int):
        return (shape,)
    return tuple(shape)


def random_unit(rng, shape=()):
    """Haar-distributed unit quaternions via normalized 4-d Gaussians."""
    return normalize(rng.standard_normal(_shape_tuple(shape) + (4,)))


def dist(a, b):
    """Euclidean distance between quaternions (pointwise over batches)."""
    return np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), axis=-1)
