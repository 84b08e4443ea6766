"""Slow, loop-based reference implementations used as test oracles.

Everything in here trades speed for obviousness: plain Python loops,
math.sqrt, no vectorization. Library code under test must agree with these
bit for bit where a test says "exact", so the arithmetic here fixes the
accumulation order (x*r0 + y*r1 + z*r2 + t; dx*dx + dy*dy then + dz*dz).
"""

from __future__ import annotations

import math

import numpy as np


def transform_point(matrix, p):
    """R @ p + t for one point, scalar arithmetic."""
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    out = []
    for j in range(3):
        out.append(
            (
                (x * float(matrix[j][0]) + y * float(matrix[j][1]))
                + z * float(matrix[j][2])
            )
            + float(matrix[j][3])
        )
    return out


def point_distance(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    dz = p[2] - q[2]
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def mean_pairwise_distance(matrix_a, matrix_b, pts):
    """Mean over points of || A p - B p ||."""
    total = 0.0
    for p in pts:
        pa = transform_point(matrix_a, p)
        pb = transform_point(matrix_b, p)
        total += point_distance(pa, pb)
    return total / len(pts)


def symmetric_distance(matrix_a, matrix_b, sym_matrices, pts):
    """min over symmetries S of mean_p || A S p - B p ||."""
    best = math.inf
    for s in sym_matrices:
        total = 0.0
        for p in pts:
            sp = transform_point(s, p)
            pa = transform_point(matrix_a, sp)
            pb = transform_point(matrix_b, p)
            total += point_distance(pa, pb)
        d = total / len(pts)
        if d < best:
            best = d
    return best


def symmetric_distance_l1(matrix_a, matrix_b, sym_matrices, pts):
    """min over symmetries S of mean_p | A S p - B p |_1 (sum of abs coords)."""
    best = math.inf
    for s in sym_matrices:
        total = 0.0
        for p in pts:
            sp = transform_point(s, p)
            pa = transform_point(matrix_a, sp)
            pb = transform_point(matrix_b, p)
            total += (
                abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
            ) + abs(pa[2] - pb[2])
        d = total / len(pts)
        if d < best:
            best = d
    return best


def add_error(matrix_est, matrix_gt, pts):
    """Mean same-index point distance between the two posed models."""
    total = 0.0
    for p in pts:
        pe = transform_point(matrix_est, p)
        pg = transform_point(matrix_gt, p)
        total += point_distance(pe, pg)
    return total / len(pts)


def adds_error(matrix_est, matrix_gt, pts):
    """Mean nearest-neighbor distance from gt-posed points to est-posed points."""
    est = [transform_point(matrix_est, p) for p in pts]
    gt = [transform_point(matrix_gt, p) for p in pts]
    total = 0.0
    for g in gt:
        best = math.inf
        for e in est:
            d = point_distance(g, e)
            if d < best:
                best = d
        total += best
    return total / len(pts)


def auc_of_recall(errors, max_threshold):
    """Area under recall(threshold)/threshold for threshold in (0, max].

    Recall jumps at each error value; integrating the staircase exactly
    gives sum(max(max_threshold - e, 0)) / (n * max_threshold).
    """
    n = len(errors)
    total = 0.0
    for e in errors:
        total += max(max_threshold - e, 0.0)
    return total / (n * max_threshold)


def rotation_about_axis(axis, angle):
    ax = np.asarray(axis, dtype=np.float64)
    ax = ax / np.linalg.norm(ax)
    x, y, z = ax
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


def random_rotation(rng):
    """Uniform random rotation via quaternion (Shoemake)."""
    u1, u2, u3 = rng.random(3)
    q = np.array(
        [
            math.sqrt(1.0 - u1) * math.sin(2.0 * math.pi * u2),
            math.sqrt(1.0 - u1) * math.cos(2.0 * math.pi * u2),
            math.sqrt(u1) * math.sin(2.0 * math.pi * u3),
            math.sqrt(u1) * math.cos(2.0 * math.pi * u3),
        ]
    )
    w, x, y, z = q[3], q[0], q[1], q[2]
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_pose_matrix(rng, t_scale=1.0):
    m = np.eye(4)
    m[:3, :3] = random_rotation(rng)
    m[:3, 3] = rng.uniform(-t_scale, t_scale, size=3)
    return m


def random_pose_nudge(matrix, rng, rot_scale, trans_scale):
    """Left-perturb a pose matrix by a small random rotation/translation."""
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    m = np.eye(4)
    m[:3, :3] = rotation_about_axis(axis, rng.normal() * rot_scale)
    m[:3, 3] = rng.normal(size=3) * trans_scale
    return m @ np.asarray(matrix, dtype=np.float64)


def dense_jacobian(e, targets, layout):
    """Dense (2N, P) Jacobian from linearize's compact (2N, 6) block.

    Target t owns the next 2 * (its active points) rows, in member order.
    Its rows of E go to its camera's columns (none for the gauge view) and
    their negation to its object's columns.
    """
    images = targets.images
    d = np.zeros((e.shape[0], layout.size))
    row = 0
    for t in range(len(images.view_ids)):
        n_active = 0
        for i in range(images.bounds[t], images.bounds[t + 1]):
            if targets.active[i]:
                n_active += 1
        cam = layout.camera_offset(images.view_ids[t])
        obj = layout.object_offset(images.object_ids[t])
        for i in range(row, row + 2 * n_active):
            for j in range(6):
                if cam is not None:
                    d[i, cam + j] = e[i, j]
                d[i, obj + j] = -e[i, j]
        row += 2 * n_active
    return d


def _skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rodrigues(axis, angle):
    """I + sin(a) K + (1 - cos(a)) K^2, K the cross matrix of the unit axis."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    k = _skew(axis / np.linalg.norm(axis))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def retract_matrix(matrix, delta):
    """One pose's left 6-dof update, written out per pose.

    The rotation increment is Rodrigues of delta[:3]: theta from
    np.linalg.norm, a second-order series below 1e-12, otherwise the axis
    omega / theta (normalized once more by `rodrigues`). The library's
    stacked retraction must reproduce this bit for bit.
    """
    delta = np.asarray(delta, dtype=np.float64).reshape(6)
    omega = delta[:3]
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        k = _skew(omega)
        rot = np.eye(3) + k + 0.5 * (k @ k)
    else:
        rot = rodrigues(omega / theta, theta)
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = delta[3:]
    return m @ np.asarray(matrix, dtype=np.float64)


def inverse_matrix(matrix):
    """Rigid inverse of one pose: rotation R^T, translation -(R^T t)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    r = matrix[:3, :3]
    m = np.eye(4)
    m[:3, :3] = r.T
    m[:3, 3] = -(r.T @ matrix[:3, 3])
    return m


def hard_rotation_increments(rng, n):
    """(n, 3) rotation vectors: zero, below the 1e-12 series cutoff, near
    and at pi, beyond 2 pi, and random magnitudes over many decades."""
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    special = [0.0, 1e-300, 3e-13, 9.99e-13, 1e-12, 1e-8,
               math.pi - 1e-9, math.pi, math.pi + 1e-9, 2.0 * math.pi, 7.0, 40.0]
    angles = np.concatenate([special, 10.0 ** rng.uniform(-14, 1.5, n - len(special))])
    return axes * angles[:n, None]
