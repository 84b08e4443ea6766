"""Order-sensitive numeric helpers.

numpy's sum() uses pairwise accumulation, which differs in the last bits
from a left-to-right scalar loop once arrays exceed a handful of elements.
Several outputs here are contractually bit-identical to loop-based
reference implementations, so sums on those paths go through seq_sum.

pairwise_sq_reduce scans every (i, j) pair of two point clouds with the
fixed grouping ((dx^2 + dy^2) + dz^2). nearest_sq returns the same row
minima bit for bit and scans only what it must: one BLAS product per row
block ranks every j by q_ij = |p_j|^2 - 2 g_i . p_j (centred points), and
where the smallest q_ij leads the second smallest by more than the window
W_i = 64 eps (|g_i| + max_j |p_j|)^2, which exceeds every rounding error
of the ranking and of the reference, that one j is the row's minimum and
only its exact distance is computed. Rows inside the window (exact or
near ties) and clouds of fewer than _NEAREST_MIN_POINTS points are
scanned in full.
"""

from __future__ import annotations

import numpy as np

# Max entries of one (rows, M) distance block: 125 KiB of float64 stays in
# cache and under glibc's default 128 KiB mmap threshold, so each block is
# recycled from the heap instead of being mapped and page-faulted afresh.
_PAIRWISE_CHUNK = 16_000
# Below this many points in b, nearest_sq's fixed cost exceeds what its
# filter saves: 43 against 42 us at 72 points, 45 against 49 us at 80, 48
# against 64 us at 96 (one core of a 2-vCPU x86 host, numpy 2.4).
_NEAREST_MIN_POINTS = 80
# Smallest positive float64: nearest_sq's window adds 64 of them, which
# covers the absolute error of products that underflow.
_TINY = np.finfo(np.float64).smallest_subnormal
_EPS = np.finfo(np.float64).eps


def seq_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Left-to-right sequential sum along an axis (cumsum is sequential)."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[axis] == 0:
        return np.zeros(np.delete(a.shape, axis))
    return np.take(np.cumsum(a, axis=axis), -1, axis=axis)


def point_sq(diffs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last axis of (..., 3) differences.

    Fixed grouping ((dx^2 + dy^2) + dz^2) to match scalar references.
    """
    return (
        diffs[..., 0] * diffs[..., 0] + diffs[..., 1] * diffs[..., 1]
    ) + diffs[..., 2] * diffs[..., 2]


def point_norms(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of (..., 3) difference vectors,
    the square roots of point_sq."""
    return np.sqrt(point_sq(diffs))


def point_l1(diffs: np.ndarray) -> np.ndarray:
    """L1 norms over the last axis of (..., 3) differences, fixed grouping."""
    a = np.abs(diffs)
    return (a[..., 0] + a[..., 1]) + a[..., 2]


def pairwise_sq_reduce(a: np.ndarray, b: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """reduce.reduce over j of |a_i - b_j|^2, for each row i of (N, 3) `a`.

    Works on (rows, M) blocks of at most max(M, _PAIRWISE_CHUNK) entries, one
    per coordinate, squared and summed in place with point_norms' grouping
    ((dx^2 + dy^2) + dz^2); no (rows, M, 3) array is formed. Since sqrt is
    monotone and correctly rounded, sqrt of a row's minimum equals the
    minimum of point_norms over that row bit for bit.
    """
    bx, by, bz = np.ascontiguousarray(np.asarray(b, dtype=np.float64).T)
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    rows = max(1, min(n, _PAIRWISE_CHUNK // bx.shape[0]))
    out = np.empty(n)
    for start in range(0, n, rows):
        block = a[start : start + rows]
        dx = np.subtract.outer(block[:, 0], bx)
        dy = np.subtract.outer(block[:, 1], by)
        dz = np.subtract.outer(block[:, 2], bz)
        dx *= dx
        dy *= dy
        dx += dy
        dz *= dz
        dx += dz
        out[start : start + rows] = reduce.reduce(dx, axis=1)
    return out


def nearest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pairwise_sq_reduce(a, b, np.minimum) bit for bit, found by filtering.

    With c the centroid of (M, 3) `b`, g = a - c and p = b - c, one BLAS
    product [g | 1] @ [-2 p^T ; |p|^2] per block of at most
    max(M, _PAIRWISE_CHUNK) entries gives q_ij = |p_j|^2 - 2 g_i . p_j, so
    |a_i - b_j|^2 = |g_i|^2 + q_ij up to rounding. Let j0 be a row's argmin
    of q and q1 its second smallest value. With u = eps / 2 and
    R_i = |g_i| + max_j |p_j|, to first order in u:

      - centring: g_i and p_j are each within u of a_i - c and b_j - c in
        relative terms, which moves the distance between them by at most
        u R_i and its square by at most 2 u R_i^2;
      - ranking: |p_j|^2 takes 3 roundings and the 4-term dot product at
        most 4 more, each on terms summing to at most R_i^2 in magnitude,
        so q_ij is within 7 u R_i^2 of its exact value;
      - reference: the scan's ((dx^2 + dy^2) + dz^2) is within 5 u of the
        exact squared distance in relative terms, at most 5 u R_i^2.

    So for any j, the reference's value at j exceeds its value at j0 by at
    least (q_ij - q_ij0) - 2 (2 + 7 + 5) u R_i^2 = (q_ij - q_ij0) - 14 eps
    R_i^2. Where q1 > q_ij0 + W_i with W_i = 64 eps R_i^2 (plus 64 times the
    smallest subnormal, for products that underflow), b[j0] alone holds the
    row's minimum, and its squared distance is computed as the scan does;
    the margin also covers the rounding of R_i, W_i and the sum. A row
    with a non-finite value fails the test. Rows that fail it, and every
    row when `b` has fewer than _NEAREST_MIN_POINTS points, go to
    pairwise_sq_reduce, whose row minima do not depend on its blocks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    if m < _NEAREST_MIN_POINTS:
        return pairwise_sq_reduce(a, b, np.minimum)
    c = b.mean(axis=0)
    lhs = np.empty((n, 4))
    g = np.subtract(a, c, out=lhs[:, :3])
    lhs[:, 3] = 1.0
    rhs = np.empty((4, m))
    p = np.subtract(b.T, c[:, None], out=rhs[:3])
    rhs[3] = point_sq(p.T)
    reach = point_norms(g) + np.sqrt(rhs[3].max())
    window = 64 * _EPS * reach * reach + 64 * _TINY
    p *= -2.0
    rows = max(1, min(n, _PAIRWISE_CHUNK // m))
    first = np.arange(rows)
    nearest = np.empty(n, dtype=np.intp)
    decided = np.empty(n, dtype=bool)
    for start in range(0, n, rows):
        q = lhs[start : start + rows] @ rhs
        i = first[: q.shape[0]]
        j0 = q.argmin(axis=1)
        q0 = q[i, j0]
        q[i, j0] = np.inf
        q1 = q[i, q.argmin(axis=1)]
        nearest[start : start + rows] = j0
        decided[start : start + rows] = q1 > q0 + window[start : start + rows]
    out = point_sq(a - b[nearest])
    if not decided.all():
        out[~decided] = pairwise_sq_reduce(a[~decided], b, np.minimum)
    return out


def first_of_near(n: int, near_block, block: int) -> np.ndarray:
    """Mask of the n items that a sequential scan keeps: item i is kept
    unless it is near some kept earlier item.

    `near_block(start, stop)` returns the bool (stop - start, stop) table
    of whether item j is near item i, for i in start:stop and j < stop,
    from a symmetric relation. One table of each item against every earlier
    one, built in row blocks of at most max(n, block) entries, decides
    every pair; only the items near an earlier one are then scanned in
    order against the kept ones, so each decision is the scan's.
    """
    near = np.zeros((n, n), dtype=bool)  # near[i, j]: j < i and j near i
    rows = max(1, block // n)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        near[start:stop, :stop] = np.tril(near_block(start, stop), start - 1)
    keep = ~near.any(axis=1)
    for i in np.flatnonzero(~keep):  # near[i, j] is False for j >= i
        keep[i] = not (near[i] & keep).any()
    return keep
