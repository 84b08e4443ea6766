"""Order-sensitive numeric helpers.

numpy's sum() uses pairwise accumulation, which differs in the last bits
from a left-to-right scalar loop once arrays exceed a handful of elements.
Several outputs here are contractually bit-identical to loop-based
reference implementations, so sums on those paths go through seq_sum.
"""

from __future__ import annotations

import numpy as np

# Max entries of one (rows, M) distance block: 125 KiB of float64 stays in
# cache and under glibc's default 128 KiB mmap threshold, so each block is
# recycled from the heap instead of being mapped and page-faulted afresh.
_PAIRWISE_CHUNK = 16_000


def seq_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Left-to-right sequential sum along an axis (cumsum is sequential)."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[axis] == 0:
        return np.zeros(np.delete(a.shape, axis))
    return np.take(np.cumsum(a, axis=axis), -1, axis=axis)


def point_norms(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of (..., 3) difference vectors.

    Fixed grouping ((dx^2 + dy^2) + dz^2) to match scalar references.
    """
    d2 = (
        diffs[..., 0] * diffs[..., 0] + diffs[..., 1] * diffs[..., 1]
    ) + diffs[..., 2] * diffs[..., 2]
    return np.sqrt(d2)


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
