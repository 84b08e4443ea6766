"""Object symmetry groups and the symmetry-aware pose distance.

An object's symmetries are rigid motions that leave its appearance
unchanged: a finite discrete set plus optional continuous rotation axes.
Continuous axes are discretized into a finite group; distances between two
poses of the same object then minimize over that group, so two estimates
that differ only by a symmetry compare as equal.

The distance between poses t1, t2 over model points X is

    d = min_S mean_x || t1 S x - t2 x ||

with S ranging over the discretized group, kept as one read-only (G, 4, 4)
stack whose first element is the identity. The kernels take the images
S x of one label's points, built once per label (`apply_matrices`), and
apply t1 to them (never forming t1 @ S), keeping results bit-identical to a
scalar double loop; exactness tests depend on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, apply_matrix, rotations_about_axes
from .numeric import first_of_near, point_l1, point_norms, seq_sum

DEFAULT_ANGLES_PER_AXIS = 64
MAX_GROUP_ELEMENTS = 4096
_DEDUP_TOL = 1e-9
_DEDUP_BLOCK = 1 << 18  # entries of one row block of the pairwise table


class GroupTooLargeError(ValueError):
    """Discretization would produce more elements than the configured cap."""


@dataclass(frozen=True)
class SymmetrySpec:
    """Raw symmetry annotation for one object.

    discrete: rigid motions (identity must be among them).
    continuous_axes: (unit axis, offset point) pairs; rotation by any angle
    about the line through offset along axis preserves appearance.
    """

    discrete: tuple[Pose, ...] = (Pose.identity(),)
    continuous_axes: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        discrete = tuple(self.discrete)
        if not all(np.isfinite(d.matrix).all() for d in discrete):
            raise ValueError("discrete symmetries must be finite")
        if not any(
            np.max(np.abs(d.matrix - np.eye(4))) <= _DEDUP_TOL for d in discrete
        ):
            raise ValueError("discrete symmetry set must contain the identity")
        axes = []
        for axis, offset in self.continuous_axes:
            axis = np.asarray(axis, dtype=np.float64).reshape(3)
            offset = np.asarray(offset, dtype=np.float64).reshape(3)
            if not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:
                raise ValueError(f"symmetry axis must have unit norm: {axis}")
            if not np.isfinite(offset).all():
                raise ValueError(f"symmetry axis offset must be finite: {offset}")
            axis.setflags(write=False)
            offset.setflags(write=False)
            axes.append((axis, offset))
        object.__setattr__(self, "discrete", discrete)
        object.__setattr__(self, "continuous_axes", tuple(axes))


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite set of symmetry motions as one read-only (G, 4, 4) stack;
    element 0 is always the identity."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValueError(
                f"symmetry group must be a (G, 4, 4) stack, got shape {mats.shape}"
            )
        if not len(mats):
            raise ValueError("symmetry group must be non-empty")
        if np.max(np.abs(mats[0] - np.eye(4))) > _DEDUP_TOL:
            raise ValueError("first group element must be the identity")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.matrices)


def discretize(
    spec: SymmetrySpec,
    angles_per_axis: int = DEFAULT_ANGLES_PER_AXIS,
    max_elements: int = MAX_GROUP_ELEMENTS,
) -> SymmetryGroup:
    """Expand a symmetry spec into a finite group.

    Each continuous axis contributes rotations at angles 2*pi*k/n; these are
    combined with every discrete element (product set, unioned over axes)
    and deduplicated. Raises GroupTooLargeError rather than truncating when
    the product set exceeds max_elements.
    """
    if angles_per_axis < 1:
        raise ValueError("angles_per_axis must be >= 1")
    axis_rotations = np.eye(4)[None]
    if spec.continuous_axes:
        angles = [2.0 * np.pi * k / angles_per_axis for k in range(angles_per_axis)]
        per_axis = []
        for axis, offset in spec.continuous_axes:
            # Rotations about the line through `offset` along `axis`.
            rots = rotations_about_axes(np.tile(axis, (angles_per_axis, 1)), angles)
            m = np.zeros((angles_per_axis, 4, 4))
            m[:, :3, :3] = rots
            m[:, :3, 3] = offset - rots @ offset
            m[:, 3, 3] = 1.0
            per_axis.append(m)
        axis_rotations = np.concatenate(per_axis)

    total = len(spec.discrete) * len(axis_rotations)
    if total > max_elements:
        raise GroupTooLargeError(
            f"discretization yields {total} elements, cap is {max_elements}"
        )

    if not spec.continuous_axes and all(
        np.max(np.abs(d.matrix - np.eye(4))) <= _DEDUP_TOL for d in spec.discrete
    ):
        # Every candidate below would be a duplicate of the identity.
        return SymmetryGroup(np.eye(4)[None])
    discrete = np.stack([d.matrix for d in spec.discrete])
    candidates = np.concatenate(
        [np.eye(4)[None], (discrete[:, None] @ axis_rotations).reshape(-1, 4, 4)]
    )
    return SymmetryGroup(candidates[_first_of_duplicates(candidates)])


def _first_of_duplicates(matrices: np.ndarray) -> np.ndarray:
    """Mask of the matrices kept by a sequential scan that keeps a matrix
    unless some kept earlier one is within _DEDUP_TOL (max abs entry).

    Max-abs is exact and |a - b| == |b - a|, so `first_of_near`'s blocked
    table decides each pair as the scan does.
    """
    n = matrices.shape[0]
    flat = matrices.reshape(n, 16)

    def near(start: int, stop: int) -> np.ndarray:
        diff = np.zeros((stop - start, stop))
        for k in range(16):
            d = np.subtract.outer(flat[start:stop, k], flat[:stop, k])
            np.maximum(diff, np.abs(d, out=d), out=diff)
        return diff <= _DEDUP_TOL

    return first_of_near(n, near, _DEDUP_BLOCK)


def _min_distance(
    points: np.ndarray, sym_points: np.ndarray, t1: Pose, t2: Pose, norm
) -> float:
    """Least mean point error over the group elements.

    `norm` maps (..., 3) differences to per-point errors: the Euclidean
    `point_norms`, or `point_l1`.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    g, m, _ = sym_points.shape
    a = apply_matrix(t1.matrix, sym_points.reshape(g * m, 3)).reshape(g, m, 3)
    b = apply_matrix(t2.matrix, pts)  # (M, 3)
    per_point = norm(a - b[None, :, :])  # (G, M)
    return float(np.min(seq_sum(per_point, axis=1) / m))


def symmetric_distance(points, sym_points: np.ndarray, t1: Pose, t2: Pose) -> float:
    """min over S in group of mean_x || t1 S x - t2 x ||, in meters.

    `sym_points` is apply_matrices(group.matrices, points), the (G, M, 3)
    images S x of the label's points.
    """
    return _min_distance(points, sym_points, t1, t2, point_norms)


def symmetric_distance_l1(points, sym_points: np.ndarray, t1: Pose, t2: Pose) -> float:
    """L1-norm variant: min over S of mean_x | t1 S x - t2 x |_1.

    Used as the pose-error term of the single-view training loss.
    """
    return _min_distance(points, sym_points, t1, t2, point_l1)
