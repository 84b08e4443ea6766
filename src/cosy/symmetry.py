"""Object symmetry groups and the symmetry-aware pose distance.

An object's symmetries are rigid motions that leave its appearance
unchanged: a finite discrete set plus optional continuous rotation axes.
Continuous axes are discretized into a finite group; distances between two
poses of the same object then minimize over that group, so two estimates
that differ only by a symmetry compare as equal.

The distance between poses t1, t2 over model points X is

    d = min_S mean_x || t1 S x - t2 x ||

with S ranging over the discretized group. Computation applies S to the
points first (never forming t1 @ S), keeping results bit-identical to a
scalar double loop; exactness tests depend on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, apply_matrices, apply_matrix, rotations_about_axes
from .numeric import point_l1, point_norms, seq_sum

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

    @staticmethod
    def none() -> "SymmetrySpec":
        """No symmetry beyond the identity."""
        return SymmetrySpec()


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite set of symmetry poses; element 0 is always the identity."""

    elements: tuple[Pose, ...]
    matrices: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("symmetry group must be non-empty")
        if np.max(np.abs(self.elements[0].matrix - np.eye(4))) > _DEDUP_TOL:
            raise ValueError("first group element must be the identity")
        mats = np.stack([e.matrix for e in self.elements])
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.elements)

    @staticmethod
    def identity_only() -> "SymmetryGroup":
        return SymmetryGroup(elements=(Pose.identity(),))


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
        return SymmetryGroup.identity_only()
    discrete = np.stack([d.matrix for d in spec.discrete])
    candidates = np.concatenate(
        [np.eye(4)[None], (discrete[:, None] @ axis_rotations).reshape(-1, 4, 4)]
    )
    kept = candidates[_first_of_duplicates(candidates)]
    return SymmetryGroup(elements=tuple(Pose(m) for m in kept))


def _first_of_duplicates(matrices: np.ndarray) -> np.ndarray:
    """Mask of the matrices kept by a sequential scan that keeps a matrix
    unless some kept earlier one is within _DEDUP_TOL (max abs entry).

    One table of max-abs differences between each matrix and every earlier
    one, built in row blocks, decides every pair; only the matrices near an
    earlier one are then scanned in order against the kept ones. Max-abs is
    exact and |a - b| == |b - a|, so each decision is the scan's.
    """
    n = matrices.shape[0]
    flat = matrices.reshape(n, 16)
    near = np.zeros((n, n), dtype=bool)  # near[i, j]: j < i within _DEDUP_TOL
    rows = max(1, _DEDUP_BLOCK // n)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        diff = np.zeros((stop - start, stop))
        for k in range(16):
            d = np.subtract.outer(flat[start:stop, k], flat[:stop, k])
            np.maximum(diff, np.abs(d, out=d), out=diff)
        near[start:stop, :stop] = np.tril(diff <= _DEDUP_TOL, start - 1)
    keep = ~near.any(axis=1)
    for i in np.flatnonzero(~keep):  # near[i, j] is False for j >= i
        keep[i] = not (near[i] & keep).any()
    return keep


def _distances_per_element(
    points: np.ndarray,
    group: SymmetryGroup,
    t1: Pose,
    t2: Pose,
    sym_points: np.ndarray | None = None,
    norm=point_norms,
) -> np.ndarray:
    """Mean point error for every group element; order matches the group.

    `norm` maps (..., 3) differences to per-point errors: the Euclidean
    `point_norms`, or `point_l1`.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    if sym_points is None:
        sym_points = apply_matrices(group.matrices, pts)  # (G, M, 3)
    g, m, _ = sym_points.shape
    a = apply_matrix(t1.matrix, sym_points.reshape(g * m, 3)).reshape(g, m, 3)
    b = apply_matrix(t2.matrix, pts)  # (M, 3)
    per_point = norm(a - b[None, :, :])  # (G, M)
    return seq_sum(per_point, axis=1) / m


def symmetric_distance(
    points,
    group: SymmetryGroup,
    t1: Pose,
    t2: Pose,
    *,
    sym_points: np.ndarray | None = None,
) -> float:
    """min over S in group of mean_x || t1 S x - t2 x ||, in meters.

    `sym_points`, when given, must be apply_matrices(group.matrices, points),
    the (G, M, 3) images S x; callers that reuse one label's group many
    times build it once.
    """
    return float(np.min(_distances_per_element(points, group, t1, t2, sym_points)))


def symmetric_distance_l1(points, group: SymmetryGroup, t1: Pose, t2: Pose) -> float:
    """L1-norm variant: min over S of mean_x | t1 S x - t2 x |_1.

    Used as the pose-error term of the single-view training loss.
    """
    return float(
        np.min(_distances_per_element(points, group, t1, t2, norm=point_l1))
    )
