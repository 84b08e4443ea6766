"""Rigid-body transforms, pinhole projection and rotation parametrizations.

Conventions used across the package:
  - Poses are 4x4 homogeneous matrices over float64. A pose T_AB maps points
    expressed in frame B to frame A: p_A = R @ p_B + t.
  - Translations are in meters, image coordinates in pixels.
  - Camera frame: x right, y down, z forward (points with z > 0 are in
    front of the camera).
  - Point sets are (N, 3) float64 arrays.

Point transforms accumulate left to right (x*r0 + y*r1 + z*r2 + t) so that
vectorized results are bit-identical to scalar evaluation; several test
oracles rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BehindCameraError(ValueError):
    """A point lies behind (or numerically on) the camera plane."""


class DegenerateBasisError(ValueError):
    """The two basis vectors cannot be orthogonalized into a rotation."""


DEFAULT_Z_MIN = 1e-3
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_EYE3 = np.eye(3)


def _as_points(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) point array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class Pose:
    """Rigid transform (rotation + translation) as a 4x4 homogeneous matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"pose matrix must be 4x4, got {m.shape}")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(4))

    @staticmethod
    def from_rt(rotation, translation) -> "Pose":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=np.float64)
        m[:3, 3] = np.asarray(translation, dtype=np.float64)
        return Pose(m)

    @staticmethod
    def from_matrix(matrix, rtol: float = 1e-6) -> "Pose":
        """Build a pose from a homogeneous matrix, validating its structure.

        The entries must be finite, the bottom row (0, 0, 0, 1) within 1e-9,
        and R^T R within `rtol` of the identity (max abs entry) with det R > 0.
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"pose matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        if np.abs(m[3] - _BOTTOM_ROW).max() > 1e-9:
            raise ValueError(f"bottom row must be (0, 0, 0, 1), got {m[3]}")
        R = m[:3, :3]
        if np.abs(R.T @ R - _EYE3).max() > rtol:
            raise ValueError("rotation block is not orthonormal")
        if np.linalg.det(R) < 0.0:
            raise ValueError("rotation block has negative determinant")
        return Pose(m)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.matrix @ other.matrix)

    def inverse(self) -> "Pose":
        R = self.matrix[:3, :3]
        t = self.matrix[:3, 3]
        m = np.eye(4)
        m[:3, :3] = R.T
        m[:3, 3] = -(R.T @ t)
        return Pose(m)

    def transform(self, pts) -> np.ndarray:
        return apply_matrix(self.matrix, pts)

    def __repr__(self) -> str:  # pragma: no cover
        t = self.translation
        return f"Pose(t=[{t[0]:.4g}, {t[1]:.4g}, {t[2]:.4g}])"


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")


def compose(a: Pose, b: Pose) -> Pose:
    """Homogeneous-matrix product a * b."""
    return a.compose(b)


def inverse(t: Pose) -> Pose:
    return t.inverse()


def apply_matrix(matrix: np.ndarray, pts) -> np.ndarray:
    """Apply the rigid transform in `matrix` to an (N, 3) point array.

    Accumulation order is fixed (x*r0 + y*r1 + z*r2 + t, left to right) so
    the result matches per-point scalar evaluation bit for bit.
    """
    pts = _as_points(pts)
    R = matrix[:3, :3]
    t = matrix[:3, 3]
    return (
        (pts[:, 0, None] * R[None, :, 0] + pts[:, 1, None] * R[None, :, 1])
        + pts[:, 2, None] * R[None, :, 2]
    ) + t[None, :]


def apply_matrices(matrices: np.ndarray, pts) -> np.ndarray:
    """Apply a stack of (G, 4, 4) transforms to (N, 3) points, giving (G, N, 3).

    Same accumulation order as apply_matrix.
    """
    pts = _as_points(pts)
    R = matrices[:, :3, :3]
    t = matrices[:, :3, 3]
    return (
        (
            pts[None, :, 0, None] * R[:, None, :, 0]
            + pts[None, :, 1, None] * R[:, None, :, 1]
        )
        + pts[None, :, 2, None] * R[:, None, :, 2]
    ) + t[:, None, :]


def apply_matrices_indexed(matrices: np.ndarray, index: np.ndarray, pts) -> np.ndarray:
    """Apply matrices[index[i]] to point i: (T, 4, 4), (N,), (N, 3) -> (N, 3).

    Same accumulation order as apply_matrix, so each point matches
    apply_matrix with its own matrix bit for bit.
    """
    pts = _as_points(pts)
    # Coordinate-major (3, 4, N) gather: each term below is a contiguous row.
    m = np.take(matrices[:, :3, :].transpose(1, 2, 0), index, axis=2)
    x, y, z = pts.T
    return (((x * m[:, 0] + y * m[:, 1]) + z * m[:, 2]) + m[:, 3]).T


def transform_points(t: Pose, pts) -> np.ndarray:
    """Transform each point by R @ x + translation, preserving order."""
    return apply_matrix(t.matrix, pts)


def project(k: CameraIntrinsics, pts_camera_frame, z_min: float = DEFAULT_Z_MIN) -> np.ndarray:
    """Project camera-frame points to pixel coordinates.

    Raises BehindCameraError if any point has z <= z_min; use project_masked
    where degenerate points should be flagged instead.
    """
    pts = _as_points(pts_camera_frame)
    z = pts[:, 2]
    if np.any(z <= z_min):
        bad = int(np.argmax(z <= z_min))
        raise BehindCameraError(
            f"point {bad} has depth {z[bad]:.6g} <= z_min {z_min:.6g}"
        )
    return _project_unchecked(k, pts)


def project_masked(
    k: CameraIntrinsics, pts_camera_frame, z_min: float = DEFAULT_Z_MIN
) -> tuple[np.ndarray, np.ndarray]:
    """Project points, returning (pixels, valid_mask).

    Points with z <= z_min get mask False and an undefined (finite) pixel
    value; callers must ignore them. Only k's fx, fy, cx and cy are read,
    and they may be (N,) arrays giving each point its own camera.
    """
    pts = _as_points(pts_camera_frame)
    valid = pts[:, 2] > z_min
    safe = pts.copy()
    safe[~valid, 2] = 1.0
    return _project_unchecked(k, safe), valid


def _project_unchecked(k: CameraIntrinsics, pts: np.ndarray) -> np.ndarray:
    z = pts[:, 2]
    u = k.fx * pts[:, 0] / z + k.cx
    v = k.fy * pts[:, 1] / z + k.cy
    return np.stack([u, v], axis=1)


def unproject(k: CameraIntrinsics, pixels, depths) -> np.ndarray:
    """Back-project pixels at known depths into camera-frame points."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    z = np.asarray(depths, dtype=np.float64).reshape(-1)
    x = (px[:, 0] - k.cx) / k.fx * z
    y = (px[:, 1] - k.cy) / k.fy * z
    return np.stack([x, y, z], axis=1)


def rotation_from_6d(e1, e2, eps: float = 1e-9) -> np.ndarray:
    """Orthogonalize two 3-vectors into a rotation matrix.

    Columns of the result are (e1 normalized, completed via cross products).
    If (e1, e2) are the first two columns of a rotation, that rotation is
    returned. Raises DegenerateBasisError when e1 is near zero or the two
    vectors are near parallel.
    """
    e1 = np.asarray(e1, dtype=np.float64).reshape(3)
    e2 = np.asarray(e2, dtype=np.float64).reshape(3)
    n1 = np.linalg.norm(e1)
    if n1 <= eps:
        raise DegenerateBasisError("first basis vector has near-zero norm")
    c1 = e1 / n1
    c3 = np.cross(c1, e2)
    n3 = np.linalg.norm(c3)
    if n3 <= eps * max(1.0, np.linalg.norm(e2)):
        raise DegenerateBasisError("basis vectors are near parallel")
    c3 = c3 / n3
    c2 = np.cross(c3, c1)
    return np.stack([c1, c2, c3], axis=1)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == v x w."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a (not necessarily unit) axis through the origin."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    u = axis / n
    K = skew(u)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_exp(omega: np.ndarray) -> np.ndarray:
    """Axis-angle exponential (Rodrigues) of a 3-vector."""
    omega = np.asarray(omega, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        # Second-order series; below this angle the closed form loses precision.
        K = skew(omega)
        return np.eye(3) + K + 0.5 * (K @ K)
    return rotation_about_axis(omega / theta, theta)


def retract(t: Pose, delta) -> Pose:
    """Apply a 6-dof increment (rotation xyz, translation xyz) on the left.

    retract(t, 0) == t, and for small increments the update agrees with the
    rigid-body exponential to second order.
    """
    delta = np.asarray(delta, dtype=np.float64).reshape(6)
    m = np.eye(4)
    m[:3, :3] = rotation_exp(delta[:3])
    m[:3, 3] = delta[3:]
    return Pose(m @ t.matrix)


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    """True if R is orthonormal with determinant +1 within tol."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        return False
    if not np.allclose(R.T @ R, np.eye(3), atol=tol):
        return False
    return bool(abs(np.linalg.det(R) - 1.0) <= max(tol, 1e-9))
