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
# Flat row-major slots of x, y, z and of -x, -y, -z in the cross matrix
# [[0, -z, y], [z, 0, -x], [-y, x, 0]].
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


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
        return Pose(inverse_matrices(self.matrix[None])[0])

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
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics fx, fy, cx, cy must be finite")
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError(
                f"image width and height must be >= 1, got {self.width} x "
                f"{self.height}"
            )


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
    return _pixels(k, pts[:, 0], pts[:, 1], pts[:, 2])


def project_masked(
    k: CameraIntrinsics, pts_camera_frame, z_min: float = DEFAULT_Z_MIN
) -> tuple[np.ndarray, np.ndarray]:
    """Project points, returning (pixels, valid_mask).

    Points with z <= z_min get mask False and an undefined (finite) pixel
    value; callers must ignore them. Only k's fx, fy, cx and cy are read,
    and they may be (N,) arrays giving each point its own camera.
    """
    pts = _as_points(pts_camera_frame)
    return project_masked_xyz(k, pts[:, 0], pts[:, 1], pts[:, 2], z_min)


def project_masked_xyz(
    k: CameraIntrinsics, x, y, z, z_min: float = DEFAULT_Z_MIN
) -> tuple[np.ndarray, np.ndarray]:
    """project_masked of points given as coordinate arrays x, y, z.

    A point with z <= z_min (or NaN z) is projected at the placeholder
    depth z = 1 and flagged invalid.
    """
    valid = z > z_min
    return _pixels(k, x, y, np.where(valid, z, 1.0)), valid


def _pixels(k: CameraIntrinsics, x, y, z) -> np.ndarray:
    u = k.fx * x / z + k.cx
    v = k.fy * y / z + k.cy
    return np.stack([u, v], axis=1)


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


def skew(v) -> np.ndarray:
    """Cross-product matrices: skew(v) @ w == v x w, over (..., 3) vectors."""
    v = np.asarray(v, dtype=np.float64)
    k = np.zeros(v.shape[:-1] + (9,))
    k[..., _SKEW_PLUS] = v
    k[..., _SKEW_MINUS] = -v
    return k.reshape(v.shape[:-1] + (3, 3))


def _row_norms(v: np.ndarray) -> np.ndarray:
    # One (1, 3) @ (3, 1) product per row: the same dot np.linalg.norm takes.
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def rotations_about_axes(axes, angles) -> np.ndarray:
    """(P, 3, 3) rotations about (P, 3) nonzero axes through the origin.

    Rodrigues' formula I + sin(a) K + (1 - cos(a)) K^2 with K the cross
    matrix of the normalized axis; the only Rodrigues evaluation in the
    package, so every caller gets the same bits per row.
    """
    axes = np.asarray(axes, dtype=np.float64).reshape(-1, 3)
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    n = _row_norms(axes)
    if not n.all():
        raise ValueError("rotation axis must be nonzero")
    k = skew(axes / n[:, None])
    return (_EYE3 + np.sin(angles)[:, None, None] * k) + (
        1.0 - np.cos(angles)
    )[:, None, None] * (k @ k)


def rotation_exps(omegas) -> np.ndarray:
    """Axis-angle exponentials (Rodrigues) of (P, 3) vectors, (P, 3, 3)."""
    omegas = np.asarray(omegas, dtype=np.float64).reshape(-1, 3)
    theta = _row_norms(omegas)
    small = theta < 1e-12
    if not small.any():
        # The axis omega / theta is normalized once more, as any axis is.
        return rotations_about_axes(omegas / theta[:, None], theta)
    # Second-order series; below this angle the closed form loses precision.
    k = skew(omegas[small])
    out = np.empty((omegas.shape[0], 3, 3))
    out[small] = (_EYE3 + k) + 0.5 * (k @ k)
    big = ~small
    if big.any():
        out[big] = rotations_about_axes(omegas[big] / theta[big, None], theta[big])
    return out


def retract_matrices(matrices: np.ndarray, deltas) -> np.ndarray:
    """Left increments of a (P, 4, 4) pose stack by (P, 6) deltas, (P, 4, 4).

    Row i is D_i @ matrices[i], D_i the pose with rotation
    rotation_exps(deltas[i, :3]) and translation deltas[i, 3:]; a zero
    delta leaves the pose unchanged. All rotations are computed in one pass.
    """
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 6)
    inc = np.zeros((deltas.shape[0], 4, 4))
    inc[:, :3, :3] = rotation_exps(deltas[:, :3])
    inc[:, :3, 3] = deltas[:, 3:]
    inc[:, 3, 3] = 1.0
    return inc @ matrices


def inverse_matrices(matrices: np.ndarray) -> np.ndarray:
    """Inverses of a (P, 4, 4) rigid-pose stack: rotation R^T, translation -R^T t."""
    rt = matrices[:, :3, :3].transpose(0, 2, 1)
    out = np.zeros(matrices.shape)
    out[:, :3, :3] = rt
    out[:, :3, 3] = -(rt @ matrices[:, :3, 3, None])[:, :, 0]
    out[:, 3, 3] = 1.0
    return out


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    """True if R is orthonormal with determinant +1 within tol."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        return False
    if not np.allclose(R.T @ R, np.eye(3), atol=tol):
        return False
    return bool(abs(np.linalg.det(R) - 1.0) <= max(tol, 1e-9))
