"""Geometric kernels of the iterative single-view pose refiner.

No network lives here; these are the closed-form pieces around one: the
fictive camera of a crop-and-resize around the object, the pose update that
decodes a 9-value prediction (vx, vy in crop pixels, vz depth ratio, and a
6D rotation) into the next pose estimate, the exact inverse of that update
(used to compute regression targets), the canonical first estimate placed
1 m from the camera, and the disentangled symmetric loss that scores a
prediction while isolating xy / depth / rotation errors from each other.

Nothing in the solve or simulate pipeline calls them; tests validate the
algebra (round trips, disentanglement) independently of any learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, project, rotation_from_6d
from .scene_io import ObjectModel
from .symmetry import SymmetryGroup, discretize, symmetric_distance_l1

CROP_WIDTH = 320
CROP_HEIGHT = 240
CROP_PADDING = 1.4


@dataclass(frozen=True)
class UpdateParams:
    """Raw 9-value pose update: crop-pixel shift, depth ratio, 6D rotation."""

    vx: float
    vy: float
    vz: float
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        if not self.vz > 0.0:
            raise ValueError(f"depth ratio vz must be > 0, got {self.vz}")
        e1 = np.asarray(self.e1, dtype=np.float64).reshape(3)
        e2 = np.asarray(self.e2, dtype=np.float64).reshape(3)
        e1.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    @staticmethod
    def zero_motion() -> "UpdateParams":
        return UpdateParams(
            vx=0.0, vy=0.0, vz=1.0, e1=np.array([1.0, 0, 0]), e2=np.array([0.0, 1, 0])
        )

    def rotation(self) -> np.ndarray:
        return rotation_from_6d(self.e1, self.e2)


@dataclass(frozen=True)
class CropCamera:
    """Fictive pinhole camera of a crop resized to CROP_WIDTH x CROP_HEIGHT.

    The box is in source-image pixels (x0, y0, x1, y1) and may extend past
    the source borders; the intrinsics describe projection directly into
    the resized crop.
    """

    fx_c: float
    fy_c: float
    cx_c: float
    cy_c: float
    box: tuple[float, float, float, float]
    width: int = CROP_WIDTH
    height: int = CROP_HEIGHT

    def __post_init__(self):
        if not (self.fx_c > 0 and self.fy_c > 0):
            raise ValueError("cropped focal lengths must be positive")

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.fx_c, fy=self.fy_c, cx=self.cx_c, cy=self.cy_c,
            width=self.width, height=self.height,
        )

    def map_to_crop(self, pixels) -> np.ndarray:
        """Source-image pixels -> resized-crop pixels."""
        px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
        x0, y0, x1, y1 = self.box
        sx = self.width / (x1 - x0)
        sy = self.height / (y1 - y0)
        return np.stack([(px[:, 0] - x0) * sx, (px[:, 1] - y0) * sy], axis=1)


def crop_from_pose(
    t: Pose,
    model: ObjectModel,
    k: CameraIntrinsics,
    padding: float = CROP_PADDING,
    out_width: int = CROP_WIDTH,
    out_height: int = CROP_HEIGHT,
) -> CropCamera:
    """Fictive camera for the padded, aspect-corrected crop around the object.

    The box is the bounding box of the projected model points, scaled by
    `padding` about its center, then widened on one axis to the output
    aspect ratio so crop-and-resize is an isotropic scaling.
    """
    px = project(k, t.transform(model.points))  # BehindCameraError propagates
    lo = px.min(axis=0)
    hi = px.max(axis=0)
    center = 0.5 * (lo + hi)
    half_w = 0.5 * (hi[0] - lo[0]) * padding
    half_h = 0.5 * (hi[1] - lo[1]) * padding
    # Degenerate projections (point-like models) still need a finite box.
    half_w = max(half_w, 1e-6)
    half_h = max(half_h, 1e-6)
    aspect = out_width / out_height
    if half_w / half_h < aspect:
        half_w = half_h * aspect
    else:
        half_h = half_w / aspect
    x0, x1 = center[0] - half_w, center[0] + half_w
    y0, y1 = center[1] - half_h, center[1] + half_h
    sx = out_width / (x1 - x0)
    sy = out_height / (y1 - y0)
    return CropCamera(
        fx_c=k.fx * sx,
        fy_c=k.fy * sy,
        cx_c=(k.cx - x0) * sx,
        cy_c=(k.cy - y0) * sy,
        box=(float(x0), float(y0), float(x1), float(y1)),
        width=out_width,
        height=out_height,
    )


def _update_with_rotation(
    t_k: Pose, vx: float, vy: float, vz: float, R: np.ndarray, crop: CropCamera
) -> Pose:
    x, y, z = t_k.translation
    if not z > 0.0:
        raise ValueError(f"input pose depth must be > 0, got {z}")
    z1 = vz * z
    x1 = (vx / crop.fx_c + x / z) * z1
    y1 = (vy / crop.fy_c + y / z) * z1
    return Pose.from_rt(R @ t_k.rotation, [x1, y1, z1])


def apply_update(t_k: Pose, p: UpdateParams, crop: CropCamera) -> Pose:
    """Decode an update against the current pose estimate.

    New depth is vz * z; the object's projected center moves by (vx, vy)
    crop pixels; the new rotation is R(e1, e2) applied on the camera side
    of the current rotation.
    """
    return _update_with_rotation(t_k, p.vx, p.vy, p.vz, p.rotation(), crop)


def target_update(t_k: Pose, t_gt: Pose, crop: CropCamera) -> UpdateParams:
    """Exact inverse of apply_update: the params mapping t_k onto t_gt."""
    x, y, z = t_k.translation
    xg, yg, zg = t_gt.translation
    if not (z > 0.0 and zg > 0.0):
        raise ValueError("both poses must have depth > 0")
    vz = zg / z
    vx = crop.fx_c * (xg / zg - x / z)
    vy = crop.fy_c * (yg / zg - y / z)
    R_hat = t_gt.rotation @ t_k.rotation.T
    return UpdateParams(vx=vx, vy=vy, vz=vz, e1=R_hat[:, 0].copy(), e2=R_hat[:, 1].copy())


def canonical_init(bbox_2d, k: CameraIntrinsics, distance: float = 1.0) -> Pose:
    """Canonical first pose: identity rotation, bbox center back-projected
    to the given distance (1 m by default)."""
    x0, y0, x1, y1 = (float(v) for v in bbox_2d)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty bbox {bbox_2d}")
    u = 0.5 * (x0 + x1)
    v = 0.5 * (y0 + y1)
    x = (u - k.cx) / k.fx * distance
    y = (v - k.cy) / k.fy * distance
    return Pose.from_rt(np.eye(3), [x, y, distance])


def disentangled_loss(
    t_k: Pose,
    p: UpdateParams,
    t_gt: Pose,
    model: ObjectModel,
    crop: CropCamera,
    group: SymmetryGroup | None = None,
) -> float:
    """Three-term symmetric loss isolating xy, depth, and rotation errors.

    Each term decodes a pose using the predicted value for exactly one
    block (xy shift / depth ratio / rotation) and target values for the
    others, then measures the L1 symmetric distance to the target pose.
    Zero iff the decoded pose matches the target up to an object symmetry.
    """
    terms = loss_terms(t_k, p, t_gt, model, crop, group)
    return (terms[0] + terms[1]) + terms[2]


def loss_terms(
    t_k: Pose,
    p: UpdateParams,
    t_gt: Pose,
    model: ObjectModel,
    crop: CropCamera,
    group: SymmetryGroup | None = None,
) -> tuple[float, float, float]:
    """The three disentangled_loss terms separately (xy, depth, rotation)."""
    if group is None:
        group = discretize(model.symmetries)
    hat = target_update(t_k, t_gt, crop)
    R_hat = rotation_from_6d(hat.e1, hat.e2)
    pose_xy = _update_with_rotation(t_k, p.vx, p.vy, hat.vz, R_hat, crop)
    pose_z = _update_with_rotation(t_k, hat.vx, hat.vy, p.vz, R_hat, crop)
    pose_rot = _update_with_rotation(t_k, hat.vx, hat.vy, hat.vz, p.rotation(), crop)
    pts = model.points
    return (
        symmetric_distance_l1(pts, group, pose_xy, t_gt),
        symmetric_distance_l1(pts, group, pose_z, t_gt),
        symmetric_distance_l1(pts, group, pose_rot, t_gt),
    )
