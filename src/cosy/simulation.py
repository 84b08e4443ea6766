"""Synthetic scenes with ground truth: the test harness for the solver.

A scene is a handful of objects dropped uniformly inside a cube (50 cm by
default) with uniform random orientations, photographed by cameras placed
on the upper hemisphere around the cube at a configured distance, each
aimed at the cube center with a small random roll.

Observations emulate a single-view pose estimator: for every view and
every visible object, the true camera-frame pose is perturbed by Gaussian
translation noise (with an extra component along the optical axis, where
single-view estimates are least constrained), a random small rotation, and
occasional label swaps; detections can be dropped (misses) and spurious
candidates with random in-frustum poses injected (outliers). Every
candidate carries provenance: the index of the ground-truth object it came
from, or -1 for outliers.

All randomness flows through an explicitly seeded numpy Generator
(PCG64), so identical configs reproduce identical scenes bit for bit.
The scenes are values in memory; scene_io reads and writes their files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_masked, rotations_about_axes
from .scene_io import (
    Candidate,
    GroundTruthScene,
    ModelDB,
    ObjectModel,
    SceneObservations,
    View,
    max_pairwise_distance,
)
from .symmetry import SymmetrySpec

OUTLIER = -1

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480
)
# Uniform draw ranges of the emulated estimator: detection scores of true
# and of injected candidates, and the depth of an injected candidate.
TRUE_SCORE_RANGE = (0.6, 1.0)
OUTLIER_SCORE_RANGE = (0.35, 0.9)
OUTLIER_DEPTH_RANGE = (0.3, 2.5)
# make_models' defaults: points per model and the range of model radii.
DEFAULT_N_POINTS = 48
DEFAULT_RADIUS_RANGE = (0.03, 0.07)


def _require_range(name: str, bounds: tuple[float, float]) -> None:
    """A (min, max) range to draw uniformly from: finite, 0 < min <= max."""
    lo, hi = bounds
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
        raise ValueError(
            f"{name} must be finite with 0 < min <= max, got ({lo}, {hi})"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    n_objects: int
    n_views: int
    model_labels: tuple[str, ...]
    box_size: float = 0.5
    camera_distance_range: tuple[float, float] = (1.0, 1.5)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_objects", "n_views"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.box_size) and self.box_size > 0):
            raise ValueError(f"box_size must be finite and > 0, got {self.box_size}")
        if not self.model_labels:
            raise ValueError("model_labels must be non-empty")
        _require_range("camera_distance_range", self.camera_distance_range)
        object.__setattr__(self, "model_labels", tuple(self.model_labels))


@dataclass(frozen=True)
class NoiseModel:
    """Error taxonomy of an emulated single-view estimator."""

    rot_sigma_deg: float = 0.0
    trans_sigma: float = 0.0
    depth_sigma_extra: float = 0.0
    miss_prob: float = 0.0
    outlier_prob: float = 0.0
    label_confusion_prob: float = 0.0

    def __post_init__(self):
        for name in ("rot_sigma_deg", "trans_sigma", "depth_sigma_extra"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("miss_prob", "outlier_prob", "label_confusion_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def uniform_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (random unit quaternion)."""
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    x = a * np.sin(2.0 * np.pi * u2)
    y = a * np.cos(2.0 * np.pi * u2)
    z = b * np.sin(2.0 * np.pi * u3)
    w = b * np.cos(2.0 * np.pi * u3)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def look_at_rotation(position, target, roll: float) -> np.ndarray:
    """Camera-to-world rotation: +z toward target, +y downward, then roll.

    Roll rotates about the optical axis after aiming.
    """
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    f = target - position
    n = np.linalg.norm(f)
    if n < 1e-12:
        raise ValueError("camera is at the target point")
    f = f / n
    down = np.array([0.0, 0.0, -1.0])
    y = down - np.dot(down, f) * f
    ny = np.linalg.norm(y)
    if ny < 1e-9:
        # Looking straight up or down; pick an arbitrary horizontal "down".
        y = np.array([0.0, 1.0, 0.0]) - f * f[1]
        ny = np.linalg.norm(y)
    y = y / ny
    x = np.cross(y, f)
    R = np.stack([x, y, f], axis=1)
    return R @ rotations_about_axes([0.0, 0.0, 1.0], roll)[0]


def generate_scene(cfg: ScenarioConfig, db: ModelDB) -> GroundTruthScene:
    """Sample a ground-truth scene; deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    for label in cfg.model_labels:
        db[label]  # raises UnknownLabelError
    labels = tuple(
        cfg.model_labels[i % len(cfg.model_labels)] for i in range(cfg.n_objects)
    )
    half = cfg.box_size / 2
    object_poses = []
    for _ in range(cfg.n_objects):
        R = uniform_rotation(rng)
        t = rng.uniform(-half, half, size=3)
        object_poses.append(Pose.from_rt(R, t))
    views, camera_poses = [], []
    for i in range(cfg.n_views):
        dist = rng.uniform(*cfg.camera_distance_range)
        cos_polar = rng.uniform(0.0, 1.0)  # upper hemisphere, uniform in area
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        s = np.sqrt(1.0 - cos_polar * cos_polar)
        position = dist * np.array(
            [s * np.cos(azimuth), s * np.sin(azimuth), cos_polar]
        )
        roll = np.deg2rad(rng.uniform(-10.0, 10.0))
        R = look_at_rotation(position, np.zeros(3), roll)
        camera_poses.append(Pose.from_rt(R, position))
        views.append(View(view_id=f"view_{i:03d}", intrinsics=DEFAULT_INTRINSICS))
    return GroundTruthScene(
        db=db,
        views=tuple(views),
        camera_poses=tuple(camera_poses),
        object_labels=labels,
        object_poses=tuple(object_poses),
        box_size=cfg.box_size,
    )


def is_visible(pose_camera: Pose, k: CameraIntrinsics) -> bool:
    """Center-point visibility: in front of the camera and inside the image."""
    px, valid = project_masked(k, pose_camera.translation.reshape(1, 3))
    if not valid[0]:
        return False
    u, v = px[0]
    return 0.0 <= u <= k.width and 0.0 <= v <= k.height


def _perturb(pose: Pose, noise: NoiseModel, rng: np.random.Generator) -> Pose:
    # Fixed draw order: rotation axis, angle, translation, depth extra.
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    angle = abs(rng.normal(0.0, np.deg2rad(noise.rot_sigma_deg)))
    dt = rng.normal(0.0, noise.trans_sigma, size=3)
    dz = rng.normal(0.0, noise.depth_sigma_extra)
    R = rotations_about_axes(axis, angle)[0] @ pose.rotation
    t = pose.translation + dt
    t = t + np.array([0.0, 0.0, dz])
    return Pose.from_rt(R, t)


def generate_observations(
    scene: GroundTruthScene, noise: NoiseModel, rng: np.random.Generator
) -> tuple[SceneObservations, tuple[int, ...]]:
    """Emit noisy per-view candidates plus per-candidate provenance.

    Provenance holds the ground-truth object index, or OUTLIER (-1) for
    injected false positives. Label confusion keeps the provenance of the
    underlying object (the pose is still its pose).
    """
    all_labels = sorted(scene.db.models)
    candidates: list[Candidate] = []
    provenance: list[int] = []
    for vi, view in enumerate(scene.views):
        cam_inv = scene.camera_poses[vi].inverse()
        for oi, (label, t_world) in enumerate(
            zip(scene.object_labels, scene.object_poses)
        ):
            t_cam = cam_inv.compose(t_world)
            if not is_visible(t_cam, view.intrinsics):
                continue
            if noise.miss_prob > 0 and rng.random() < noise.miss_prob:
                continue
            pose = _perturb(t_cam, noise, rng)
            if pose.translation[2] <= 0.0:
                continue  # noise pushed it behind the camera; drop as a miss
            out_label = label
            if (
                noise.label_confusion_prob > 0
                and rng.random() < noise.label_confusion_prob
            ):
                others = [l for l in all_labels if l != label]
                if others:
                    out_label = others[int(rng.integers(len(others)))]
            score = rng.uniform(*TRUE_SCORE_RANGE)
            candidates.append(
                Candidate(view_id=view.view_id, label=out_label, score=score, pose=pose)
            )
            provenance.append(oi)
        if noise.outlier_prob > 0:
            for _ in range(len(scene.object_labels)):
                if rng.random() < noise.outlier_prob:
                    k = view.intrinsics
                    u = rng.uniform(0.0, k.width)
                    v = rng.uniform(0.0, k.height)
                    z = rng.uniform(*OUTLIER_DEPTH_RANGE)
                    t = np.array([(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z])
                    pose = Pose.from_rt(uniform_rotation(rng), t)
                    label = all_labels[int(rng.integers(len(all_labels)))]
                    score = rng.uniform(*OUTLIER_SCORE_RANGE)
                    candidates.append(
                        Candidate(
                            view_id=view.view_id, label=label, score=score, pose=pose
                        )
                    )
                    provenance.append(OUTLIER)
    obs = SceneObservations(views=scene.views, candidates=tuple(candidates))
    return obs, tuple(provenance)


def make_models(
    labels,
    seed: int = 0,
    n_points: int = DEFAULT_N_POINTS,
    symmetric: tuple[str, ...] = (),
    radius_range: tuple[float, float] = DEFAULT_RADIUS_RANGE,
) -> ModelDB:
    """Fabricate a database of random point-cloud models.

    Labels listed in `symmetric` get a continuous z-axis symmetry
    annotation and a matching 8-fold replicated point cloud.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    _require_range("radius_range", radius_range)
    rng = np.random.default_rng(seed)
    models: dict[str, ObjectModel] = {}
    for label in labels:
        radius = rng.uniform(*radius_range)
        if label in symmetric:
            seeds = rng.uniform(-radius, radius, size=(max(2, n_points // 8), 3))
            orbit = [seeds]
            for k in range(1, 8):
                rot = rotations_about_axes([0, 0, 1], 2.0 * np.pi * k / 8)[0]
                orbit.append(seeds @ rot.T)
            pts = np.concatenate(orbit)
            spec = SymmetrySpec(
                continuous_axes=((np.array([0.0, 0.0, 1.0]), np.zeros(3)),)
            )
        else:
            pts = rng.uniform(-radius, radius, size=(n_points, 3))
            spec = SymmetrySpec()
        diameter = max_pairwise_distance(pts) * (1.0 + 1e-9)
        models[label] = ObjectModel(
            label=label, points=pts, diameter=diameter, symmetries=spec
        )
    return ModelDB(models=models)
