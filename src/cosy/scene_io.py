"""Data model and JSON (de)serialization for the pipeline.

Four document kinds flow through the tool:
  - models.json: the object database. Each entry carries a label, model
    points (flat xyz array, meters, model frame), a diameter, and a
    symmetry annotation {discrete: [16-float row-major matrices],
    axes: [{axis, offset}]}.
  - observations.json: views (id + pinhole intrinsics) and per-view pose
    candidates (view_id, label, score, pose as 16-float row-major matrix,
    object in camera frame).
  - estimate.json: solver output. World camera poses (camera-to-world) and
    physical objects (label, world pose, aggregate score, member
    candidates referenced by view_id + index into that view's candidates).
  - ground_truth.json: a simulated scene. The views as in observations,
    world camera poses listed in the views' order, world object poses
    with labels, the scene box size and per-candidate provenance (index
    of the generating object, -1 for injected outliers).

All units are meters and pixels. Serialization uses Python's repr-based
float formatting, so save followed by load reproduces every value bit for
bit; files are UTF-8 with sorted keys so equal inputs give byte-equal
outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .numeric import pairwise_sq_reduce, point_norms
from .symmetry import SymmetrySpec

DIAMETER_MIN = 0.01
DIAMETER_MAX = 2.0
# Up to this many points max_pairwise_distance's bound costs more than the
# part of the scan it saves: 44 against 41 us at 64 points, 45 against 65 us
# at 96 (one core of a 2-vCPU x86 host, numpy 2.4).
_PRUNE_MIN_POINTS = 64


class ParseError(ValueError):
    """File is not valid JSON or not a JSON object."""


class SchemaError(ValueError):
    """Document structure is wrong: missing/duplicate/ill-typed fields."""


class InvariantError(ValueError):
    """Well-formed data violating a semantic constraint (e.g. z <= 0)."""


class _PlainKeyError(KeyError):
    """A KeyError whose message prints as given: KeyError's own str()
    shows the repr of its argument."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class UnknownLabelError(_PlainKeyError):
    """A candidate or object references a label absent from the model database."""


class UnknownViewError(_PlainKeyError):
    """Candidate references a view_id absent from the view list."""


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """One object in the database: geometry plus symmetry annotation."""

    label: str
    points: np.ndarray
    diameter: float
    symmetries: SymmetrySpec = field(default_factory=SymmetrySpec)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise InvariantError(
                f"model '{self.label}': points must be (N>=1, 3), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise InvariantError(f"model '{self.label}': points must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        d = float(self.diameter)
        if not d > 0.0:
            raise InvariantError(f"model '{self.label}': diameter must be > 0, got {d}")
        if not (DIAMETER_MIN <= d <= DIAMETER_MAX):
            raise InvariantError(
                f"model '{self.label}': diameter {d} m outside sanity range "
                f"[{DIAMETER_MIN}, {DIAMETER_MAX}] (inputs must be in meters)"
            )
        if pts.shape[0] >= 2:
            spread = max_pairwise_distance(pts)
            if d < spread * (1.0 - 1e-6):
                raise InvariantError(
                    f"model '{self.label}': diameter {d} smaller than point "
                    f"spread {spread:.6g}"
                )
        object.__setattr__(self, "diameter", d)

    def require_matchable(self) -> None:
        """Matching needs >= 4 non-coplanar points to pin down a pose."""
        if self.points.shape[0] < 4:
            raise InvariantError(
                f"model '{self.label}': matching needs >= 4 points"
            )
        if _coplanar(self.points, 1e-9 * self.diameter):
            raise InvariantError(f"model '{self.label}': points are coplanar")


def _coplanar(points: np.ndarray, tol: float) -> bool:
    """Whether an (N, 3) point array lies in one plane, to within tol.

    With c the centroid, a the point farthest from c and b the point
    farthest from the line c-a, the points are coplanar when every point
    lies within tol of the plane (c, a, b): |(x - c) . n| <= tol |n| for
    n = (a - c) x (b - c). They are also coplanar when every point lies
    within tol of c or of the line c-a, where (c, a, b) spans no plane.
    Plain elementwise numpy: no factorization.
    """
    d = points - points.mean(axis=0)
    x, y, z = d.T
    ax, ay, az = d[np.argmax(x * x + y * y + z * z)].tolist()
    a2 = ax * ax + ay * ay + az * az
    if a2 <= tol * tol:
        return True
    along = (x * ax + y * ay + z * az) / a2
    ox, oy, oz = x - along * ax, y - along * ay, z - along * az
    off2 = ox * ox + oy * oy + oz * oz
    k = np.argmax(off2)
    if off2[k] <= tol * tol:
        return True
    bx, by, bz = d[k].tolist()
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return bool(np.abs(x * nx + y * ny + z * nz).max() <= tol * norm)


def max_pairwise_distance(pts: np.ndarray) -> float:
    """Largest distance between two rows of an (N, 3) point array.

    With r_i the distance of point i from the centroid, no pair (i, j) lies
    farther apart than r_i + r_j, so a point whose r_i + max(r) is below a
    distance already realized (the farthest point's from the point farthest
    from the centroid) belongs to no farther pair. Only the other points
    are compared with each other; the bounds are widened by a relative 1e-9
    that covers their rounding. The squared distances are computed as a
    full scan computes them, so the maximum is the scan's bit for bit.
    Clouds of at most _PRUNE_MIN_POINTS points are scanned in full.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if len(pts) > _PRUNE_MIN_POINTS:
        r = point_norms(pts - pts.mean(axis=0))
        far = int(np.argmax(r))
        realized = pairwise_sq_reduce(pts[far : far + 1], pts, np.maximum)[0]
        reach = (r + r[far]) * (1.0 + 1e-9)
        pts = pts[reach * reach >= realized]
    return float(np.sqrt(pairwise_sq_reduce(pts, pts, np.maximum).max()))


@dataclass(frozen=True, eq=False)
class ModelDB:
    models: dict[str, ObjectModel]

    def __post_init__(self):
        for label, model in self.models.items():
            if label != model.label:
                raise SchemaError(f"db key '{label}' != model label '{model.label}'")

    def __getitem__(self, label: str) -> ObjectModel:
        try:
            return self.models[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.models

    def __len__(self) -> int:
        return len(self.models)


@dataclass(frozen=True, eq=False)
class View:
    view_id: str
    intrinsics: CameraIntrinsics


@dataclass(frozen=True, eq=False)
class Candidate:
    """One single-view pose hypothesis: object `label` seen in `view_id`.
    An invalid field's error message starts with the field's name."""

    view_id: str
    label: str
    score: float
    pose: Pose  # object in camera frame

    def __post_init__(self):
        s = float(self.score)
        if not (0.0 <= s <= 1.0):
            raise InvariantError(f"score: {s} outside [0, 1]")
        object.__setattr__(self, "score", s)
        z = self.pose.translation[2]
        if not z > 0.0:
            raise InvariantError(f"pose: depth {z:.6g} must be > 0")


@dataclass(frozen=True, eq=False)
class SceneObservations:
    views: tuple[View, ...]
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        ids = [v.view_id for v in self.views]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})[0]
            raise SchemaError(f"duplicate view_id '{dup}'")
        known = set(ids)
        for c in self.candidates:
            if c.view_id not in known:
                raise UnknownViewError(f"unknown view_id {c.view_id!r}")

    def by_view(self) -> dict[str, list[tuple[int, Candidate]]]:
        """Candidates grouped by view, keeping their global index."""
        out: dict[str, list[tuple[int, Candidate]]] = {v.view_id: [] for v in self.views}
        for i, c in enumerate(self.candidates):
            out[c.view_id].append((i, c))
        return out


@dataclass(frozen=True, eq=False)
class EstimatedCamera:
    view_id: str
    pose_world: Pose  # camera-to-world


@dataclass(frozen=True, eq=False)
class EstimatedObject:
    object_id: str
    label: str
    pose_world: Pose  # object-to-world
    score: float  # sum of member candidate scores
    members: tuple[tuple[str, int], ...]  # (view_id, candidate index)


@dataclass(frozen=True, eq=False)
class SceneEstimate:
    cameras: tuple[EstimatedCamera, ...]
    objects: tuple[EstimatedObject, ...]
    config: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class GroundTruthScene:
    """A simulated scene: the true world poses that `cosy eval` scores against."""

    db: ModelDB
    views: tuple[View, ...]
    camera_poses: tuple[Pose, ...]  # camera-to-world, aligned with views
    object_labels: tuple[str, ...]
    object_poses: tuple[Pose, ...]  # object-to-world
    box_size: float

    def __post_init__(self):
        if len(self.views) != len(self.camera_poses):
            raise ValueError("views and camera_poses must align")
        if len(self.object_labels) != len(self.object_poses):
            raise ValueError("object_labels and object_poses must align")
        if not (math.isfinite(self.box_size) and self.box_size > 0):
            raise InvariantError(
                f"box_size must be finite and > 0, got {self.box_size}"
            )
        for i, label in enumerate(self.object_labels):
            if label not in self.db:
                raise UnknownLabelError(
                    f"objects[{i}].label: unknown label {label!r}, not in the models"
                )
        half = self.box_size / 2 + 1e-9
        for i, t in enumerate(self.object_poses):
            if np.any(np.abs(t.translation) > half):
                raise InvariantError(
                    f"objects[{i}] outside the scene box of size {self.box_size}"
                )

    def camera_frame_pose(self, view_index: int, object_index: int) -> Pose:
        """Ground-truth pose of an object in one camera's frame."""
        return self.camera_poses[view_index].inverse().compose(
            self.object_poses[object_index]
        )


# ---------------------------------------------------------------------------
# pose <-> flat list


def pose_to_list(pose: Pose) -> list[float]:
    """16-float row-major homogeneous matrix."""
    return [float(v) for v in pose.matrix.reshape(-1)]


def pose_from_list(values, where: str) -> Pose:
    """Rigid pose from 16 row-major floats; rejects non-finite or non-rigid input."""
    arr = _numbers(values, f"{where}: pose")
    if arr.shape != (16,):
        raise SchemaError(f"{where}: pose must be 16 floats row-major, got {arr.shape}")
    try:
        return Pose.from_matrix(arr.reshape(4, 4))
    except ValueError as e:
        raise SchemaError(f"{where}: pose {e}") from None


# ---------------------------------------------------------------------------
# models.json


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    return obj[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: must be a list, got {type(value).__name__}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: must be a string, got {type(value).__name__}")
    return value


_NUMBER_TYPES = frozenset((int, float))


def is_json_number(value) -> bool:
    """Whether a decoded JSON value is a number: an int or a float, not a
    bool. The writers emit numbers only so."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A JSON number as a float; any other value, or an integer beyond the
    float range, is a SchemaError."""
    if not is_json_number(value):
        raise SchemaError(f"{where}: must be a number, got {value!r:.40}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: number beyond the float range") from None


def json_integer(value, where: str) -> int:
    """A JSON integer, never truncated; any other value is a SchemaError
    naming `where`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: must be an integer, got {value!r:.40}")
    return value


def _unique(ids: list[str], where: str, key: str) -> set[str]:
    """The set of `ids`; a SchemaError naming the first entry of the list at
    `where` whose `key` repeats an earlier entry's."""
    seen = set()
    for i, value in enumerate(ids):
        if value in seen:
            raise SchemaError(f"{where}[{i}].{key}: duplicate {key} {value!r}")
        seen.add(value)
    return seen


def _numbers(values, where: str) -> np.ndarray:
    """A JSON list of numbers as a float64 array; any other value, or an
    element that is not a number, is a SchemaError."""
    # The set of element types is built in C; only a list holding some
    # other type is scanned element by element.
    if not _NUMBER_TYPES.issuperset(map(type, _list(values, where))):
        for i, value in enumerate(values):
            if not is_json_number(value):
                raise SchemaError(f"{where}[{i}]: must be a number, got {value!r:.40}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise SchemaError(f"{where}: number beyond the float range") from None


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:
        # Malformed JSON, bytes that are not UTF-8, or an integer literal
        # longer than the interpreter converts.
        raise ParseError(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


def dump_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _symmetries_to_json(spec: SymmetrySpec) -> dict:
    return {
        "discrete": [pose_to_list(p) for p in spec.discrete],
        "axes": [
            {"axis": [float(v) for v in axis], "offset": [float(v) for v in offset]}
            for axis, offset in spec.continuous_axes
        ],
    }


def _symmetries_from_json(obj: dict, where: str) -> SymmetrySpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: symmetries must be an object")
    discrete = [
        pose_from_list(m, f"{where}.discrete[{i}]")
        for i, m in enumerate(_list(obj.get("discrete", []), f"{where}.discrete"))
    ]
    if not discrete:
        discrete = [Pose.identity()]
    axes = []
    for i, a in enumerate(_list(obj.get("axes", []), f"{where}.axes")):
        at = f"{where}.axes[{i}]"
        axis = _numbers(_require(a, "axis", at), f"{at}.axis")
        offset = _numbers(a.get("offset", [0.0, 0.0, 0.0]), f"{at}.offset")
        axes.append((axis, offset))
    try:
        return SymmetrySpec(discrete=tuple(discrete), continuous_axes=tuple(axes))
    except ValueError as e:
        raise InvariantError(f"{where}: {e}") from None


def save_models(db: ModelDB, path) -> None:
    doc = {
        "models": [
            {
                "label": m.label,
                "points": [float(v) for v in m.points.reshape(-1)],
                "diameter": float(m.diameter),
                "symmetries": _symmetries_to_json(m.symmetries),
            }
            for m in (db.models[k] for k in sorted(db.models))
        ]
    }
    dump_json(doc, path)


def load_models(path) -> ModelDB:
    doc = load_json(path)
    entries = _list(_require(doc, "models", str(path)), f"{path}: models")
    models: dict[str, ObjectModel] = {}
    for i, e in enumerate(entries):
        where = f"{path}: models[{i}]"
        label = _require(e, "label", where)
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{where}: label must be a non-empty string")
        if label in models:
            raise SchemaError(f"{where}: duplicate label '{label}'")
        flat = _numbers(_require(e, "points", where), f"{where}.points")
        if flat.size % 3 != 0:
            raise SchemaError(f"{where}: points must be a flat xyz array")
        sym_spec = _symmetries_from_json(
            e.get("symmetries", {"discrete": [], "axes": []}), where
        )
        diameter = _number(_require(e, "diameter", where), f"{where}.diameter")
        try:
            models[label] = ObjectModel(label, flat.reshape(-1, 3), diameter, sym_spec)
        except InvariantError as exc:
            raise InvariantError(f"{where}: {exc}") from None
    return ModelDB(models=models)


# ---------------------------------------------------------------------------
# observations.json


def save_observations(obs: SceneObservations, path) -> None:
    doc = {
        "views": [view_to_json(v) for v in obs.views],
        "candidates": [
            {
                "view_id": c.view_id,
                "label": c.label,
                "score": c.score,
                "pose": pose_to_list(c.pose),
            }
            for c in obs.candidates
        ],
    }
    dump_json(doc, path)


def view_to_json(v: View) -> dict:
    """One {view_id, intrinsics} entry of observations or ground truth."""
    k = v.intrinsics
    return {
        "view_id": v.view_id,
        "intrinsics": {
            "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
            "width": k.width, "height": k.height,
        },
    }


def view_from_json(v, where: str) -> View:
    """One {view_id, intrinsics} entry of observations or ground truth."""
    intr = _require(v, "intrinsics", where)
    at = f"{where}.intrinsics"
    fields = {
        name: convert(_require(intr, name, at), f"{at}.{name}")
        for name, convert in (
            ("fx", _number), ("fy", _number), ("cx", _number), ("cy", _number),
            ("width", json_integer), ("height", json_integer),
        )
    }
    try:
        k = CameraIntrinsics(**fields)
    except ValueError as e:
        raise InvariantError(f"{where}: {e}") from None
    view_id = _string(_require(v, "view_id", where), f"{where}.view_id")
    return View(view_id=view_id, intrinsics=k)


def load_observations(path, db: ModelDB | None = None) -> SceneObservations:
    doc = load_json(path)
    views_raw = _list(_require(doc, "views", str(path)), f"{path}: views")
    cands_raw = _list(_require(doc, "candidates", str(path)), f"{path}: candidates")
    views = [view_from_json(v, f"{path}: views[{i}]") for i, v in enumerate(views_raw)]
    view_ids = _unique([v.view_id for v in views], f"{path}: views", "view_id")
    candidates = []
    for i, c in enumerate(cands_raw):
        where = f"{path}: candidates[{i}]"
        label = _string(_require(c, "label", where), f"{where}.label")
        if db is not None and label not in db:
            raise UnknownLabelError(f"{where}.label: unknown label {label!r}")
        view_id = _string(_require(c, "view_id", where), f"{where}.view_id")
        if view_id not in view_ids:
            raise UnknownViewError(f"{where}.view_id: unknown view_id {view_id!r}")
        score = _number(_require(c, "score", where), f"{where}.score")
        pose = pose_from_list(_require(c, "pose", where), where)
        try:
            candidates.append(Candidate(view_id, label, score, pose))
        except InvariantError as exc:
            raise InvariantError(f"{where}.{exc}") from None
    return SceneObservations(views=tuple(views), candidates=tuple(candidates))


# ---------------------------------------------------------------------------
# estimate.json


def _cameras_from_json(doc: dict, path, view_ids=None) -> tuple[EstimatedCamera, ...]:
    """The `cameras` list of an estimate or ground truth; with `view_ids`,
    the cameras must name exactly those views in that order."""
    entries = _list(_require(doc, "cameras", str(path)), f"{path}: cameras")
    cameras = []
    for i, c in enumerate(entries):
        where = f"{path}: cameras[{i}]"
        cameras.append(
            EstimatedCamera(
                view_id=_string(_require(c, "view_id", where), f"{where}.view_id"),
                pose_world=pose_from_list(_require(c, "pose_world", where), where),
            )
        )
    listed = [c.view_id for c in cameras]
    if view_ids is not None and listed != view_ids:
        raise SchemaError(
            f"{path}: cameras must list the views' view_ids {view_ids} in order, "
            f"got {listed}"
        )
    return tuple(cameras)


def save_estimate(est: SceneEstimate, path) -> None:
    doc = {
        "cameras": [
            {"view_id": c.view_id, "pose_world": pose_to_list(c.pose_world)}
            for c in est.cameras
        ],
        "objects": [
            {
                "object_id": o.object_id,
                "label": o.label,
                "pose_world": pose_to_list(o.pose_world),
                "score": float(o.score),
                "members": [
                    {"view_id": vid, "candidate_index": int(idx)}
                    for vid, idx in o.members
                ],
            }
            for o in est.objects
        ],
        "config": est.config,
        "stats": est.stats,
    }
    dump_json(doc, path)


def load_estimate(path) -> SceneEstimate:
    """An estimate whose cameras name distinct views and whose objects have
    distinct object_ids."""
    doc = load_json(path)
    cameras = _cameras_from_json(doc, path)
    _unique([c.view_id for c in cameras], f"{path}: cameras", "view_id")
    objects = []
    for i, o in enumerate(_list(_require(doc, "objects", str(path)), f"{path}: objects")):
        where = f"{path}: objects[{i}]"
        score = _number(_require(o, "score", where), f"{where}.score")
        if not math.isfinite(score):
            raise SchemaError(f"{where}.score: must be finite, got {score}")
        members = []
        for j, m in enumerate(_list(_require(o, "members", where), f"{where}.members")):
            at = f"{where}.members[{j}]"
            members.append((
                _string(_require(m, "view_id", at), f"{at}.view_id"),
                json_integer(
                    _require(m, "candidate_index", at), f"{at}.candidate_index"
                ),
            ))
        objects.append(
            EstimatedObject(
                object_id=_string(_require(o, "object_id", where), f"{where}.object_id"),
                label=_string(_require(o, "label", where), f"{where}.label"),
                pose_world=pose_from_list(_require(o, "pose_world", where), where),
                score=score,
                members=tuple(members),
            )
        )
    _unique([o.object_id for o in objects], f"{path}: objects", "object_id")
    return SceneEstimate(
        cameras=cameras,
        objects=tuple(objects),
        config=doc.get("config", {}),
        stats=doc.get("stats", {}),
    )


# ---------------------------------------------------------------------------
# ground_truth.json


def save_ground_truth(scene: GroundTruthScene, provenance, path) -> None:
    doc = {
        "box_size": scene.box_size,
        "cameras": [
            {"view_id": v.view_id, "pose_world": pose_to_list(p)}
            for v, p in zip(scene.views, scene.camera_poses)
        ],
        "objects": [
            {"label": label, "pose_world": pose_to_list(p)}
            for label, p in zip(scene.object_labels, scene.object_poses)
        ],
        "views": [view_to_json(v) for v in scene.views],
        "provenance": [int(p) for p in provenance],
    }
    dump_json(doc, path)


def load_ground_truth(path, db: ModelDB) -> tuple[GroundTruthScene, tuple[int, ...]]:
    doc = load_json(path)
    views = tuple(
        view_from_json(v, f"{path}: views[{i}]")
        for i, v in enumerate(_list(_require(doc, "views", str(path)), f"{path}: views"))
    )
    _unique([v.view_id for v in views], f"{path}: views", "view_id")
    cameras = _cameras_from_json(doc, path, [v.view_id for v in views])
    object_labels, object_poses = [], []
    for i, o in enumerate(_list(_require(doc, "objects", str(path)), f"{path}: objects")):
        where = f"{path}: objects[{i}]"
        object_labels.append(_string(_require(o, "label", where), f"{where}.label"))
        object_poses.append(pose_from_list(_require(o, "pose_world", where), where))
    provenance = tuple(
        json_integer(p, f"{path}: provenance[{i}]")
        for i, p in enumerate(_list(doc.get("provenance", []), f"{path}: provenance"))
    )
    box_size = _number(_require(doc, "box_size", str(path)), f"{path}: box_size")
    try:
        scene = GroundTruthScene(
            db=db,
            views=views,
            camera_poses=tuple(c.pose_world for c in cameras),
            object_labels=tuple(object_labels),
            object_poses=tuple(object_poses),
            box_size=box_size,
        )
    except (InvariantError, UnknownLabelError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return scene, provenance
