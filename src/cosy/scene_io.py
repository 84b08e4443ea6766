"""Data model and JSON (de)serialization for the pipeline.

Three document kinds flow through the tool:
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

All units are meters and pixels. Serialization uses Python's repr-based
float formatting, so save followed by load reproduces every value bit for
bit; files are UTF-8 with sorted keys so equal inputs give byte-equal
outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .symmetry import SymmetrySpec

DIAMETER_MIN = 0.01
DIAMETER_MAX = 2.0


class ParseError(ValueError):
    """File is not valid JSON or not a JSON object."""


class SchemaError(ValueError):
    """Document structure is wrong: missing/duplicate/ill-typed fields."""


class InvariantError(ValueError):
    """Well-formed data violating a semantic constraint (e.g. z <= 0)."""


class UnknownLabelError(KeyError):
    """Candidate references a label absent from the model database."""


class UnknownViewError(KeyError):
    """Candidate references a view_id absent from the view list."""


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """One object in the database: geometry plus symmetry annotation."""

    label: str
    points: np.ndarray
    diameter: float
    symmetries: SymmetrySpec = field(default_factory=SymmetrySpec.none)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise InvariantError(
                f"model '{self.label}': points must be (N>=1, 3), got {pts.shape}"
            )
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
            spread = _max_pairwise_distance(pts)
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
        centered = self.points - self.points.mean(axis=0)
        rank = np.linalg.matrix_rank(centered, tol=1e-9 * self.diameter)
        if rank < 3:
            raise InvariantError(f"model '{self.label}': points are coplanar")


def _max_pairwise_distance(pts: np.ndarray) -> float:
    best = 0.0
    for i in range(pts.shape[0] - 1):
        d2 = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        m = float(d2.max())
        if m > best:
            best = m
    return float(np.sqrt(best))


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
            raise UnknownLabelError(label) from None

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
    """One single-view pose hypothesis: object `label` seen in `view_id`."""

    view_id: str
    label: str
    score: float
    pose: Pose  # object in camera frame

    def __post_init__(self):
        s = float(self.score)
        if not (0.0 <= s <= 1.0):
            raise InvariantError(f"candidate score {s} outside [0, 1]")
        object.__setattr__(self, "score", s)
        if not self.pose.translation[2] > 0.0:
            raise InvariantError(
                f"candidate ({self.view_id}, {self.label}): pose depth "
                f"{self.pose.translation[2]:.6g} must be > 0"
            )


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
                raise UnknownViewError(c.view_id)

    def view(self, view_id: str) -> View:
        for v in self.views:
            if v.view_id == view_id:
                return v
        raise UnknownViewError(view_id)

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


# ---------------------------------------------------------------------------
# pose <-> flat list


def pose_to_list(pose: Pose) -> list[float]:
    """16-float row-major homogeneous matrix."""
    return [float(v) for v in pose.matrix.reshape(-1)]


def pose_from_list(values, where: str) -> Pose:
    """Rigid pose from 16 row-major floats; rejects non-finite or non-rigid input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (16,):
        raise SchemaError(f"{where}: pose must be 16 floats row-major, got {arr.shape}")
    try:
        return Pose.from_matrix(arr.reshape(4, 4))
    except ValueError as e:
        raise SchemaError(f"{where}: pose {e}") from None


# ---------------------------------------------------------------------------
# models.json


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    return obj[key]


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
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
        for i, m in enumerate(obj.get("discrete", []))
    ]
    if not discrete:
        discrete = [Pose.identity()]
    axes = []
    for i, a in enumerate(obj.get("axes", [])):
        axis = _require(a, "axis", f"{where}.axes[{i}]")
        offset = a.get("offset", [0.0, 0.0, 0.0])
        axes.append((np.asarray(axis, float), np.asarray(offset, float)))
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
    entries = _require(doc, "models", str(path))
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: 'models' must be a list")
    models: dict[str, ObjectModel] = {}
    for i, e in enumerate(entries):
        where = f"{path}: models[{i}]"
        label = _require(e, "label", where)
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{where}: label must be a non-empty string")
        if label in models:
            raise SchemaError(f"{where}: duplicate label '{label}'")
        flat = np.asarray(_require(e, "points", where), dtype=np.float64)
        if flat.ndim != 1 or flat.size % 3 != 0:
            raise SchemaError(f"{where}: points must be a flat xyz array")
        if flat.size == 0:
            raise InvariantError(f"{where}: model '{label}' has zero points")
        sym_spec = _symmetries_from_json(
            e.get("symmetries", {"discrete": [], "axes": []}), where
        )
        models[label] = ObjectModel(
            label=label,
            points=flat.reshape(-1, 3),
            diameter=_require(e, "diameter", where),
            symmetries=sym_spec,
        )
    return ModelDB(models=models)


# ---------------------------------------------------------------------------
# observations.json


def save_observations(obs: SceneObservations, path) -> None:
    doc = {
        "views": [
            {
                "view_id": v.view_id,
                "intrinsics": {
                    "fx": v.intrinsics.fx,
                    "fy": v.intrinsics.fy,
                    "cx": v.intrinsics.cx,
                    "cy": v.intrinsics.cy,
                    "width": v.intrinsics.width,
                    "height": v.intrinsics.height,
                },
            }
            for v in obs.views
        ],
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


def load_observations(path, db: ModelDB | None = None) -> SceneObservations:
    doc = load_json(path)
    views_raw = _require(doc, "views", str(path))
    cands_raw = _require(doc, "candidates", str(path))
    views = []
    for i, v in enumerate(views_raw):
        where = f"{path}: views[{i}]"
        intr = _require(v, "intrinsics", where)
        try:
            k = CameraIntrinsics(
                fx=float(_require(intr, "fx", where)),
                fy=float(_require(intr, "fy", where)),
                cx=float(_require(intr, "cx", where)),
                cy=float(_require(intr, "cy", where)),
                width=int(_require(intr, "width", where)),
                height=int(_require(intr, "height", where)),
            )
        except ValueError as e:
            raise InvariantError(f"{where}: {e}") from None
        views.append(View(view_id=_require(v, "view_id", where), intrinsics=k))
    candidates = []
    for i, c in enumerate(cands_raw):
        where = f"{path}: candidates[{i}]"
        label = _require(c, "label", where)
        if db is not None and label not in db:
            raise UnknownLabelError(label)
        candidates.append(
            Candidate(
                view_id=_require(c, "view_id", where),
                label=label,
                score=float(_require(c, "score", where)),
                pose=pose_from_list(_require(c, "pose", where), where),
            )
        )
    return SceneObservations(views=tuple(views), candidates=tuple(candidates))


def filter_by_score(obs: SceneObservations, min_score: float = 0.3) -> SceneObservations:
    """Drop candidates with score <= min_score (strictly greater survives)."""
    return SceneObservations(
        views=obs.views,
        candidates=tuple(c for c in obs.candidates if c.score > min_score),
    )


# ---------------------------------------------------------------------------
# estimate.json


def save_estimate(est: SceneEstimate, path) -> None:
    doc = estimate_to_json(est)
    dump_json(doc, path)


def estimate_to_json(est: SceneEstimate) -> dict:
    return {
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


def load_estimate(path) -> SceneEstimate:
    doc = load_json(path)
    cameras = tuple(
        EstimatedCamera(
            view_id=_require(c, "view_id", f"{path}: cameras[{i}]"),
            pose_world=pose_from_list(
                _require(c, "pose_world", f"{path}: cameras[{i}]"),
                f"{path}: cameras[{i}]",
            ),
        )
        for i, c in enumerate(_require(doc, "cameras", str(path)))
    )
    objects = tuple(
        EstimatedObject(
            object_id=_require(o, "object_id", f"{path}: objects[{i}]"),
            label=_require(o, "label", f"{path}: objects[{i}]"),
            pose_world=pose_from_list(
                _require(o, "pose_world", f"{path}: objects[{i}]"),
                f"{path}: objects[{i}]",
            ),
            score=float(_require(o, "score", f"{path}: objects[{i}]")),
            members=tuple(
                (m["view_id"], int(m["candidate_index"]))
                for m in _require(o, "members", f"{path}: objects[{i}]")
            ),
        )
        for i, o in enumerate(_require(doc, "objects", str(path)))
    )
    return SceneEstimate(
        cameras=cameras,
        objects=objects,
        config=doc.get("config", {}),
        stats=doc.get("stats", {}),
    )
