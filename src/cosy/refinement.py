"""Object-level bundle adjustment.

Stage 3 of the pipeline: place all cameras and physical objects in one
world frame (root camera = identity, others chained through the accepted
two-view relative poses), then jointly refine every pose by minimizing a
symmetry-aware truncated reprojection loss with Levenberg-Marquardt.

The objective for one candidate is the minimum over the object's
discretized symmetries S of the mean truncated pixel distance between the
candidate's own projection (with S applied to the model points) and the
projection induced by the current world state. The symmetry choice is
re-selected at the start of each outer iteration and frozen inside the
linearized step, which keeps the inner problem smooth; re-selection can
only lower the loss, so accepted steps descend monotonically in the true
objective as well. Each label's discretized group and symmetry images come
from the solve's `label_geometry` map, which matching reads too.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Pose,
    apply_matrices_repeated,
    apply_matrix,
    inverse_matrices,
    project_masked,
    project_masked_xyz,
    retract_matrices,
)
from .matching import LabelGeometry, PhysicalObject, TwoViewHypothesis
from .numeric import seq_sum
from .scene_io import Candidate, ObjectModel, SceneObservations
# perfbench/spans.py traces cosy.refinement.discretize by this name.
from .symmetry import discretize  # noqa: F401

DEFAULT_TRUNCATION_PX = 25.0
MAX_RESIDUAL_POINTS = 500
_DAMPING_CEILING = 1e12


class DisconnectedViews(RuntimeError):
    """Some member-hosting views cannot be reached from the root camera."""

    def __init__(self, views):
        self.views = tuple(views)
        super().__init__(f"views unreachable from the root camera: {self.views}")


@dataclass(frozen=True)
class SceneState:
    """World-frame placement of all cameras and physical objects."""

    camera_poses: dict[str, Pose]
    object_poses: dict[int, Pose]

    def require_views(self, objects) -> None:
        missing = sorted(
            {v for o in objects for v, _ in o.members} - set(self.camera_poses)
        )
        if missing:
            raise ValueError(f"state lacks cameras for member views: {missing}")


@dataclass(frozen=True)
class RefineConfig:
    max_iterations: int = 100
    truncation: float = DEFAULT_TRUNCATION_PX
    damping_init: float = 1e-4
    damping_factor: float = 10.0
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("truncation", "damping_init", "damping_factor", "rel_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


def residual_points(model: ObjectModel) -> np.ndarray:
    """Model points used in residuals: a deterministic subsample when large.

    Residual count scales with points x symmetries x candidates, so big
    clouds are cut to MAX_RESIDUAL_POINTS, chosen by a label-seeded draw
    (stable across runs and processes).
    """
    idx = _residual_index(model)
    return model.points if idx is None else model.points[idx]


def _residual_index(model: ObjectModel) -> np.ndarray | None:
    """Sorted indices of residual_points' subsample; None when it is every point."""
    n = model.points.shape[0]
    if n <= MAX_RESIDUAL_POINTS:
        return None
    digest = hashlib.blake2b(model.label.encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return np.sort(rng.choice(n, MAX_RESIDUAL_POINTS, replace=False))


# ------------------------------------------------------------ initialization


def initialize_scene(
    objects: list[PhysicalObject],
    hypotheses: dict[tuple[str, str], TwoViewHypothesis],
    obs: SceneObservations,
    rng: np.random.Generator,
) -> SceneState:
    """World-frame initialization from the match stage's relative poses.

    A random member-hosting view becomes the root (world frame = that
    camera). Remaining cameras are placed by breadth-first chaining of the
    accepted two-view poses; each object is placed from one randomly drawn
    member candidate: T_world_object = T_camera * T_camera_object.
    Raises DisconnectedViews if some member-hosting view cannot be reached;
    callers may prune those members and retry.
    """
    member_views = sorted({v for o in objects for v, _ in o.members})
    if not member_views:
        return SceneState(camera_poses={}, object_poses={})
    root = member_views[int(rng.integers(len(member_views)))]

    neighbors: dict[str, list[tuple[str, Pose]]] = {}
    for (va, vb), hyp in sorted(hypotheses.items()):
        # relative_pose maps view-b camera coordinates into view-a's
        neighbors.setdefault(va, []).append((vb, hyp.relative_pose))
        neighbors.setdefault(vb, []).append((va, hyp.relative_pose.inverse()))

    cameras: dict[str, Pose] = {root: Pose.identity()}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt, rel in sorted(neighbors.get(cur, []), key=lambda p: p[0]):
            if nxt in cameras:
                continue
            cameras[nxt] = cameras[cur].compose(rel)
            queue.append(nxt)

    unreachable = [v for v in member_views if v not in cameras]
    if unreachable:
        raise DisconnectedViews(unreachable)

    object_poses: dict[int, Pose] = {}
    for obj in sorted(objects, key=lambda o: o.id):
        view_id, cand_idx = obj.members[int(rng.integers(len(obj.members)))]
        object_poses[obj.id] = cameras[view_id].compose(
            obs.candidates[cand_idx].pose
        )
    return SceneState(camera_poses=cameras, object_poses=object_poses)


def prune_unreachable_members(
    objects: list[PhysicalObject], unreachable_views
) -> list[PhysicalObject]:
    """Drop members hosted in unreachable views; drop objects left with < 2."""
    bad = set(unreachable_views)
    kept = []
    for obj in objects:
        members = tuple(m for m in obj.members if m[0] not in bad)
        if len(members) >= 2:
            kept.append(
                PhysicalObject(id=obj.id, label=obj.label, members=members)
            )
    return kept


def initialize_scene_with_pruning(
    objects: list[PhysicalObject],
    hypotheses: dict[tuple[str, str], TwoViewHypothesis],
    obs: SceneObservations,
    rng: np.random.Generator,
) -> tuple[SceneState, list[PhysicalObject]]:
    """initialize_scene, dropping candidates in unreachable views on demand.

    Views outside the root camera's connected component cannot be placed;
    their member candidates are warned about and removed, and objects
    falling below two members disappear with them. Returns the state and
    the (possibly pruned) object list actually covered by it.
    """
    while True:
        try:
            return initialize_scene(objects, hypotheses, obs, rng), objects
        except DisconnectedViews as exc:
            warnings.warn(
                "dropping candidates in views unreachable from the root "
                f"camera: {exc.views}",
                stacklevel=2,
            )
            objects = prune_unreachable_members(objects, exc.views)
            if not objects:
                return SceneState(camera_poses={}, object_poses={}), []


# ------------------------------------------------------------------- loss


def _candidate_image(
    cand_pose: Pose, sym_points: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (G, M, 2) and validity (G, M) of T_cand S x for every S, from
    the (G, M, 3) images S x."""
    g, m, _ = sym_points.shape
    cam_pts = apply_matrix(cand_pose.matrix, sym_points.reshape(g * m, 3))
    px, valid = project_masked(intrinsics, cam_pts)
    return px.reshape(g, m, 2), valid.reshape(g, m)


def _truncated_errors(pred_px, pred_valid, target_px, target_valid, truncation):
    """Per-point pixel error, its truncated contribution, and joint validity.

    Arguments broadcast, so (1, M) predictions score against (G, M) images.
    A point behind either projection contributes the truncation value.
    Returns (contribution, error, both valid).
    """
    diff = pred_px - target_px
    err = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    both = pred_valid & target_valid
    return np.where(both, np.minimum(err, truncation), truncation), err, both


def candidate_loss(
    state: SceneState,
    candidate: Candidate,
    physical_object: PhysicalObject,
    geometry: dict[str, LabelGeometry],
    intrinsics: CameraIntrinsics,
    truncation: float = DEFAULT_TRUNCATION_PX,
) -> float:
    """Truncated symmetric reprojection loss of one candidate, in pixels.

    Points that land behind either projection contribute the truncation
    value, so the loss saturates instead of blowing up off-image.
    """
    if candidate.label != physical_object.label:
        raise ValueError("candidate label does not match the physical object")
    if candidate.view_id not in {v for v, _ in physical_object.members}:
        raise ValueError("candidate's view is not a member of the object")
    entry = geometry[candidate.label]
    pts = entry.model.points
    cam = state.camera_poses[candidate.view_id]
    state_pose = cam.inverse().compose(state.object_poses[physical_object.id])
    pred_px, pred_valid = project_masked(
        intrinsics, apply_matrix(state_pose.matrix, pts)
    )
    px, valid = _candidate_image(candidate.pose, entry.sym_points, intrinsics)
    contrib, _, _ = _truncated_errors(
        pred_px[None], pred_valid[None], px, valid, truncation
    )
    return float(np.min(contrib.mean(axis=1)))


def total_loss(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
) -> float:
    """Sum of candidate losses over every physical object's members."""
    state.require_views(objects)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    total = 0.0
    for obj in sorted(objects, key=lambda o: o.id):
        for view_id, cand_idx in obj.members:
            total += candidate_loss(
                state,
                obs.candidates[cand_idx],
                obj,
                geometry,
                intr[view_id],
                cfg.truncation,
            )
    return float(total)


# ------------------------------------------------------------ linearization


@dataclass(frozen=True)
class ParamLayout:
    """Order of the 6-dof blocks in the parameter vector.

    The gauge view's camera is held fixed (a free global rigid transform
    would otherwise make the normal equations singular).
    """

    gauge_view: str
    camera_ids: tuple[str, ...]
    object_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return 6 * (len(self.camera_ids) + len(self.object_ids))

    def camera_offset(self, view_id: str) -> int | None:
        if view_id == self.gauge_view:
            return None
        return 6 * self.camera_ids.index(view_id)

    def object_offset(self, object_id: int) -> int:
        return 6 * (len(self.camera_ids) + self.object_ids.index(object_id))


def parameter_layout(state: SceneState, objects) -> ParamLayout:
    member_views = sorted({v for o in objects for v, _ in o.members})
    if not member_views:
        raise ValueError("no member views to parameterize")
    gauge = member_views[0]
    return ParamLayout(
        gauge_view=gauge,
        camera_ids=tuple(v for v in member_views if v != gauge),
        object_ids=tuple(sorted(o.id for o in objects)),
    )


def apply_delta(state: SceneState, layout: ParamLayout, delta) -> SceneState:
    """Left-multiplicative 6-dof update of every parameterized pose.

    All poses are retracted together (`retract_matrices`); each equals
    `retract` of that pose and its 6-block of `delta` bit for bit.
    """
    delta = np.asarray(delta, dtype=np.float64).reshape(layout.size)
    poses = [state.camera_poses[v] for v in layout.camera_ids]
    poses += [state.object_poses[o] for o in layout.object_ids]
    moved = retract_matrices(np.stack([p.matrix for p in poses]), delta)
    n_cam = len(layout.camera_ids)
    cameras = dict(state.camera_poses)
    cameras.update(zip(layout.camera_ids, map(Pose, moved[:n_cam])))
    obj_poses = dict(state.object_poses)
    obj_poses.update(zip(layout.object_ids, map(Pose, moved[n_cam:])))
    return SceneState(camera_poses=cameras, object_poses=obj_poses)


class PointIntrinsics(NamedTuple):
    """Pinhole parameters per point, (N,) each; see `project_masked`."""

    fx: np.ndarray
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray


@dataclass(frozen=True)
class ImageStack:
    """Symmetry images of the k members that share M residual points and G
    symmetry elements, in member order."""

    members: np.ndarray  # (k,), member indices, ascending
    rows: np.ndarray  # (k, M), each member's indices into the per-point arrays
    px: np.ndarray  # (k, G, M, 2), pixels of T_cand S x for every S
    valid: np.ndarray  # (k, G, M)


@dataclass(frozen=True)
class CandidateImages:
    """What refinement needs of its member candidates, built once per solve.

    Member t is one (view, candidate) of a physical object, in object-id
    then member order. Its counts[t] residual points fill indices
    bounds[t]:bounds[t+1] of the flat per-point arrays, so a per-member
    value reaches its points with np.repeat(..., counts). The candidate's
    projections of T_cand S x under every symmetry S of its label depend on
    no pose: each member's are stored once, in the stack of its (M, G).
    Per-point values computed stack by stack, concatenated in stack order,
    return to the flat order by np.take(..., order, axis=0).

    The layout changes no arithmetic: elementwise steps see the same operand
    values per point as a per-member loop, each member's mean is taken over
    one contiguous row, and totals are summed left to right in member order,
    so every loss, residual and Jacobian entry keeps its bits.
    """

    view_ids: tuple[str, ...]
    object_ids: tuple[int, ...]
    cameras: tuple[str, ...]  # sorted distinct view_ids
    camera_rows: np.ndarray  # (T,), each member's view in cameras
    objects: tuple[int, ...]  # sorted distinct object_ids
    object_rows: np.ndarray  # (T,), each member's object in objects
    bounds: tuple[int, ...]  # T + 1 offsets into the per-point arrays
    counts: np.ndarray  # (T,), residual points of each member
    points: np.ndarray  # (3, N), coordinate-major residual points
    intrinsics: PointIntrinsics
    sqrt_weight: np.ndarray  # (N,), 1 / sqrt(M) of the point's member
    stacks: tuple[ImageStack, ...]
    order: np.ndarray  # (N,), each point's position in all stacks' rows in turn


class Projection(NamedTuple):
    """The residual points at one pose stack: camera-frame points (3, N),
    pixels (N, 2) and validity (N,)."""

    cam_points: np.ndarray
    px: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class Targets:
    """One outer iteration's symmetry selection, per point like its images.

    It keeps the pose stack and the projection of the selection `state`, so
    `linearize` at that state projects nothing.
    """

    images: CandidateImages
    state: SceneState | np.ndarray  # as given to select_targets
    poses: np.ndarray  # (C + O, 4, 4), pose_stack of state
    cam_points: np.ndarray  # (3, N), camera-frame points at state
    pred_px: np.ndarray  # (N, 2), their pixels
    px: np.ndarray  # (N, 2), each member's image under its selected S
    valid: np.ndarray  # (N,)
    active: np.ndarray  # (N,), points that carry gradient at selection
    active_counts: np.ndarray  # (T,), active points of each member


def candidate_images(
    objects: list[PhysicalObject],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
) -> CandidateImages:
    """Residual points and symmetry images of every member candidate.

    Each label's residual subsample is drawn once, and its images S x are
    rows of the label's `sym_points` (apply_matrices works point by point).
    """
    intr = {v.view_id: v.intrinsics for v in obs.views}
    pts, sym_points = {}, {}
    for label in {o.label for o in objects}:
        entry = geometry[label]
        idx = _residual_index(entry.model)
        rows = slice(None) if idx is None else idx
        pts[label] = entry.model.points[rows]
        sym_points[label] = entry.sym_points[:, rows]
    members = [
        (view_id, obj, cand_idx)
        for obj in sorted(objects, key=lambda o: o.id)
        for view_id, cand_idx in obj.members
    ]
    counts = np.array([pts[o.label].shape[0] for _, o, _ in members], dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    by_shape: dict[tuple[int, int], list[int]] = {}
    for t, (_, obj, _) in enumerate(members):
        key = (int(counts[t]), len(geometry[obj.label].group))
        by_shape.setdefault(key, []).append(t)
    stacks = []
    for (m, g), ts in by_shape.items():
        px = np.empty((len(ts), g, m, 2))
        valid = np.empty((len(ts), g, m), dtype=bool)
        for j, t in enumerate(ts):
            view_id, obj, cand_idx = members[t]
            px[j], valid[j] = _candidate_image(
                obs.candidates[cand_idx].pose, sym_points[obj.label], intr[view_id]
            )
        ts = np.array(ts)
        stacks.append(
            ImageStack(ts, bounds[ts][:, None] + np.arange(m), px, valid)
        )
    cams = [intr[v] for v, _, _ in members]
    order = np.empty(int(bounds[-1]), dtype=np.intp)
    if stacks:
        stacked_rows = np.concatenate([st.rows.ravel() for st in stacks])
        order[stacked_rows] = np.arange(order.size)
    view_ids = [v for v, _, _ in members]
    object_ids = [o.id for _, o, _ in members]
    cameras = sorted(set(view_ids))
    objects = sorted(set(object_ids))
    return CandidateImages(
        view_ids=tuple(view_ids),
        object_ids=tuple(object_ids),
        cameras=tuple(cameras),
        camera_rows=_rows_in(cameras, view_ids),
        objects=tuple(objects),
        object_rows=_rows_in(objects, object_ids),
        bounds=tuple(bounds.tolist()),
        counts=counts,
        points=np.ascontiguousarray(
            np.concatenate([pts[o.label] for _, o, _ in members]).T
            if members
            else np.zeros((3, 0))
        ),
        intrinsics=PointIntrinsics(
            *(
                np.repeat([float(getattr(k, f)) for k in cams], counts)
                for f in PointIntrinsics._fields
            )
        ),
        sqrt_weight=np.repeat(np.sqrt(1.0 / counts), counts),
        stacks=tuple(stacks),
        order=order,
    )


def _rows_in(keys: list, values: list) -> np.ndarray:
    """Index of each value in the list `keys`."""
    row = {k: r for r, k in enumerate(keys)}
    return np.array([row[v] for v in values], dtype=np.intp)


def pose_stack(state: SceneState, images: CandidateImages) -> np.ndarray:
    """(C + O, 4, 4) matrices of images.cameras, then of images.objects.

    Row 0 is the gauge camera (`parameter_layout`'s first member view), and
    rows 1: follow the 6-blocks of the layout's parameter vector.
    """
    return np.stack(
        [state.camera_poses[v].matrix for v in images.cameras]
        + [state.object_poses[o].matrix for o in images.objects]
    )


def _as_stack(poses, images: CandidateImages) -> np.ndarray:
    return pose_stack(poses, images) if isinstance(poses, SceneState) else poses


def _member_poses(poses, images: CandidateImages) -> np.ndarray:
    """(T, 4, 4) camera-from-object matrix of each member.

    `poses` is a SceneState or its pose_stack. One stacked inverse of every
    camera and one stacked product; each member's matrix equals
    cam.inverse().compose(obj).matrix bit for bit.
    """
    poses = _as_stack(poses, images)
    n_cam = len(images.cameras)
    cams = inverse_matrices(poses[:n_cam])
    return cams[images.camera_rows] @ poses[n_cam:][images.object_rows]


def _project_points(poses, images: CandidateImages) -> Projection:
    """The residual points at `poses`, a SceneState or its pose_stack."""
    u = apply_matrices_repeated(
        _member_poses(poses, images), images.counts, images.points
    )
    return Projection(u, *project_masked_xyz(images.intrinsics, *u))


def select_targets(
    state, images: CandidateImages, truncation: float, projection=None
) -> tuple[Targets, float]:
    """Pick the best symmetry per member; freeze its projected points.

    `state` is a SceneState or its pose_stack, and `projection`, when given,
    is its `_project_points` (as `frozen_loss` returns it), which is then
    not computed again. Returns the frozen targets and the (true) total
    loss at `state`. With no residual subsampling this is total_loss bit
    for bit: the same projections, the same per-member means (a mean over
    the contiguous last axis of a stack sums each member's row as a 1-D
    mean does), the first minimum over symmetries, and a left-to-right sum
    in member order.
    """
    poses = _as_stack(state, images)
    if projection is None:
        projection = _project_points(poses, images)
    u, pred_px, pred_valid = projection
    member_loss = np.empty(len(images.view_ids))
    px, valid, active = [], [], []
    for st in images.stacks:
        contrib, err, both = _truncated_errors(
            np.take(pred_px, st.rows, axis=0)[:, None],
            np.take(pred_valid, st.rows)[:, None],
            st.px, st.valid, truncation,
        )
        losses = contrib.mean(axis=2)  # (k, G)
        pick = (np.arange(len(st.members)), losses.argmin(axis=1))
        member_loss[st.members] = losses[pick]
        px.append(st.px[pick].reshape(-1, 2))
        valid.append(st.valid[pick].ravel())
        active.append((both[pick] & (err[pick] < truncation)).ravel())
    active = _flat(active, images.order)
    targets = Targets(
        images=images,
        state=state,
        poses=poses,
        cam_points=u,
        pred_px=pred_px,
        px=_flat(px, images.order),
        valid=_flat(valid, images.order),
        active=active,
        active_counts=np.add.reduceat(active, images.bounds[:-1], dtype=np.intp),
    )
    return targets, float(seq_sum(member_loss))


def _flat(per_stack: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Per-point values computed stack by stack, in the flat point order."""
    return np.take(np.concatenate(per_stack), order, axis=0)


def frozen_loss(
    state, targets: Targets, truncation: float
) -> tuple[float, Projection]:
    """Truncated loss with the symmetry selection (targets) held fixed.

    `state` is a SceneState or its pose_stack. Returns the loss and the
    projection it was computed from, which `select_targets` at the same
    state may reuse. At the selection state the loss equals select_targets'
    loss bit for bit, so a zero step never passes the strict acceptance
    test on rounding.
    """
    images = targets.images
    projection = _project_points(state, images)
    contrib, _, _ = _truncated_errors(
        projection.px, projection.valid, targets.px, targets.valid, truncation
    )
    member_loss = np.empty(len(images.view_ids))
    for st in images.stacks:
        member_loss[st.members] = np.take(contrib, st.rows).mean(axis=1)
    return float(seq_sum(member_loss)), projection


def _weighted_residuals(pred_px: np.ndarray, targets: Targets, idx: np.ndarray):
    sw = targets.images.sqrt_weight[idx]
    diff = np.take(pred_px, idx, axis=0) - np.take(targets.px, idx, axis=0)
    return (diff * sw[:, None]).ravel()


def residual_vector(state, targets: Targets) -> np.ndarray:
    """Stacked weighted pixel residuals over the active points.

    Meaningful near the linearization state: the active set is frozen, so
    points that wander behind the camera keep their placeholder projection.
    """
    pred_px = _project_points(state, targets.images).px
    return _weighted_residuals(pred_px, targets, np.flatnonzero(targets.active))


def linearize(state, targets: Targets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals over the active points and their compact Jacobian E.

    A residual depends on its camera and object poses only through
    cam^-1 * obj, so equal left increments of both cancel: a target's
    camera columns are exactly E and its object columns exactly -E.
    `normal_equations` places them. E is (2N, 6), rows (u, v) per point
    with the weight applied: for world point w and camera rotation R, with
    A = d(pixel)/d(camera point), B = A R^T and C = B [w]x, a point's rows
    are [C | -B] (rotation increment first, translation second, matching
    `retract`).

    `state` must be the one `targets` were selected at (a SceneState or its
    pose_stack, the same object): the poses, camera-frame points and pixels
    come from the selection, not from a new projection.
    The active points are gathered once, and each entry of the (2, 6) block
    is computed for all of them as one contiguous (n,) row, from the
    expressions np.cross evaluates (b1 w2 - b2 w1, ...); the weight is
    applied last, as the row is written into its column of E. Each entry
    equals the per-point evaluation bit for bit.
    """
    if state is not targets.state:
        raise ValueError("linearize needs the state its targets were selected at")
    images = targets.images
    idx = np.flatnonzero(targets.active)
    counts = targets.active_counts
    r = _weighted_residuals(targets.pred_px, targets, idx)
    x, y, z = np.take(targets.cam_points, idx, axis=1)
    n_cam = len(images.cameras)
    cams, objs = targets.poses[:n_cam], targets.poses[n_cam:]
    w0, w1, w2 = apply_matrices_repeated(
        objs[images.object_rows], counts, np.take(images.points, idx, axis=1)
    )
    cam_rots = cams[images.camera_rows, :3, :3]
    rot = np.repeat(cam_rots.reshape(-1, 9).T, counts, axis=1)  # row 3j+k: R[j, k]
    sw = images.sqrt_weight[idx]
    e = np.empty((idx.shape[0], 2, 6))
    for i, (f, c) in enumerate(
        ((images.intrinsics.fx[idx], x), (images.intrinsics.fy[idx], y))
    ):
        # B = A R^T: B_j = f/z R[j, i] - (f/z) c/z R[j, 2], A having two nonzeros
        f_z = f / z
        fc_z = f_z * c / z
        b0, b1, b2 = (f_z * rot[3 * j + i] - fc_z * rot[3 * j + 2] for j in range(3))
        terms = (
            b1 * w2 - b2 * w1,  # B [w]x == B x w
            b2 * w0 - b0 * w2,
            b0 * w1 - b1 * w0,
            -b0,
            -b1,
            -b2,
        )
        for j, term in enumerate(terms):
            np.multiply(term, sw, out=e[:, i, j])
    return r, e.reshape(-1, 6)


def normal_equations(
    r: np.ndarray, e: np.ndarray, targets: Targets, layout: ParamLayout
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r from linearize's compact Jacobian, by 6x6 blocks.

    With K = E_t^T E_t and k = E_t^T r_t over target t's rows, the target
    adds [[K, -K], [-K, K]] and [k, -k] at its camera and object blocks;
    the gauge camera has no columns, so only its object block remains.
    `layout` must order the images' cameras and objects, so a member's
    blocks are its camera and object rows of `pose_stack` less one, read
    from the images without a search. Blocks are accumulated with += and
    -= in member order, so each entry receives its additions in the order
    of a per-member loop.
    """
    images = targets.images
    if (layout.gauge_view, *layout.camera_ids) != images.cameras or (
        layout.object_ids != images.objects
    ):
        raise ValueError("layout does not order the images' cameras and objects")
    n_blocks = layout.size // 6
    h = np.zeros((n_blocks, n_blocks, 6, 6))
    g = np.zeros((n_blocks, 6))
    row = 0
    for c, o, n in zip(
        (images.camera_rows - 1).tolist(),
        (images.object_rows + len(layout.camera_ids)).tolist(),
        targets.active_counts.tolist(),
    ):
        if n == 0:
            continue
        e_t = e[row : row + 2 * n]
        r_t = r[row : row + 2 * n]
        row += 2 * n
        k_mat = e_t.T @ e_t
        k_vec = e_t.T @ r_t
        h[o, o] += k_mat
        g[o] -= k_vec
        if c >= 0:
            h[c, c] += k_mat
            h[c, o] -= k_mat
            h[o, c] -= k_mat
            g[c] += k_vec
    return h.transpose(0, 2, 1, 3).reshape(layout.size, layout.size), g.ravel()


# --------------------------------------------------------------------- LM


def refine(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
    *,
    trace: list | None = None,
    images: CandidateImages | None = None,
) -> SceneState:
    """Levenberg-Marquardt descent on the truncated symmetric loss.

    Steps solve (J^T J + lambda I) d = -J^T r on the frozen-symmetry
    squared surrogate and are accepted only when the frozen truncated loss
    strictly decreases, so the returned state never scores worse than the
    input. Damping multiplies up on rejection and divides down on
    acceptance. Stops on max_iterations, a relative decrease below
    rel_tol, an exactly-zero loss, or a fully saturated (gradient-free)
    residual set.

    The poses live in one `pose_stack` for the whole descent: a damping
    trial is one `retract_matrices` of rows 1: (row 0 is the gauge camera),
    the next selection reuses the projection `frozen_loss` made of an
    accepted trial, and a SceneState is built only on return. Every pose
    and loss equals that of a loop over SceneStates and `apply_delta` bit
    for bit.

    `trace`, when given, collects the true total loss at the start of each
    outer iteration plus the final value, unless the descent stopped on a
    zero loss or a saturated residual set; it is non-increasing, and its
    last value is select_targets' loss at the returned state. `images` are
    `candidate_images(objects, obs, geometry)`, built here when not given;
    they depend on no pose, so restarts may share them.
    """
    if not objects:
        return state
    state.require_views(objects)
    layout = parameter_layout(state, objects)
    if images is None:
        images = candidate_images(objects, obs, geometry)
    poses = pose_stack(state, images)
    projection = None  # of poses, kept from an accepted trial
    lam = cfg.damping_init
    eye = np.eye(layout.size)

    for _ in range(cfg.max_iterations):
        targets, loss0 = select_targets(poses, images, cfg.truncation, projection)
        if trace is not None:
            trace.append(loss0)
        if loss0 <= 1e-12:  # numerically zero; nothing left to gain
            return _with_poses(state, images, poses)
        r, e = linearize(poses, targets)
        if r.size == 0:
            return _with_poses(state, images, poses)
        h, g = normal_equations(r, e, targets, layout)

        accepted = False
        rel_decrease = 0.0
        while lam <= _DAMPING_CEILING:
            try:
                delta = np.linalg.solve(h + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.damping_factor
                continue
            trial = poses.copy()
            trial[1:] = retract_matrices(poses[1:], delta)
            trial_loss, trial_projection = frozen_loss(trial, targets, cfg.truncation)
            if trial_loss < loss0:
                rel_decrease = (loss0 - trial_loss) / loss0
                poses, projection = trial, trial_projection
                lam = max(lam / cfg.damping_factor, 1e-15)
                accepted = True
                break
            lam *= cfg.damping_factor
        if not accepted:
            break
        if rel_decrease < cfg.rel_tol:
            break

    if trace is not None:
        # After a failed ladder the poses are those of the last selection,
        # whose loss is loss0.
        if accepted:
            loss0 = select_targets(poses, images, cfg.truncation, projection)[1]
        trace.append(loss0)
    return _with_poses(state, images, poses)


def _with_poses(
    state: SceneState, images: CandidateImages, poses: np.ndarray
) -> SceneState:
    """`state` with its member cameras and objects set from a pose stack."""
    n_cam = len(images.cameras)
    cameras = dict(state.camera_poses)
    cameras.update(zip(images.cameras[1:], map(Pose, poses[1:n_cam])))
    objects = dict(state.object_poses)
    objects.update(zip(images.objects, map(Pose, poses[n_cam:])))
    return SceneState(camera_poses=cameras, object_poses=objects)


def any_subsampled(
    objects: list[PhysicalObject], geometry: dict[str, LabelGeometry]
) -> bool:
    """Whether some object's residual points are a subsample of its model."""
    return any(
        geometry[o.label].model.points.shape[0] > MAX_RESIDUAL_POINTS
        for o in objects
    )


def refine_best_of(
    objects: list[PhysicalObject],
    hypotheses: dict[tuple[str, str], TwoViewHypothesis],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
    n_starts: int = 4,
    *,
    trace: list | None = None,
) -> tuple[SceneState, list[PhysicalObject], SceneState, float | None]:
    """Initialize, refine, and keep the lowest-loss result of n_starts runs.

    Initialization chains noisy pairwise relative poses, so different
    random roots land in different descent basins. All starts share one
    rng stream seeded from cfg.seed and one pruned object set, keeping the
    whole procedure deterministic; ties keep the earliest start, and so
    does a run whose every loss is NaN. Returns (best refined state,
    surviving objects, first initialization, best score); the score is
    None when no object survives initialization.

    Every start refines against one shared `candidate_images` build. A
    start is scored by the last value of its `refine` trace, select_targets'
    loss at the refined state, which is total_loss bit for bit unless some
    model's residual points are a subsample (`any_subsampled`); total_loss
    scores the starts then, so the best score is always total_loss at the
    best state. No refined state is projected again. `trace`,
    when given, receives the best start's refine trace.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    first_init, kept = initialize_scene_with_pruning(objects, hypotheses, obs, rng)
    if not kept:
        return first_init, kept, first_init, None
    images = candidate_images(kept, obs, geometry)
    subsampled = any_subsampled(kept, geometry)
    best_state = best_trace = None
    best_loss = np.inf
    state0 = first_init
    for start in range(n_starts):
        if start > 0:
            state0 = initialize_scene(kept, hypotheses, obs, rng)
        start_trace = []
        refined = refine(
            state0, kept, obs, geometry, cfg, trace=start_trace, images=images
        )
        if subsampled:
            loss = total_loss(refined, kept, obs, geometry, cfg)
        else:
            loss = start_trace[-1]
        if best_state is None or loss < best_loss:
            best_state, best_loss, best_trace = refined, loss, start_trace
    if trace is not None:
        trace.extend(best_trace)
    return best_state, kept, first_init, best_loss


# ------------------------------------------------------------------ output


@dataclass(frozen=True)
class ViewObjectPose:
    """One refined object expressed in one camera's frame."""

    view_id: str
    object_id: int
    label: str
    pose: Pose
    score: float  # sum of member detection scores


def express_in_camera_frames(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
) -> list[ViewObjectPose]:
    """Camera-frame poses of every object in every placed view.

    The per-object score aggregates its members' detection scores, so
    objects confirmed by more views rank higher downstream.
    """
    records = []
    scores = {
        obj.id: float(sum(obs.candidates[i].score for _, i in obj.members))
        for obj in objects
    }
    for view_id in sorted(state.camera_poses):
        cam_inv = state.camera_poses[view_id].inverse()
        for obj in sorted(objects, key=lambda o: o.id):
            records.append(
                ViewObjectPose(
                    view_id=view_id,
                    object_id=obj.id,
                    label=obj.label,
                    pose=cam_inv.compose(state.object_poses[obj.id]),
                    score=scores[obj.id],
                )
            )
    return records
