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
objective as well.
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
    apply_matrices,
    apply_matrices_indexed,
    apply_matrix,
    inverse_matrices,
    project_masked,
    retract_matrices,
)
from .matching import PhysicalObject, TwoViewHypothesis
from .scene_io import Candidate, ModelDB, ObjectModel, SceneObservations
from .symmetry import SymmetryGroup, discretize

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
    symmetry_angles: int = 64

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("truncation", "damping_init", "damping_factor", "rel_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.symmetry_angles < 1:
            raise ValueError("symmetry_angles must be >= 1")


def residual_points(model: ObjectModel) -> np.ndarray:
    """Model points used in residuals: a deterministic subsample when large.

    Residual count scales with points x symmetries x candidates, so big
    clouds are cut to MAX_RESIDUAL_POINTS, chosen by a label-seeded draw
    (stable across runs and processes).
    """
    pts = model.points
    if pts.shape[0] <= MAX_RESIDUAL_POINTS:
        return pts
    digest = hashlib.blake2b(model.label.encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    idx = np.sort(rng.choice(pts.shape[0], MAX_RESIDUAL_POINTS, replace=False))
    return pts[idx]


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


def _groups_for(db: ModelDB, labels, angles: int, groups):
    if groups is not None:
        return groups
    return {
        label: discretize(db[label].symmetries, angles)
        for label in sorted(set(labels))
    }


def _candidate_image(
    cand_pose: Pose,
    pts: np.ndarray,
    group: SymmetryGroup,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (G, M, 2) and validity (G, M) of T_cand S x for every S."""
    m = pts.shape[0]
    sym_pts = apply_matrices(group.matrices, pts)  # (G, M, 3)
    g = sym_pts.shape[0]
    cam_pts = apply_matrix(cand_pose.matrix, sym_pts.reshape(g * m, 3))
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
    db: ModelDB,
    intrinsics: CameraIntrinsics,
    truncation: float = DEFAULT_TRUNCATION_PX,
    *,
    angles_per_axis: int = 64,
    groups: dict[str, SymmetryGroup] | None = None,
) -> float:
    """Truncated symmetric reprojection loss of one candidate, in pixels.

    Points that land behind either projection contribute the truncation
    value, so the loss saturates instead of blowing up off-image.
    """
    if candidate.label != physical_object.label:
        raise ValueError("candidate label does not match the physical object")
    if candidate.view_id not in {v for v, _ in physical_object.members}:
        raise ValueError("candidate's view is not a member of the object")
    groups = _groups_for(db, [candidate.label], angles_per_axis, groups)
    pts = db[candidate.label].points
    cam = state.camera_poses[candidate.view_id]
    state_pose = cam.inverse().compose(state.object_poses[physical_object.id])
    pred_px, pred_valid = project_masked(
        intrinsics, apply_matrix(state_pose.matrix, pts)
    )
    px, valid = _candidate_image(
        candidate.pose, pts, groups[candidate.label], intrinsics
    )
    contrib, _, _ = _truncated_errors(
        pred_px[None], pred_valid[None], px, valid, truncation
    )
    return float(np.min(contrib.mean(axis=1)))


def total_loss(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    db: ModelDB,
    cfg: RefineConfig = RefineConfig(),
    *,
    groups: dict[str, SymmetryGroup] | None = None,
) -> float:
    """Sum of candidate losses over every physical object's members."""
    state.require_views(objects)
    groups = _groups_for(db, [o.label for o in objects], cfg.symmetry_angles, groups)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    total = 0.0
    for obj in sorted(objects, key=lambda o: o.id):
        for view_id, cand_idx in obj.members:
            total += candidate_loss(
                state,
                obs.candidates[cand_idx],
                obj,
                db,
                intr[view_id],
                cfg.truncation,
                groups=groups,
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
class CandidateImages:
    """What one `refine` call needs of its member candidates, built once.

    Member t is one (view, candidate) of a physical object, in object-id
    then member order. Its residual points fill rows bounds[t]:bounds[t+1]
    of the stacked per-point arrays. images[t] holds the candidate's
    projection of T_cand S x under every symmetry S of its label: no pose
    update changes it, so it is not recomputed per iteration.
    """

    view_ids: tuple[str, ...]
    object_ids: tuple[int, ...]
    bounds: tuple[int, ...]  # T + 1 row offsets
    member: np.ndarray  # (N,), member index of each point
    points: np.ndarray  # (N, 3), residual subsample of each member's model
    intrinsics: PointIntrinsics
    sqrt_weight: np.ndarray  # (N,), 1 / sqrt(M) of the point's member
    images: tuple[np.ndarray, ...]  # per member, (G, M, 2) pixels
    image_valid: tuple[np.ndarray, ...]  # per member, (G, M)


@dataclass(frozen=True)
class Targets:
    """One outer iteration's symmetry selection, stacked like its images."""

    images: CandidateImages
    px: np.ndarray  # (N, 2), each member's image under its selected S
    valid: np.ndarray  # (N,)
    active: np.ndarray  # (N,), points that carry gradient at selection


def candidate_images(
    objects: list[PhysicalObject],
    obs: SceneObservations,
    db: ModelDB,
    cfg: RefineConfig = RefineConfig(),
    *,
    groups: dict[str, SymmetryGroup] | None = None,
) -> CandidateImages:
    """Residual points and symmetry images of every member candidate."""
    groups = _groups_for(db, [o.label for o in objects], cfg.symmetry_angles, groups)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    view_ids, object_ids, points, images, image_valid = [], [], [], [], []
    for obj in sorted(objects, key=lambda o: o.id):
        pts = residual_points(db[obj.label])
        for view_id, cand_idx in obj.members:
            px, valid = _candidate_image(
                obs.candidates[cand_idx].pose, pts, groups[obj.label], intr[view_id]
            )
            view_ids.append(view_id)
            object_ids.append(obj.id)
            points.append(pts)
            images.append(px)
            image_valid.append(valid)
    counts = np.array([p.shape[0] for p in points], dtype=np.int64)
    cams = [intr[v] for v in view_ids]
    return CandidateImages(
        view_ids=tuple(view_ids),
        object_ids=tuple(object_ids),
        bounds=tuple(np.concatenate([[0], np.cumsum(counts)]).tolist()),
        member=np.repeat(np.arange(len(counts)), counts),
        points=np.concatenate(points) if points else np.zeros((0, 3)),
        intrinsics=PointIntrinsics(
            *(
                np.repeat([float(getattr(k, f)) for k in cams], counts)
                for f in PointIntrinsics._fields
            )
        ),
        sqrt_weight=np.repeat(np.sqrt(1.0 / counts), counts),
        images=tuple(images),
        image_valid=tuple(image_valid),
    )


def _member_poses(state: SceneState, images: CandidateImages) -> np.ndarray:
    """(T, 4, 4) camera-from-object matrix of each member.

    One stacked inverse of every camera and one stacked product; each
    member's matrix equals cam.inverse().compose(obj).matrix bit for bit.
    """
    views = sorted(set(images.view_ids))
    row = {v: k for k, v in enumerate(views)}
    inv = inverse_matrices(np.stack([state.camera_poses[v].matrix for v in views]))
    objs = np.stack([state.object_poses[o].matrix for o in images.object_ids])
    return inv[[row[v] for v in images.view_ids]] @ objs


def _project_points(state: SceneState, images: CandidateImages, rows=slice(None)):
    """Camera-frame points, pixels and validity of the stacked points `rows`."""
    u = apply_matrices_indexed(
        _member_poses(state, images), images.member[rows], images.points[rows]
    )
    intr = PointIntrinsics(*(a[rows] for a in images.intrinsics))
    px, valid = project_masked(intr, u)
    return u, px, valid


def select_targets(
    state: SceneState, images: CandidateImages, truncation: float
) -> tuple[Targets, float]:
    """Pick the best symmetry per member; freeze its projected points.

    Returns the frozen targets and the (true) total loss at `state`. With
    no residual subsampling this is total_loss bit for bit: the same
    projections, per-member means and left-to-right sum.
    """
    _, pred_px, pred_valid = _project_points(state, images)
    b = images.bounds
    px, valid, active = [], [], []
    loss = 0.0
    for t, (img, img_valid) in enumerate(zip(images.images, images.image_valid)):
        s, e = b[t], b[t + 1]
        contrib, err, both = _truncated_errors(
            pred_px[None, s:e], pred_valid[None, s:e], img, img_valid, truncation
        )
        losses = contrib.mean(axis=1)
        best = int(np.argmin(losses))
        loss += float(losses[best])
        px.append(img[best])
        valid.append(img_valid[best])
        active.append(both[best] & (err[best] < truncation))
    targets = Targets(
        images=images,
        px=np.concatenate(px),
        valid=np.concatenate(valid),
        active=np.concatenate(active),
    )
    return targets, float(loss)


def frozen_loss(state: SceneState, targets: Targets, truncation: float) -> float:
    """Truncated loss with the symmetry selection (targets) held fixed.

    At the selection state it equals select_targets' loss bit for bit, so
    a zero step never passes the strict acceptance test on rounding.
    """
    _, pred_px, pred_valid = _project_points(state, targets.images)
    contrib, _, _ = _truncated_errors(
        pred_px, pred_valid, targets.px, targets.valid, truncation
    )
    b = targets.images.bounds
    total = 0.0
    for s, e in zip(b[:-1], b[1:]):
        total += float(contrib[s:e].mean())
    return total


def _active_residuals(state: SceneState, targets: Targets):
    """Camera-frame points and weighted pixel residuals of the active points."""
    act = targets.active
    u, pred_px, _ = _project_points(state, targets.images, act)
    sw = targets.images.sqrt_weight[act]
    return u, ((pred_px - targets.px[act]) * sw[:, None]).ravel()


def residual_vector(state: SceneState, targets: Targets) -> np.ndarray:
    """Stacked weighted pixel residuals over the active points.

    Meaningful near the linearization state: the active set is frozen, so
    points that wander behind the camera keep their placeholder projection.
    """
    return _active_residuals(state, targets)[1]


def linearize(state: SceneState, targets: Targets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals over the active points and their compact Jacobian E.

    A residual depends on its camera and object poses only through
    cam^-1 * obj, so equal left increments of both cancel: a target's
    camera columns are exactly E and its object columns exactly -E.
    `normal_equations` places them. E is (2N, 6), rows (u, v) per point
    with the weight applied: for world point w and camera rotation R, with
    A = d(pixel)/d(camera point), B = A R^T and C = B [w]x, a point's rows
    are [C | -B] (rotation increment first, translation second, matching
    `retract`).
    """
    images = targets.images
    act = targets.active
    member = images.member[act]
    u, r = _active_residuals(state, targets)
    obj_mats = np.stack([state.object_poses[o].matrix for o in images.object_ids])
    w = apply_matrices_indexed(obj_mats, member, images.points[act])  # world
    rot = np.stack([state.camera_poses[v].rotation for v in images.view_ids])[member]
    x, y, z = u[:, 0], u[:, 1], u[:, 2]
    fx_z = images.intrinsics.fx[act] / z
    fy_z = images.intrinsics.fy[act] / z
    # B = A R^T: row i is sum_k A[i, k] R[:, k], and A has two nonzeros per row
    b = np.empty((u.shape[0], 2, 3))
    b[:, 0] = fx_z[:, None] * rot[:, :, 0] - (fx_z * x / z)[:, None] * rot[:, :, 2]
    b[:, 1] = fy_z[:, None] * rot[:, :, 1] - (fy_z * y / z)[:, None] * rot[:, :, 2]
    e = np.empty((u.shape[0], 2, 6))
    e[:, :, :3] = np.cross(b, w[:, None, :])  # b [w]x == b x w per row
    e[:, :, 3:] = -b
    e *= images.sqrt_weight[act, None, None]
    return r, e.reshape(-1, 6)


def normal_equations(
    r: np.ndarray, e: np.ndarray, targets: Targets, layout: ParamLayout
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r from linearize's compact Jacobian, by 6x6 blocks.

    With K = E_t^T E_t and k = E_t^T r_t over target t's rows, the target
    adds [[K, -K], [-K, K]] and [k, -k] at its camera and object offsets;
    the gauge camera has no columns, so only its object block remains.
    """
    images = targets.images
    h = np.zeros((layout.size, layout.size))
    g = np.zeros(layout.size)
    counts = np.bincount(
        images.member[targets.active], minlength=len(images.view_ids)
    ).tolist()
    row = 0
    for view_id, object_id, n in zip(images.view_ids, images.object_ids, counts):
        if n == 0:
            continue
        e_t = e[row : row + 2 * n]
        r_t = r[row : row + 2 * n]
        row += 2 * n
        k_mat = e_t.T @ e_t
        k_vec = e_t.T @ r_t
        o = layout.object_offset(object_id)
        h[o : o + 6, o : o + 6] += k_mat
        g[o : o + 6] -= k_vec
        c = layout.camera_offset(view_id)
        if c is not None:
            h[c : c + 6, c : c + 6] += k_mat
            h[c : c + 6, o : o + 6] -= k_mat
            h[o : o + 6, c : c + 6] -= k_mat
            g[c : c + 6] += k_vec
    return h, g


# --------------------------------------------------------------------- LM


def refine(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    db: ModelDB,
    cfg: RefineConfig = RefineConfig(),
    *,
    groups: dict[str, SymmetryGroup] | None = None,
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

    `trace`, when given, collects the true total loss at the start of each
    outer iteration plus the final value; it is non-increasing. `images`
    are `candidate_images(objects, obs, db, cfg, groups=groups)`, built here
    when not given; they depend on no pose, so restarts may share them.
    """
    if not objects:
        return state
    state.require_views(objects)
    layout = parameter_layout(state, objects)
    if images is None:
        images = candidate_images(objects, obs, db, cfg, groups=groups)
    lam = cfg.damping_init
    eye = np.eye(layout.size)

    for _ in range(cfg.max_iterations):
        targets, loss0 = select_targets(state, images, cfg.truncation)
        if trace is not None:
            trace.append(loss0)
        if loss0 <= 1e-12:  # numerically zero; nothing left to gain
            return state
        r, e = linearize(state, targets)
        if r.size == 0:
            return state
        h, g = normal_equations(r, e, targets, layout)

        accepted = False
        rel_decrease = 0.0
        while lam <= _DAMPING_CEILING:
            try:
                delta = np.linalg.solve(h + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.damping_factor
                continue
            trial = apply_delta(state, layout, delta)
            trial_loss = frozen_loss(trial, targets, cfg.truncation)
            if trial_loss < loss0:
                rel_decrease = (loss0 - trial_loss) / loss0
                state = trial
                lam = max(lam / cfg.damping_factor, 1e-15)
                accepted = True
                break
            lam *= cfg.damping_factor
        if not accepted:
            break
        if rel_decrease < cfg.rel_tol:
            break

    if trace is not None:
        _, final_loss = select_targets(state, images, cfg.truncation)
        trace.append(final_loss)
    return state


def refine_best_of(
    objects: list[PhysicalObject],
    hypotheses: dict[tuple[str, str], TwoViewHypothesis],
    obs: SceneObservations,
    db: ModelDB,
    cfg: RefineConfig = RefineConfig(),
    n_starts: int = 4,
) -> tuple[SceneState, list[PhysicalObject], SceneState]:
    """Initialize, refine, and keep the lowest-loss result of n_starts runs.

    Initialization chains noisy pairwise relative poses, so different
    random roots land in different descent basins. All starts share one
    rng stream seeded from cfg.seed and one pruned object set, keeping the
    whole procedure deterministic; ties keep the earliest start, and so
    does a run whose every loss is NaN. Returns
    (best refined state, surviving objects, first initialization).

    Every start refines against one shared `candidate_images` build. A
    start is scored by `select_targets`' loss, which is total_loss bit for
    bit unless some model's residual points are a subsample; total_loss
    scores the starts then.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    first_init, kept = initialize_scene_with_pruning(objects, hypotheses, obs, rng)
    if not kept:
        return first_init, kept, first_init
    groups = _groups_for(db, [o.label for o in kept], cfg.symmetry_angles, None)
    images = candidate_images(kept, obs, db, cfg, groups=groups)
    subsampled = any(
        residual_points(db[o.label]) is not db[o.label].points for o in kept
    )
    best_state = None
    best_loss = np.inf
    state0 = first_init
    for start in range(n_starts):
        if start > 0:
            state0 = initialize_scene(kept, hypotheses, obs, rng)
        refined = refine(state0, kept, obs, db, cfg, groups=groups, images=images)
        if subsampled:
            loss = total_loss(refined, kept, obs, db, cfg, groups=groups)
        else:
            loss = select_targets(refined, images, cfg.truncation)[1]
        if best_state is None or loss < best_loss:
            best_state, best_loss = refined, loss
    return best_state, kept, first_init


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
