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
objective as well. Every member of a symmetric label is scored over all
its symmetries at each re-selection (see `select_targets`). Each
label's discretized group and symmetry images come from the solve's
`label_geometry` map, which matching reads too.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Pose,
    apply_matrix,
    apply_point_matrices,
    inverse_matrices,
    project_masked,
    project_masked_xyz,
    retract_matrices,
)
from .matching import LabelGeometry, PhysicalObject, TwoViewHypothesis
from .numeric import _PAIRWISE_CHUNK, seq_sum
from .scene_io import ObjectModel, SceneObservations
# perfbench/spans.py traces cosy.refinement.discretize by this name.
from .symmetry import discretize  # noqa: F401

DEFAULT_TRUNCATION_PX = 25.0
MAX_RESIDUAL_POINTS = 500
_DAMPING_CEILING = 1e12


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
        for name in ("truncation", "rel_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        if not self.damping_init > 0:
            raise ValueError("damping_init must be > 0")
        # A damping ladder ends only once lambda grows past _DAMPING_CEILING,
        # and one that starts above it never runs.
        if not (np.isfinite(self.damping_factor) and self.damping_factor > 1):
            raise ValueError(
                f"damping_factor must be > 1 and finite, got {self.damping_factor}"
            )
        if not self.damping_init <= _DAMPING_CEILING:
            raise ValueError(f"damping_init must be <= {_DAMPING_CEILING:g}")


def _residual_index(model: ObjectModel) -> np.ndarray | None:
    """Sorted indices of the model points used in residuals; None for all.

    Residual count scales with points x symmetries x candidates, so big
    clouds are cut to MAX_RESIDUAL_POINTS, chosen by a label-seeded draw
    (stable across runs and processes).
    """
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
) -> tuple[SceneState, list[PhysicalObject]]:
    """World-frame initialization from the match stage's relative poses.

    A random member-hosting view becomes the root (world frame = that
    camera). Remaining cameras are placed breadth-first, in view-id order,
    by chaining the accepted two-view poses. Members hosted in views the
    root cannot reach are dropped, objects left with fewer than two members
    go with them, and a new root is drawn from the remaining member views,
    until every member view is placed. Each object is then placed from one
    randomly drawn member candidate: T_world_object = T_camera *
    T_camera_object. Returns the state and the objects it covers.
    """
    neighbors: dict[str, list[tuple[str, Pose]]] = {}
    for (va, vb), hyp in sorted(hypotheses.items()):
        # relative_pose maps view-b camera coordinates into view-a's
        neighbors.setdefault(va, []).append((vb, hyp.relative_pose))
        neighbors.setdefault(vb, []).append((va, hyp.relative_pose.inverse()))

    while True:
        member_views = sorted({v for o in objects for v, _ in o.members})
        if not member_views:
            return SceneState(camera_poses={}, object_poses={}), objects
        root = member_views[int(rng.integers(len(member_views)))]
        cameras: dict[str, Pose] = {root: Pose.identity()}
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt, rel in sorted(neighbors.get(cur, []), key=lambda p: p[0]):
                if nxt in cameras:
                    continue
                cameras[nxt] = cameras[cur].compose(rel)
                queue.append(nxt)
        if all(v in cameras for v in member_views):
            break
        pruned = []
        for obj in objects:
            members = tuple(m for m in obj.members if m[0] in cameras)
            if len(members) >= 2:
                pruned.append(
                    PhysicalObject(id=obj.id, label=obj.label, members=members)
                )
        objects = pruned

    object_poses: dict[int, Pose] = {}
    for obj in sorted(objects, key=lambda o: o.id):
        view_id, cand_idx = obj.members[int(rng.integers(len(obj.members)))]
        object_poses[obj.id] = cameras[view_id].compose(
            obs.candidates[cand_idx].pose
        )
    return SceneState(camera_poses=cameras, object_poses=object_poses), objects


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


def total_loss(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
) -> float:
    """Sum over every object's members, in object-id order, of the least
    over the label's symmetries S of the mean truncated pixel distance
    between the state's projection of each model point x and the
    candidate's of S x. A point behind either camera contributes the
    truncation value, so the loss saturates instead of blowing up."""
    state.require_views(objects)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    total = 0.0
    for obj in sorted(objects, key=lambda o: o.id):
        entry = geometry[obj.label]
        for view_id, cand_idx in obj.members:
            cam = state.camera_poses[view_id]
            state_pose = cam.inverse().compose(state.object_poses[obj.id])
            pred_px, pred_valid = project_masked(
                intr[view_id], apply_matrix(state_pose.matrix, entry.model.points)
            )
            px, valid = _candidate_image(
                obs.candidates[cand_idx].pose, entry.sym_points, intr[view_id]
            )
            contrib, _, _ = _truncated_errors(
                pred_px[None], pred_valid[None], px, valid, cfg.truncation
            )
            total += float(np.min(contrib.mean(axis=1)))
    return float(total)


# ------------------------------------------------------------ linearization


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

    `cameras` (the sorted member views) then `objects` are the rows of a
    `pose_stack`. The first member view is the gauge: it has no parameters,
    since a free global rigid transform would otherwise make the normal
    equations singular. The other rows, in stack order, are the 6-dof
    blocks of the parameter vector.

    Member t is one (view, candidate) of a physical object, in object-id
    then member order. Its counts[t] residual points fill indices
    bounds[t]:bounds[t+1] of the flat per-point arrays, so a per-member
    value reaches its points with np.repeat(..., counts). The candidate's
    projections of T_cand S x under every symmetry S of its label depend on
    no pose: each member's are stored once, in the stack of its (M, G).

    The flat layout changes no arithmetic: elementwise steps see the same
    values per point as a per-member loop, each member's mean is taken over
    one contiguous row, and totals are summed left to right in member order,
    so every loss, residual and Jacobian entry keeps its bits.

    `fixed_px` and `fixed_valid` hold, in the flat order, each member's
    image under its label's first symmetry element (the identity). They are
    the targets of every G = 1 member for the whole solve, and the start of
    every selection.
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
    fixed_px: np.ndarray  # (N, 2), read-only
    fixed_valid: np.ndarray  # (N,), read-only
    workspace: Workspace  # the LM loop's scratch buffers


class Workspace:
    """Scratch buffers of one solve's LM loop, for members with `counts`
    residual points each (N in all); a field of the solve's
    `CandidateImages`.

    Each iteration writes its per-point matrix entries and its Jacobian
    rows into these buffers instead of allocating them. An array of 12 N
    floats is larger than glibc's mmap threshold once N is in the
    thousands: allocated per call, it goes back to the OS when freed and
    its pages fault in afresh on the next call. Every restart of a solve
    refines against the same images, so all of them write into one
    workspace.
    """

    def __init__(self, counts: np.ndarray):
        n = int(counts.sum())
        # (12, N) per-point matrix entries, or (N, 2, 6) rows of every point
        self.entries = np.empty(12 * n)
        self.jacobian = np.empty(12 * n)  # (n, 2, 6) rows of E, n active points
        # Each member's [R | t] entries, and views repeating a member's
        # column over its points: concatenated in member order, the views
        # are np.repeat(self._member, counts, axis=1).
        self._member = np.empty((12, len(counts)))
        self._runs = [
            np.broadcast_to(self._member[:, t, None], (12, count))
            for t, count in enumerate(counts.tolist())
        ]

    def point_entries(self, matrices: np.ndarray) -> np.ndarray:
        """(12, N) view of the entries buffer whose row 4j+k is M[j, k] of
        each point's member matrix M, from the (T, 4, 4) member matrices."""
        self._member[...] = matrices[:, :3, :].reshape(-1, 12).T
        return np.concatenate(self._runs, axis=1, out=self.entries.reshape(12, -1))


class Evaluation(NamedTuple):
    """The residual points at one pose stack, scored against per-point
    targets: camera-frame points (3, N), their pixels (N, 2) and validity
    (N,), each member's truncated loss (T,), and each point's pixel error
    and joint validity (N,). `_evaluate` builds it."""

    poses: np.ndarray  # (C + O, 4, 4), a pose_stack
    cam_points: np.ndarray
    px: np.ndarray
    valid: np.ndarray
    member_loss: np.ndarray
    err: np.ndarray
    both: np.ndarray


@dataclass(frozen=True)
class Targets:
    """One outer iteration's symmetry selection, per point like its images.

    It keeps the evaluation it was selected from, so `linearize` at its
    poses projects nothing. `px` and `valid` are `images.fixed_px` and
    `fixed_valid` when every member picks its first element, and are never
    written once built.
    """

    images: CandidateImages
    at: Evaluation  # the selection's poses and their projection
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
    # Every point is in one stack, which writes its first element's images.
    fixed_px = np.empty((int(bounds[-1]), 2))
    fixed_valid = np.empty(int(bounds[-1]), dtype=bool)
    for (m, g), ts in by_shape.items():
        px = np.empty((len(ts), g, m, 2))
        valid = np.empty((len(ts), g, m), dtype=bool)
        for j, t in enumerate(ts):
            view_id, obj, cand_idx = members[t]
            px[j], valid[j] = _candidate_image(
                obs.candidates[cand_idx].pose, sym_points[obj.label], intr[view_id]
            )
        ts = np.array(ts)
        rows = bounds[ts][:, None] + np.arange(m)
        fixed_px[rows], fixed_valid[rows] = px[:, 0], valid[:, 0]
        stacks.append(ImageStack(ts, rows, px, valid))
    cams = [intr[v] for v, _, _ in members]
    fixed_px.setflags(write=False)
    fixed_valid.setflags(write=False)
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
        fixed_px=fixed_px,
        fixed_valid=fixed_valid,
        workspace=Workspace(counts),
    )


def _rows_in(keys: list, values: list) -> np.ndarray:
    """Index of each value in the list `keys`."""
    row = {k: r for r, k in enumerate(keys)}
    return np.array([row[v] for v in values], dtype=np.intp)


def pose_stack(state: SceneState, images: CandidateImages) -> np.ndarray:
    """(C + O, 4, 4) matrices of images.cameras, then of images.objects.

    Row 0 is the gauge camera, and rows 1: are the 6-blocks of the
    parameter vector, in order.
    """
    return np.stack(
        [state.camera_poses[v].matrix for v in images.cameras]
        + [state.object_poses[o].matrix for o in images.objects]
    )


def _member_poses(poses: np.ndarray, images: CandidateImages) -> np.ndarray:
    """(T, 4, 4) camera-from-object matrix of each member of a pose stack.

    One stacked inverse of every camera and one stacked product; each
    member's matrix equals cam.inverse().compose(obj).matrix bit for bit.
    """
    n_cam = len(images.cameras)
    cams = inverse_matrices(poses[:n_cam])
    return cams[images.camera_rows] @ poses[n_cam:][images.object_rows]


def _evaluate(
    poses: np.ndarray,
    images: CandidateImages,
    px: np.ndarray,
    valid: np.ndarray,
    truncation: float,
) -> Evaluation:
    """The residual points at a pose stack, scored against the per-point
    targets px, valid; each point's member matrix is written into the
    images' workspace entries buffer."""
    entries = images.workspace.point_entries(_member_poses(poses, images))
    u = apply_point_matrices(entries.reshape(3, 4, -1), images.points)
    pred_px, pred_valid = project_masked_xyz(images.intrinsics, *u)
    contrib, err, both = _truncated_errors(pred_px, pred_valid, px, valid, truncation)
    member_loss = np.empty(len(images.view_ids))
    for st in images.stacks:
        member_loss[st.members] = np.take(contrib, st.rows).mean(axis=1)
    return Evaluation(poses, u, pred_px, pred_valid, member_loss, err, both)


def select_targets(
    poses: np.ndarray,
    images: CandidateImages,
    truncation: float,
    evaluation: Evaluation | None = None,
) -> tuple[Targets, float]:
    """Pick the best symmetry per member; freeze its projected points.

    `poses` is a `pose_stack`. Returns the frozen targets and the (true)
    total loss at `poses`. With no residual subsampling this is total_loss
    bit for bit: the same projections, the same per-member means (a mean
    over the contiguous last axis of a stack sums each member's row as a
    1-D mean does), the first minimum over symmetries, and a left-to-right
    sum in member order.

    Without `evaluation`, `poses` are evaluated against every member's
    first element's image. `evaluation`, when given, is `frozen_loss`'s at
    these same poses (an accepted trial's): nothing is projected again, and
    its losses and active points stand for every G = 1 member, whose one
    image is its target in every selection. Either way, every member of a
    symmetric stack is then scored over all its G elements, so the targets
    and the loss are those of a full scoring. The targets keep the
    evaluation, which `linearize` reads.
    """
    if evaluation is None:
        evaluation = _evaluate(
            poses, images, images.fixed_px, images.fixed_valid, truncation
        )
    elif evaluation.poses is not poses:
        raise ValueError("the evaluation was not made at these poses")
    member_loss = evaluation.member_loss.copy()
    pred_px, pred_valid = evaluation.px, evaluation.valid
    active = evaluation.both & (evaluation.err < truncation)
    px, valid = images.fixed_px, images.fixed_valid
    for st in images.stacks:
        k, g, m = st.valid.shape
        if g == 1:
            continue
        # Members are scored in chunks whose (chunk, G, M, 2) pixel
        # differences hold at most _PAIRWISE_CHUNK entries, so a symmetric
        # stack's temporaries are recycled from the heap (see numeric.py).
        step = max(1, _PAIRWISE_CHUNK // (2 * g * m))
        for lo in range(0, k, step):
            sel = slice(lo, lo + step)
            rows, img_px, img_valid = st.rows[sel], st.px[sel], st.valid[sel]
            contrib, e, b = _truncated_errors(
                np.take(pred_px, rows, axis=0)[:, None],
                np.take(pred_valid, rows)[:, None],
                img_px, img_valid, truncation,
            )
            losses = contrib.mean(axis=2)  # (chunk, G)
            pick = losses.argmin(axis=1)
            at = (np.arange(len(rows)), pick)
            member_loss[st.members[sel]] = losses[at]
            active[rows] = b[at] & (e[at] < truncation)
            moved = pick != 0
            if moved.any():
                if px is images.fixed_px:
                    px, valid = px.copy(), valid.copy()
                px[rows[moved]] = img_px[at][moved]
                valid[rows[moved]] = img_valid[at][moved]
    targets = Targets(
        images=images,
        at=evaluation,
        px=px,
        valid=valid,
        active=active,
        active_counts=np.add.reduceat(active, images.bounds[:-1], dtype=np.intp),
    )
    return targets, float(seq_sum(member_loss))


def frozen_loss(
    poses: np.ndarray, targets: Targets, truncation: float
) -> tuple[float, Evaluation]:
    """Truncated loss at a pose stack with the symmetry selection (targets)
    held fixed.

    Returns the loss and the evaluation it was computed from, which
    `select_targets` at the same poses starts from. At the selection poses
    the loss equals select_targets' loss bit for bit, so a zero step never
    passes the strict acceptance test on rounding.
    """
    evaluation = _evaluate(poses, targets.images, targets.px, targets.valid, truncation)
    return float(seq_sum(evaluation.member_loss)), evaluation


def linearize(targets: Targets) -> tuple[np.ndarray, np.ndarray]:
    """Residuals over the active points at the selection's poses and their
    compact Jacobian E.

    A residual depends on its camera and object poses only through
    cam^-1 * obj, so equal left increments of both cancel: a target's
    camera columns are exactly E and its object columns exactly -E.
    `normal_equations` places them. E is (2n, 6), rows (u, v) per active
    point with the weight applied: for world point w and camera rotation
    R, with A = d(pixel)/d(camera point), B = A R^T and C = B [w]x, a
    point's rows are [C | -B] (rotation increment first, translation
    second, matching `retract_matrices`).

    The poses, camera-frame points and pixels are those of the evaluation
    the targets were selected from (`targets.at`); nothing is projected
    again. Each entry of the (2, 6) block is computed for every
    residual point as one contiguous (N,) row, from the expressions
    np.cross evaluates (b1 w2 - b2 w1, ...); the weight is applied last, as
    the row is written into its column. When some point is inactive, the
    rows and residuals of the n active points are then copied out in
    order; almost every iteration has all N points active and copies
    nothing. Each entry equals the per-point evaluation bit for bit; the
    values computed for inactive points, which may lie behind the camera,
    are dropped.

    E is a view of the first 2n rows of the images' workspace Jacobian
    buffer: it stays valid until the next linearize on the same images,
    which overwrites it. Each point's object and camera matrix entries (and
    every point's rows, when some are dropped) go into the workspace's
    entries buffer, so an iteration allocates no array of 12 N floats.
    """
    images = targets.images
    at = targets.at
    ws = images.workspace
    idx = np.flatnonzero(targets.active)
    n = idx.shape[0]
    compact = n < targets.active.shape[0]
    sw = images.sqrt_weight
    n_cam = len(images.cameras)
    cams, objs = at.poses[:n_cam], at.poses[n_cam:]
    w = apply_point_matrices(
        ws.point_entries(objs[images.object_rows]).reshape(3, 4, -1), images.points
    )
    # w is computed, so the entries buffer takes the camera matrices.
    rot = ws.point_entries(cams[images.camera_rows])  # row 4j+k: R[j, k]
    x, y, z = at.cam_points
    fx, fy = images.intrinsics.fx, images.intrinsics.fy
    # Inactive points may sit at z <= 0; their values are dropped below.
    with np.errstate(divide="ignore", invalid="ignore"):
        r = at.px - targets.px
        r *= sw[:, None]
        b = []
        for i, (f, c) in enumerate(((fx, x), (fy, y))):
            # B = A R^T: B_j = f/z R[j, i] - (f/z) c/z R[j, 2], A having two
            # nonzeros per row
            f_z = f / z
            fc_z = f_z * c / z
            b.append([f_z * rot[4 * j + i] - fc_z * rot[4 * j + 2]
                      for j in range(3)])
        # rot is spent, so the entries buffer may take every point's rows
        # when only the active ones go into the Jacobian buffer.
        rows = (ws.entries if compact else ws.jacobian).reshape(-1, 2, 6)
        for i, b_i in enumerate(b):
            # B [w]x == B x w: entry j is b[p] w[q] - b[q] w[p]
            for j, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
                np.multiply(b_i[p] * w[q] - b_i[q] * w[p], sw, out=rows[:, i, j])
            for j in range(3):
                np.multiply(-b_i[j], sw, out=rows[:, i, 3 + j])
    if compact:
        # mode="clip" (the indices are valid) keeps np.take from staging
        # `out` in a temporary copy.
        r = np.take(r, idx, axis=0)
        rows = np.take(
            rows.reshape(-1, 12), idx, axis=0,
            out=ws.jacobian[: 12 * n].reshape(n, 12), mode="clip",
        )
    return r.ravel(), rows.reshape(-1, 6)


def _member_products(
    e: np.ndarray, v: np.ndarray, counts: np.ndarray, uniform: bool
) -> np.ndarray:
    """E_t^T v_t over each live member's rows of linearize's E, with `v`
    that E, giving (k, 6, 6), or a vector over its rows, giving (k, 6).

    One stacked matmul when `uniform`, a loop of 2-D products otherwise;
    each member's product is its 2-D product bit for bit either way.
    """
    if uniform:
        e_3t = e.reshape(counts.size, -1, 6).transpose(0, 2, 1)
        out = e_3t @ v.reshape(counts.size, e_3t.shape[2], -1)
        return out if v.ndim == 2 else out[:, :, 0]
    ends = (2 * np.cumsum(counts)).tolist()
    out = np.empty((counts.size, 6) + v.shape[1:])
    for t, (start, end) in enumerate(zip([0] + ends, ends)):
        out[t] = e[start:end].T @ v[start:end]
    return out


def normal_equations(
    r: np.ndarray, e: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass forms J^T J, J^T r and the accepted loss's gradient, from
    linearize's weighted residuals and compact Jacobian, by 6x6 blocks.

    With K = E_t^T E_t and k = E_t^T r_t over target t's rows, the target
    adds [[K, -K], [-K, K]] and [k, -k] at its camera and object blocks;
    the gauge camera has no columns, so only its object block remains. A
    member's blocks are its camera and object rows of `pose_stack` less
    one. K and k are BLAS products per member, taken by one stacked
    matmul when every member with some active point has the same number of
    them and by a loop of 2-D products otherwise (the same bits either
    way); np.add.at and np.subtract.at apply them in member order, and the
    four kinds of block (object-object, camera-camera, camera-object,
    object-camera) never share an entry, so each entry receives its
    additions in the order of a per-member loop of += and -=.

    The gradient is that of `frozen_loss` at the selection's poses. A
    member's loss is the mean of its points' truncated errors, so an active
    point adds (1 / M) unit(d)^T J, d its pixel difference and J its pixel
    Jacobian; with r = d / sqrt(M) and E = J / sqrt(M) that is
    sqrt_weight * unit(r)^T E, placed as k is. A point on its target adds
    nothing. Inactive points contribute the constant truncation value and
    have no gradient; the sum is exact away from the truncation, where no
    point's activity changes. Returns (J^T J, J^T r, gradient).
    """
    images = targets.images
    n_cam = len(images.cameras)
    n_blocks = n_cam - 1 + len(images.objects)
    live = np.flatnonzero(targets.active_counts)
    counts = targets.active_counts[live]
    uniform = bool(live.size) and bool((counts == counts[0]).all())
    d = r.reshape(-1, 2)
    norm = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    # A zero residual divides by `tiny` and stays zero.
    unit = (d / np.maximum(norm, np.finfo(np.float64).tiny)[:, None]).ravel()
    k_grad = _member_products(e, unit, counts, uniform)
    k_grad *= np.sqrt(1.0 / images.counts[live])[:, None]
    # (k, 2, 6): each live member's J^T r block, then its gradient block.
    k_vec = np.stack([_member_products(e, r, counts, uniform), k_grad], axis=1)
    k_mat = _member_products(e, e, counts, uniform)
    c = images.camera_rows[live] - 1
    o = images.object_rows[live] + n_cam - 1
    vec = np.zeros((n_blocks, 2, 6))
    h = np.zeros((n_blocks, n_blocks, 6, 6))
    np.subtract.at(vec, o, k_vec)
    np.add.at(h, (o, o), k_mat)
    free = c >= 0  # members outside the gauge camera
    c, o, k_mat = c[free], o[free], k_mat[free]
    np.add.at(vec, c, k_vec[free])
    np.add.at(h, (c, c), k_mat)
    np.subtract.at(h, (c, o), k_mat)
    np.subtract.at(h, (o, c), k_mat)
    size = 6 * n_blocks
    return (
        h.transpose(0, 2, 1, 3).reshape(size, size),
        vec[:, 0].ravel(),
        vec[:, 1].ravel(),
    )


# --------------------------------------------------------------------- LM


def refine(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
    *,
    trace: list | None = None,
    stops: list | None = None,
    images: CandidateImages | None = None,
) -> SceneState:
    """Levenberg-Marquardt descent on the truncated symmetric loss.

    Steps solve (J^T J + lambda I) d = -J^T r on the frozen-symmetry
    squared surrogate and are accepted only when the frozen truncated loss
    strictly decreases, so the returned state never scores worse than the
    input. Damping multiplies up on rejection and divides down on
    acceptance, but never below cfg.damping_init: a lambda far below the
    smallest eigenvalue of J^T J only repeats the Gauss-Newton step.

    The surrogate's gradient g = J^T r is not the gradient of the accepted
    loss, so a step may not descend it at all. In each iteration one pass
    forms J^T J, J^T r and the accepted loss's gradient
    (`normal_equations`). When neither the first solved step nor the
    surrogate's steepest descent -g descends it to first order, the
    restart ends there, with no trial: the ladder would climb toward
    -g / lambda and be rejected at every rung (Madsen, Nielsen & Tingleff,
    "Methods for Non-Linear Least Squares Problems", 2004, section 3.2).

    `stops`, when given, receives why the restart ended: "zero" (an
    exactly-zero loss), "saturated" (no point carries gradient),
    "no_descent" (the stop above), "ladder" (every damping up to the
    ceiling rejected), "rel_tol" (a relative decrease below cfg.rel_tol)
    or "max_iterations".

    The poses live in one `pose_stack` for the whole descent: a damping
    trial is one `retract_matrices` of rows 1: (row 0 is the gauge camera),
    the next selection starts from the `frozen_loss` evaluation of an
    accepted trial (its projection, and the losses and active points of
    every member without symmetry), and a SceneState is built only on
    return. Every pose and loss equals that of a loop over SceneStates
    (`oracles.refine` in the tests) bit for bit.

    `trace`, when given, collects the true total loss at the start of each
    outer iteration plus the final value, unless the descent stopped on a
    zero loss or a saturated residual set; it is non-increasing, and its
    last value is select_targets' loss at the returned state. `images` are
    `candidate_images(objects, obs, geometry)`, built here when not given;
    they depend on no pose, so restarts may share them. Every iteration's
    projections and `linearize` write into their `workspace`, so each
    iteration's E is valid until the next iteration's `linearize`.
    """
    if not objects:
        return state
    state.require_views(objects)
    if images is None:
        images = candidate_images(objects, obs, geometry)
    poses = pose_stack(state, images)
    evaluation = None  # frozen_loss at poses, kept from an accepted trial
    lam = cfg.damping_init
    eye = np.eye(6 * (len(poses) - 1))
    stop = "max_iterations"

    for _ in range(cfg.max_iterations):
        targets, loss0 = select_targets(poses, images, cfg.truncation, evaluation)
        if trace is not None:
            trace.append(loss0)
        if loss0 <= 1e-12:  # numerically zero; nothing left to gain
            stop = "zero"
            break
        r, e = linearize(targets)
        if r.size == 0:
            stop = "saturated"
            break
        h, g, grad = normal_equations(r, e, targets)
        # Whether -g fails to descend the loss; checked with the first step.
        uphill = grad @ g <= 0

        accepted = False
        rel_decrease = 0.0
        while lam <= _DAMPING_CEILING:
            try:
                delta = np.linalg.solve(h + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.damping_factor
                continue
            if uphill:
                if grad @ delta >= 0:
                    stop = "no_descent"
                    break
                uphill = False
            trial = poses.copy()
            trial[1:] = retract_matrices(poses[1:], delta)
            trial_loss, trial_evaluation = frozen_loss(trial, targets, cfg.truncation)
            if trial_loss < loss0:
                rel_decrease = (loss0 - trial_loss) / loss0
                poses, evaluation = trial, trial_evaluation
                lam = max(lam / cfg.damping_factor, cfg.damping_init)
                accepted = True
                break
            lam *= cfg.damping_factor
        else:
            stop = "ladder"
        if not accepted:
            break
        if rel_decrease < cfg.rel_tol:
            stop = "rel_tol"
            break

    if stops is not None:
        stops.append(stop)
    if trace is not None and stop not in ("zero", "saturated"):
        # After a failed ladder or a no-descent stop the poses are those of
        # the last selection, whose loss is loss0.
        if accepted:
            loss0 = select_targets(poses, images, cfg.truncation, evaluation)[1]
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
) -> tuple[SceneState, list[PhysicalObject], SceneState, float | None]:
    """Initialize, refine, and keep the lowest-loss result of n_starts runs.

    Initialization chains noisy pairwise relative poses, so different
    random roots land in different descent basins. All starts share one
    rng stream seeded from cfg.seed and one pruned object set, keeping the
    whole procedure deterministic; ties keep the earliest start, and so
    does a run whose every loss is NaN. Returns (best refined state,
    surviving objects, first initialization, best score); the score is
    None when no object survives initialization.

    Every start refines against one shared `candidate_images` build, whose
    `Workspace` holds the Jacobian and per-point matrix entries, so the
    whole solve allocates them once. A start is scored by the last value of
    its `refine` trace, select_targets' loss at the refined state, which is
    total_loss bit for bit unless some model's residual points are a
    subsample (`any_subsampled`); total_loss scores the starts then, so the
    best score is always total_loss at the best state. No refined state is
    projected again.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    first_init, kept = initialize_scene(objects, hypotheses, obs, rng)
    if not kept:
        return first_init, kept, first_init, None
    images = candidate_images(kept, obs, geometry)
    subsampled = any_subsampled(kept, geometry)
    best_state = None
    best_loss = np.inf
    state0 = first_init
    for start in range(n_starts):
        if start > 0:
            state0, _ = initialize_scene(kept, hypotheses, obs, rng)
        start_trace = []
        refined = refine(
            state0, kept, obs, geometry, cfg, trace=start_trace, images=images
        )
        if subsampled:
            loss = total_loss(refined, kept, obs, geometry, cfg)
        else:
            loss = start_trace[-1]
        if best_state is None or loss < best_loss:
            best_state, best_loss = refined, loss
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
