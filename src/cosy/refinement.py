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

Each iteration linearizes in the camera frame, as bundle adjustment
usually chains the projection derivative (Triggs et al., "Bundle
Adjustment - A Modern Synthesis", 2000). A point's residual depends on its
camera (R, t) and object poses only through its camera-frame coordinates
u = R^T (w - t), w its world point, so with v = R^T w = u + R^T t and
A = d(pixel)/du, its rows for the camera's increment are

    E = A R^T [[w]x | -I] = A [[v]x | -I] diag(R^T, R^T),

by R^T [w]x = [R^T w]x R^T, and for the object's increment -E. `linearize`
writes A [[v]x | -I], ten nonzero entries per point, into rows over every
point; `normal_equations` forms each member's Gram product of those rows
and applies its camera's diag(R, R) once to the 6x6 blocks.
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
DEFAULT_STARTS = 4  # refine_best_of's restarts
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
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (np.isfinite(self.truncation) and self.truncation > 0):
            raise ValueError(f"truncation must be finite and > 0, got {self.truncation}")
        # A damping ladder ends only once lambda grows past _DAMPING_CEILING:
        # one that starts above it never runs, one with a factor <= 1 never ends.
        if not 0 < self.damping_init <= _DAMPING_CEILING:
            raise ValueError(
                f"damping_init must be > 0 and <= {_DAMPING_CEILING:g}, "
                f"got {self.damping_init}"
            )
        if not (np.isfinite(self.damping_factor) and self.damping_factor > 1):
            raise ValueError(
                f"damping_factor must be finite and > 1, got {self.damping_factor}"
            )
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


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
    scatter: tuple  # `_scatter_plan` of the members' blocks
    runs: tuple[tuple[slice, slice], ...]  # `_runs` of counts
    # linearize's (16, N) rows, which every linearize of every restart
    # writes: an array of 16 N floats is larger than glibc's mmap threshold
    # once N is in the thousands, so allocated per call it would go back to
    # the OS when freed and fault its pages in afresh on the next call.
    # Rows 4 and 9 are entries of A [[v]x | -I] that are zero for every
    # point, and nothing writes them.
    rows: np.ndarray


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
    camera_rows = _rows_in(cameras, view_ids)
    object_rows = _rows_in(objects, object_ids)
    return CandidateImages(
        view_ids=tuple(view_ids),
        object_ids=tuple(object_ids),
        cameras=tuple(cameras),
        camera_rows=camera_rows,
        objects=tuple(objects),
        object_rows=object_rows,
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
        scatter=_scatter_plan(
            camera_rows, object_rows, len(cameras), len(objects)
        ),
        runs=_runs(counts),
        rows=np.zeros((16, int(bounds[-1]))),
    )


def _runs(counts: np.ndarray) -> tuple[tuple[slice, slice], ...]:
    """(members, columns) of each run of consecutive members with equal
    point count, as slices: the members of one object are a run."""
    runs = []
    start = point = 0
    for t in range(1, len(counts) + 1):
        if t == len(counts) or counts[t] != counts[start]:
            end = point + int(counts[start]) * (t - start)
            runs.append((slice(start, t), slice(point, end)))
            start, point = t, end
    return tuple(runs)


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
    targets px, valid.

    Camera-frame points u = R x + t are formed per run of equal-count
    members, each coordinate as (k, M) rows summed in apply_matrix's order,
    so each point matches apply_matrix with its member's matrix bit for bit.
    """
    matrices = _member_poses(poses, images)[:, :3, :, None]  # (T, 3, 4, 1)
    u = np.empty_like(images.points)
    for ts, cols in images.runs:
        k = ts.stop - ts.start
        x, y, z = images.points[:, cols].reshape(3, k, -1)
        m = matrices[ts]
        for j in range(3):
            uj = u[j, cols].reshape(k, -1)
            np.multiply(x, m[:, j, 0], out=uj)
            uj += y * m[:, j, 1]
            uj += z * m[:, j, 2]
            uj += m[:, j, 3]
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


# Columns of a member's Gram product G whose u-row and v-row blocks sum to
# [K' | J'^T r | J'^T unit(r)] (see `normal_equations`).
_GRAM_U = np.r_[0:6, 12, 14]
_GRAM_V = np.r_[6:12, 13, 15]


def linearize(targets: Targets) -> tuple[np.ndarray, np.ndarray]:
    """Weighted residuals at the selection's poses and their Jacobian rows
    in each point's camera frame.

    A residual depends on its camera and object poses only through
    cam^-1 * obj, so equal left increments of both cancel: a member's
    camera columns are exactly E and its object columns exactly -E, where
    E holds the rows (u, v) of its points (rotation increment first,
    translation second, matching `retract_matrices`). For a point with
    camera-frame coordinates u = R^T (w - t), w = T_obj x its world point
    and (R, t) its camera, a camera increment (phi, rho) moves u by
    -R^T (phi x w + rho), so E = A R^T [[w]x | -I] with A = d(pixel)/du.
    The identity R^T [w]x = [R^T w]x R^T moves the rotation to the right:

        E = A [[v]x | -I] diag(R^T, R^T),    v = R^T w = u + R^T t,

    and A, of two nonzeros per row (f/z and -f c/z^2), leaves ten nonzero
    entries of A [[v]x | -I] per point. `normal_equations` applies R once
    per member.

    Returns (r, rows). `rows` is the images' one `rows` buffer (16, N),
    one contiguous row per entry over every residual point: rows 0-5 and
    6-11 are the u and v rows of A [[v]x | -I] with the point's
    sqrt_weight folded into A, rows 12 and 13 (`r`, a view) the weighted
    pixel residuals, and rows 14 and 15 their unit vectors (a zero
    residual stays zero). Every column of an inactive point is zeroed
    after it is computed (such a point may lie at z <= 0), so it adds
    nothing to any product. The buffer stays valid until the next
    linearize on the same images, which overwrites it.

    The poses, camera-frame points and pixels are those of the evaluation
    the targets were selected from (`targets.at`); nothing is projected
    again.
    """
    images = targets.images
    at = targets.at
    rows = images.rows
    cams = at.poses[: len(images.cameras)]
    # R^T t of each member's camera, summed over the rows of R in order.
    rt = cams[:, 0, :3] * cams[:, 0, 3, None]
    rt += cams[:, 1, :3] * cams[:, 1, 3, None]
    rt += cams[:, 2, :3] * cams[:, 2, 3, None]
    rt = rt[images.camera_rows]
    x, y, z = at.cam_points
    # v = u + R^T t; only its negated first coordinate is used as such.
    nv1, v2, v3 = (
        np.repeat(-rt[:, 0], images.counts) - x,
        y + np.repeat(rt[:, 1], images.counts),
        z + np.repeat(rt[:, 2], images.counts),
    )
    # Inactive points may sit at z <= 0; their columns are zeroed below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A's rows (a0, 0, -q0) and (0, a1, -q1), weighted: a = sw f/z and
        # q = a c/z.
        s = images.sqrt_weight / z
        a0 = images.intrinsics.fx * s
        a1 = images.intrinsics.fy * s
        q0 = np.multiply(a0, x / z, out=rows[5])
        q1 = np.multiply(a1, y / z, out=rows[11])
        # The other nonzeros of (a0, 0, -q0) [[v]x | -I] ...
        np.multiply(q0, v2, out=rows[0])
        np.subtract(q0 * nv1, a0 * v3, out=rows[1])
        np.multiply(a0, v2, out=rows[2])
        np.negative(a0, out=rows[3])
        # ... and of (0, a1, -q1) [[v]x | -I]
        np.add(a1 * v3, q1 * v2, out=rows[6])
        np.multiply(q1, nv1, out=rows[7])
        np.multiply(a1, nv1, out=rows[8])
        np.negative(a1, out=rows[10])
        r = rows[12:14]
        np.subtract(at.px.T, targets.px.T, out=r)
        r *= images.sqrt_weight
        norm = np.sqrt(r[0] ** 2 + r[1] ** 2)
        np.divide(r, np.maximum(norm, np.finfo(np.float64).tiny), out=rows[14:16])
    inactive = ~targets.active
    if inactive.any():
        rows[:, inactive] = 0.0
    return r, rows


def normal_equations(
    rows: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass forms J^T J, J^T r and the accepted loss's gradient from
    linearize's rows, by 6x6 blocks.

    With F = A [[v]x | -I] the camera-frame rows of member t's points and
    D = diag(R, R) for its camera rotation R, linearize's E is F D^T, so

        K = E^T E = D K' D^T,    K' = F^T F,    k = E^T r = D F^T r.

    The member's columns B of `rows` (16 x M) hold F's u rows transposed in
    B[0:6], its v rows in B[6:12], r in B[12:14] and unit(r) in B[14:16],
    so its Gram product G = B B^T gives

        K' = G[:6, :6] + G[6:12, 6:12],
        F^T r = G[:6, 12] + G[6:12, 13],
        F^T unit(r) = G[:6, 14] + G[6:12, 15].

    Rows 12-15 of G are never read, so only G[:12] = B[:12] B^T is formed,
    by one stacked matmul per run of consecutive members with equal point
    count (the members of one object form a run; every member of the
    benchmark's scenes forms one). D is applied by one stacked product per
    member. A member without an active point has zero columns and adds
    zero blocks.

    The member adds [[K, -K], [-K, K]] and [k, -k] at its camera and object
    blocks; the gauge camera has no columns, so only its object block
    remains. A member's blocks are its camera and object rows of
    `pose_stack` less one. One np.bincount adds them in member order
    (`_scatter_plan`), and the four kinds of block (object-object,
    camera-camera, camera-object, object-camera) never share an entry, so
    each entry receives its additions in the order of a per-member loop of
    += and -=.

    The gradient is that of `frozen_loss` at the selection's poses. A
    member's loss is the mean of its points' truncated errors, so an active
    point adds (1 / M) unit(d)^T J, d its pixel difference and J its pixel
    Jacobian; with r = d / sqrt(M) and E = J / sqrt(M) that is
    sqrt(1 / M) unit(r)^T E, placed as k is. A point on its target adds
    nothing. Inactive points contribute the constant truncation value and
    have no gradient; the sum is exact away from the truncation, where no
    point's activity changes. Returns (J^T J, J^T r, gradient).
    """
    images = targets.images
    n_members = len(images.view_ids)
    # G[:12] = B[:12] B^T is one gemm per member; numpy takes the full
    # B B^T by BLAS syrk, about twice as slow on these 16-row blocks.
    gram = np.empty((n_members, 12, 16))
    for ts, cols in images.runs:
        # (k, 16, M) views of rows, so each member's product reads its
        # columns in place, as a 2-D product of rows[:, its columns] does.
        b = rows[:, cols].reshape(16, ts.stop - ts.start, -1).transpose(1, 0, 2)
        np.matmul(b[:, :12], b.transpose(0, 2, 1), out=gram[ts])
    # (T, 6, 8): [K' | F^T r | F^T unit(r)] of each member, camera frame
    blocks = gram[:, :6, _GRAM_U] + gram[:, 6:12, _GRAM_V]
    blocks[:, :, 7] *= np.sqrt(1.0 / images.counts)[:, None]
    n_cam = len(images.cameras)
    rot = np.zeros((n_members, 6, 6))
    rot[:, :3, :3] = rot[:, 3:, 3:] = targets.at.poses[:n_cam, :3, :3][
        images.camera_rows
    ]
    blocks = rot @ blocks  # [D K' | k | gradient]
    blocks[:, :, :6] = blocks[:, :, :6] @ rot.transpose(0, 2, 1)
    take, sign, put = images.scatter
    size = 6 * (n_cam - 1 + len(images.objects))
    out = np.bincount(
        put, weights=blocks.ravel()[take] * sign, minlength=size * (size + 2)
    )
    return out[: size * size].reshape(size, size), out[-2 * size : -size], out[-size:]


def _scatter_plan(
    camera_rows: np.ndarray, object_rows: np.ndarray, n_cam: int, n_objects: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(take, sign, put) of `normal_equations`' one bincount: entry i of
    its output, J^T J (row-major) then J^T r then the gradient, receives
    sign[i] * blocks.ravel()[take[i]] for every i with put[i] there, in
    order, from the (T, 6, 8) member blocks [K | k | gradient].

    Per member, K goes to its object-object block, and, outside the gauge
    camera, to its camera-camera block and negated to its two camera-object
    blocks; k and the gradient go to its camera's entries and negated to
    its object's. Each kind of block lists its members in order and no two
    kinds share an entry, so every entry sums its terms in member order.
    """
    size = 6 * (n_cam - 1 + n_objects)
    c = camera_rows - 1
    o = object_rows + n_cam - 1
    free = np.flatnonzero(c >= 0)  # members outside the gauge camera
    i = np.arange(6)
    ij = (i[:, None] * 8 + i).ravel()  # K's 36 entries in a member's block
    parts = []  # (members, entries in their blocks, sign, output entries)
    for ts, rb, cb, sgn in ((np.arange(len(o)), o, o, 1.0), (free, c, c, 1.0),
                            (free, c, o, -1.0), (free, o, c, -1.0)):
        rows = 6 * rb[ts, None, None] + i[:, None]
        parts.append((ts, ij, sgn, rows * size + 6 * cb[ts, None, None] + i))
    for col, base in ((6, size * size), (7, size * (size + 1))):
        for ts, b, sgn in ((np.arange(len(o)), o, -1.0), (free, c, 1.0)):
            parts.append((ts, i * 8 + col, sgn, base + 6 * b[ts, None] + i))
    take = np.concatenate([(48 * ts[:, None] + e).ravel() for ts, e, _, _ in parts])
    sign = np.concatenate([np.full(out.size, sgn) for _, _, sgn, out in parts])
    put = np.concatenate([out.ravel() for _, _, _, out in parts])
    return take, sign, put


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
    `linearize` writes into their one (16, N) `rows` buffer, so each
    iteration's rows are valid until the next iteration's `linearize`.
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
        _, rows = linearize(targets)
        if not targets.active.any():
            stop = "saturated"
            break
        h, g, grad = normal_equations(rows, targets)
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


def refine_best_of(
    objects: list[PhysicalObject],
    hypotheses: dict[tuple[str, str], TwoViewHypothesis],
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    cfg: RefineConfig = RefineConfig(),
    n_starts: int = DEFAULT_STARTS,
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
    one (16, N) `rows` buffer holds linearize's rows, so the whole solve
    allocates it once. Each start is scored by the last value of its
    `refine` trace, select_targets' loss at the refined state, and the best
    score is that value: the loss refinement minimized. It is total_loss
    bit for bit when no model has more than MAX_RESIDUAL_POINTS points, and
    otherwise the loss over each larger model's fixed subsample of that
    many points. No refined state is projected again.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    first_init, kept = initialize_scene(objects, hypotheses, obs, rng)
    if not kept:
        return first_init, kept, first_init, None
    images = candidate_images(kept, obs, geometry)
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
