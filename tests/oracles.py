"""Slow, loop-based reference implementations used as test oracles.

Everything in here trades speed for obviousness: plain Python loops,
math.sqrt, no vectorization. Library code under test must agree with these
bit for bit where a test says "exact", so the arithmetic here fixes the
accumulation order (x*r0 + y*r1 + z*r2 + t; dx*dx + dy*dy then + dz*dz).
"""

from __future__ import annotations

import math

import numpy as np


def transform_point(matrix, p):
    """R @ p + t for one point, scalar arithmetic."""
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    out = []
    for j in range(3):
        out.append(
            (
                (x * float(matrix[j][0]) + y * float(matrix[j][1]))
                + z * float(matrix[j][2])
            )
            + float(matrix[j][3])
        )
    return out


def point_distance(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    dz = p[2] - q[2]
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def symmetric_distance(matrix_a, matrix_b, sym_matrices, pts):
    """min over symmetries S of mean_p || A S p - B p ||."""
    best = math.inf
    for s in sym_matrices:
        total = 0.0
        for p in pts:
            sp = transform_point(s, p)
            pa = transform_point(matrix_a, sp)
            pb = transform_point(matrix_b, p)
            total += point_distance(pa, pb)
        d = total / len(pts)
        if d < best:
            best = d
    return best


def symmetric_distance_l1(matrix_a, matrix_b, sym_matrices, pts):
    """min over symmetries S of mean_p | A S p - B p |_1 (sum of abs coords)."""
    best = math.inf
    for s in sym_matrices:
        total = 0.0
        for p in pts:
            sp = transform_point(s, p)
            pa = transform_point(matrix_a, sp)
            pb = transform_point(matrix_b, p)
            total += (
                abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
            ) + abs(pa[2] - pb[2])
        d = total / len(pts)
        if d < best:
            best = d
    return best


def add_error(matrix_est, matrix_gt, pts):
    """Mean same-index point distance between the two posed models."""
    total = 0.0
    for p in pts:
        pe = transform_point(matrix_est, p)
        pg = transform_point(matrix_gt, p)
        total += point_distance(pe, pg)
    return total / len(pts)


def adds_error(matrix_est, matrix_gt, pts):
    """Mean nearest-neighbor distance from gt-posed points to est-posed points."""
    est = [transform_point(matrix_est, p) for p in pts]
    gt = [transform_point(matrix_gt, p) for p in pts]
    total = 0.0
    for g in gt:
        best = math.inf
        for e in est:
            d = point_distance(g, e)
            if d < best:
                best = d
        total += best
    return total / len(pts)


def distinct_rows(points):
    """cosy.matching._distinct_rows as first written: a sequential scan that
    keeps a row unless it lies within IMAGE_MERGE_TOL of a kept one."""
    from cosy.matching import IMAGE_MERGE_TOL
    from cosy.numeric import point_norms

    kept = [0]
    for k in range(1, len(points)):
        if np.min(point_norms(points[kept] - points[k])) > IMAGE_MERGE_TOL:
            kept.append(k)
    return points[kept]


def coplanar_by_rank(points, tol):
    """cosy.scene_io's coplanarity test as first written: the centered
    points have rank below 3 at singular-value tolerance tol."""
    return np.linalg.matrix_rank(points - points.mean(axis=0), tol=tol) < 3


def max_pairwise_distance(pts):
    """Largest distance between two rows of pts: the original per-row loop
    of the model diameter check, kept verbatim (numpy within a row)."""
    best = 0.0
    for i in range(pts.shape[0] - 1):
        d2 = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        m = float(d2.max())
        if m > best:
            best = m
    return float(np.sqrt(best))


def greedy_adds_matches(preds, gts, pts, threshold, scored=None):
    """Score-ordered greedy ADD-S matching of one label, scalar arithmetic.

    preds and gts carry view_id, score and pose. Returns ({gt index:
    (prediction index, error)}, number of (prediction, gt) pairs scored);
    each scored (prediction index, gt index) is appended to `scored` when
    a list is given.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    claimed = {}
    n_scored = 0
    for pi in order:
        best = None
        for gi, g in enumerate(gts):
            if gi in claimed or g.view_id != preds[pi].view_id:
                continue
            err = adds_error(preds[pi].pose.matrix, g.pose.matrix, pts)
            n_scored += 1
            if scored is not None:
                scored.append((pi, gi))
            if err < threshold and (best is None or err < best[1]):
                best = (gi, err)
        if best is not None:
            claimed[best[0]] = (pi, best[1])
    return claimed, n_scored


def auc_of_recall(errors, max_threshold):
    """Area under recall(threshold)/threshold for threshold in (0, max].

    Recall jumps at each error value; integrating the staircase exactly
    gives sum(max(max_threshold - e, 0)) / (n * max_threshold).
    """
    n = len(errors)
    total = 0.0
    for e in errors:
        total += max(max_threshold - e, 0.0)
    return total / (n * max_threshold)


def rotation_about_axis(axis, angle):
    ax = np.asarray(axis, dtype=np.float64)
    ax = ax / np.linalg.norm(ax)
    x, y, z = ax
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


def random_rotation(rng):
    """Uniform random rotation via quaternion (Shoemake)."""
    u1, u2, u3 = rng.random(3)
    q = np.array(
        [
            math.sqrt(1.0 - u1) * math.sin(2.0 * math.pi * u2),
            math.sqrt(1.0 - u1) * math.cos(2.0 * math.pi * u2),
            math.sqrt(u1) * math.sin(2.0 * math.pi * u3),
            math.sqrt(u1) * math.cos(2.0 * math.pi * u3),
        ]
    )
    w, x, y, z = q[3], q[0], q[1], q[2]
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_pose_matrix(rng, t_scale=1.0):
    m = np.eye(4)
    m[:3, :3] = random_rotation(rng)
    m[:3, 3] = rng.uniform(-t_scale, t_scale, size=3)
    return m


def random_pose_nudge(matrix, rng, rot_scale, trans_scale):
    """Left-perturb a pose matrix by a small random rotation/translation."""
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    m = np.eye(4)
    m[:3, :3] = rotation_about_axis(axis, rng.normal() * rot_scale)
    m[:3, 3] = rng.normal(size=3) * trans_scale
    return m @ np.asarray(matrix, dtype=np.float64)


def block_offsets(images):
    """(camera offsets, object offsets, parameter count) of a CandidateImages.

    The 6-dof blocks follow pose_stack's rows: images.cameras, whose first
    view is the gauge and has no block (offset None), then images.objects.
    """
    gauge, *cameras = images.cameras
    cam = {gauge: None}
    cam.update((v, 6 * k) for k, v in enumerate(cameras))
    obj = {o: 6 * (len(cameras) + k) for k, o in enumerate(images.objects)}
    return cam, obj, 6 * (len(cameras) + len(images.objects))


def dense_jacobian(e, targets):
    """Dense (2N, P) Jacobian from linearize's compact (2N, 6) block.

    Target t owns the next 2 * (its active points) rows, in member order.
    Its rows of E go to its camera's columns (none for the gauge view) and
    their negation to its object's columns.
    """
    images = targets.images
    cam_offset, obj_offset, size = block_offsets(images)
    d = np.zeros((e.shape[0], size))
    row = 0
    for t in range(len(images.view_ids)):
        n_active = 0
        for i in range(images.bounds[t], images.bounds[t + 1]):
            if targets.active[i]:
                n_active += 1
        cam = cam_offset[images.view_ids[t]]
        obj = obj_offset[images.object_ids[t]]
        for i in range(row, row + 2 * n_active):
            for j in range(6):
                if cam is not None:
                    d[i, cam + j] = e[i, j]
                d[i, obj + j] = -e[i, j]
        row += 2 * n_active
    return d


def _skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rodrigues(axis, angle):
    """I + sin(a) K + (1 - cos(a)) K^2, K the cross matrix of the unit axis."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    k = _skew(axis / np.linalg.norm(axis))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def retract_matrix(matrix, delta):
    """One pose's left 6-dof update, written out per pose.

    The rotation increment is Rodrigues of delta[:3]: theta from
    np.linalg.norm, a second-order series below 1e-12, otherwise the axis
    omega / theta (normalized once more by `rodrigues`). The library's
    stacked retraction must reproduce this bit for bit.
    """
    delta = np.asarray(delta, dtype=np.float64).reshape(6)
    omega = delta[:3]
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        k = _skew(omega)
        rot = np.eye(3) + k + 0.5 * (k @ k)
    else:
        rot = rodrigues(omega / theta, theta)
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = delta[3:]
    return m @ np.asarray(matrix, dtype=np.float64)


def inverse_matrix(matrix):
    """Rigid inverse of one pose: rotation R^T, translation -(R^T t)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    r = matrix[:3, :3]
    m = np.eye(4)
    m[:3, :3] = r.T
    m[:3, 3] = -(r.T @ matrix[:3, 3])
    return m


def hard_rotation_increments(rng, n):
    """(n, 3) rotation vectors: zero, below the 1e-12 series cutoff, near
    and at pi, beyond 2 pi, and random magnitudes over many decades."""
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    special = [0.0, 1e-300, 3e-13, 9.99e-13, 1e-12, 1e-8,
               math.pi - 1e-9, math.pi, math.pi + 1e-9, 2.0 * math.pi, 7.0, 40.0]
    angles = np.concatenate([special, 10.0 ** rng.uniform(-14, 1.5, n - len(special))])
    return axes * angles[:n, None]


def discretize_matrices(spec, angles_per_axis):
    """cosy.symmetry.discretize's elements as written before the pairwise
    deduplication table: each product d @ rot, in order, is compared with
    every element kept so far and kept unless one is within _DEDUP_TOL
    (max abs entry). Returns the kept (4, 4) matrices."""
    from cosy.geometry import rotations_about_axes
    from cosy.symmetry import _DEDUP_TOL

    axis_rotations = []
    if spec.continuous_axes:
        angles = [2.0 * np.pi * k / angles_per_axis for k in range(angles_per_axis)]
        for axis, offset in spec.continuous_axes:
            axes = np.tile(axis, (angles_per_axis, 1))
            for R in rotations_about_axes(axes, angles):
                m = np.eye(4)
                m[:3, :3] = R
                m[:3, 3] = offset - R @ offset
                axis_rotations.append(m)
    else:
        axis_rotations.append(np.eye(4))
    kept = [np.eye(4)]
    stack = np.eye(4)[None]
    for d in spec.discrete:
        for rot in axis_rotations:
            m = d.matrix @ rot
            if np.min(np.max(np.abs(stack - m), axis=(1, 2))) <= _DEDUP_TOL:
                continue
            kept.append(m)
            stack = np.concatenate([stack, m[None]])
    return kept


# ---------------------------------------------------------------------------
# Per-member Levenberg-Marquardt inner loop: the loop-over-members version of
# cosy.refinement's select_targets, frozen_loss, linearize (with np.cross)
# and normal_equations (its h and g), kept as written before the flat
# per-point rewrite; normal_equations appends `loss_gradient`.
# `per_member_view` turns a CandidateImages into the per-member layout these
# functions read; the library's results must equal theirs bit for bit, and
# they can stand in for the library's functions inside `refine`. Like those,
# they take pose stacks (`as_state` turns one back into a SceneState).


def per_member_view(images):
    """CandidateImages as per-member tuples and (N, 3) points."""
    from types import SimpleNamespace

    n_members = len(images.view_ids)
    per_member = [None] * n_members
    for st in images.stacks:
        for j, t in enumerate(st.members.tolist()):
            per_member[t] = (st.px[j], st.valid[j])
    return SimpleNamespace(
        view_ids=images.view_ids,
        object_ids=images.object_ids,
        cameras=images.cameras,
        objects=images.objects,
        bounds=images.bounds,
        member=np.repeat(np.arange(n_members), images.counts),
        points=np.ascontiguousarray(images.points.T),
        intrinsics=images.intrinsics,
        sqrt_weight=images.sqrt_weight,
        images=tuple(p for p, _ in per_member),
        image_valid=tuple(v for _, v in per_member),
    )


def apply_matrices_indexed(matrices, index, pts):
    """Apply matrices[index[i]] to point i: (T, 4, 4), (N,), (N, 3) -> (N, 3)."""
    # Coordinate-major (3, 4, N) gather: each term below is a contiguous row.
    m = np.take(matrices[:, :3, :].transpose(1, 2, 0), index, axis=2)
    x, y, z = pts.T
    return (((x * m[:, 0] + y * m[:, 1]) + z * m[:, 2]) + m[:, 3]).T


def project_masked(k, pts, z_min=1e-3):
    """Pixels and validity; a point with z <= z_min is projected at z = 1."""
    valid = pts[:, 2] > z_min
    safe = pts.copy()
    safe[~valid, 2] = 1.0
    z = safe[:, 2]
    u = k.fx * safe[:, 0] / z + k.cx
    v = k.fy * safe[:, 1] / z + k.cy
    return np.stack([u, v], axis=1), valid


def as_state(poses, images):
    """The SceneState of a pose stack over images.cameras then images.objects."""
    from cosy.geometry import Pose
    from cosy.refinement import SceneState

    n_cam = len(images.cameras)
    return SceneState(
        camera_poses=dict(zip(images.cameras, map(Pose, poses[:n_cam]))),
        object_poses=dict(zip(images.objects, map(Pose, poses[n_cam:]))),
    )


def member_poses(poses, images):
    """cosy.refinement._member_poses as written before CandidateImages kept
    its camera and object rows: one stacked object matrix per member."""
    from cosy.geometry import inverse_matrices

    state = as_state(poses, images)
    views = sorted(set(images.view_ids))
    row = {v: k for k, v in enumerate(views)}
    inv = inverse_matrices(np.stack([state.camera_poses[v].matrix for v in views]))
    objs = np.stack([state.object_poses[o].matrix for o in images.object_ids])
    return inv[[row[v] for v in images.view_ids]] @ objs


def project_points(poses, images, rows=slice(None)):
    from cosy.refinement import PointIntrinsics

    u = apply_matrices_indexed(
        member_poses(poses, images), images.member[rows], images.points[rows]
    )
    intr = PointIntrinsics(*(a[rows] for a in images.intrinsics))
    px, valid = project_masked(intr, u)
    return u, px, valid


def select_targets(poses, images, truncation, evaluation=None):
    """Per-member symmetry selection of a CandidateImages: (targets, loss).

    The targets carry the per-member view as `images` and the selection's
    `poses`; the other three functions read only those. `evaluation` is
    ignored: the state is always projected again, into new arrays.
    """
    from types import SimpleNamespace

    from cosy.refinement import _truncated_errors

    images = per_member_view(images)
    _, pred_px, pred_valid = project_points(poses, images)
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
    targets = SimpleNamespace(
        images=images,
        poses=poses,
        px=np.concatenate(px),
        valid=np.concatenate(valid),
        active=np.concatenate(active),
    )
    return targets, float(loss)


def frozen_loss(poses, targets, truncation):
    from cosy.refinement import _truncated_errors

    _, pred_px, pred_valid = project_points(poses, targets.images)
    contrib, _, _ = _truncated_errors(
        pred_px, pred_valid, targets.px, targets.valid, truncation
    )
    b = targets.images.bounds
    total = 0.0
    for s, e in zip(b[:-1], b[1:]):
        total += float(contrib[s:e].mean())
    return total, None


def linearize(targets):
    images, poses = targets.images, targets.poses
    state = as_state(poses, images)
    act = targets.active
    member = images.member[act]
    u, pred_px, _ = project_points(poses, images, act)
    sw = images.sqrt_weight[act]
    r = ((pred_px - targets.px[act]) * sw[:, None]).ravel()
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


def normal_equations(r, e, targets):
    """(J^T J, J^T r, gradient): the per-member loop, then `loss_gradient`."""
    images = targets.images
    cam_offset, obj_offset, size = block_offsets(images)
    h = np.zeros((size, size))
    g = np.zeros(size)
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
        o = obj_offset[object_id]
        h[o : o + 6, o : o + 6] += k_mat
        g[o : o + 6] -= k_vec
        c = cam_offset[view_id]
        if c is not None:
            h[c : c + 6, c : c + 6] += k_mat
            h[c : c + 6, o : o + 6] -= k_mat
            h[o : o + 6, c : c + 6] -= k_mat
            g[c : c + 6] += k_vec
    return h, g, loss_gradient(r, e, targets)


# cosy.matching.two_view_ransac's hypothesis loop as written before exact
# hypothesis pruning: every combo computes its pose and scores it, with no
# memo and no inlier bound. Scoring takes an exact symmetric distance for
# every label-consistent pair, with no centroid bound either. The library's
# winner must equal this one bit for bit.


def inlier_matches(t_ab, cands_a, cands_b, geometry, threshold):
    """(distance, pair) of the greedy one-to-one matching, acceptance order."""
    from cosy.matching import CandidatePair
    from cosy.symmetry import symmetric_distance

    scored = []
    for i, ca in cands_a:
        for j, cb in cands_b:
            if ca.label != cb.label:
                continue
            entry = geometry[ca.label]
            d = symmetric_distance(
                entry.model.points, entry.sym_points,
                ca.pose, t_ab.compose(cb.pose),
            )
            if d < threshold:
                scored.append((d, i, j))
    scored.sort()
    used_a, used_b, out = set(), set(), []
    for d, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        out.append((d, CandidatePair(i, j)))
    return out


def two_view_ransac(view_a, view_b, obs, geometry, params):
    from cosy.matching import (
        TwoViewHypothesis,
        _candidate_pairs,
        _pair_rng,
        hypothesis_combos,
        relative_pose_from_pairs,
    )

    by_view = obs.by_view()
    cands_a = by_view.get(view_a, [])
    cands_b = by_view.get(view_b, [])
    if not cands_a or not cands_b:
        return None
    pairs = _candidate_pairs(cands_a, cands_b)
    if len(pairs) < 2:
        return None
    combos = hypothesis_combos(
        pairs,
        params.max_iterations,
        lambda: _pair_rng(params.seed, view_a, view_b),
    )

    best_key = None
    best = None
    for k1, k2 in combos:
        p1, p2 = pairs[k1], pairs[k2]
        t_ab = relative_pose_from_pairs(p1, p2, obs, geometry)
        matches = inlier_matches(
            t_ab, cands_a, cands_b, geometry, params.inlier_threshold
        )
        if len(matches) < params.min_inliers:
            continue
        total = float(sum(d for d, _ in matches))
        key = (-len(matches), total, (p1.a, p1.b, p2.a, p2.b))
        if best_key is None or key < best_key:
            best_key = key
            best = TwoViewHypothesis(
                view_a=view_a,
                view_b=view_b,
                relative_pose=t_ab,
                inliers=tuple(pair for _, pair in matches),
                generating_pairs=(p1, p2),
                total_distance=total,
            )
    return best


# ---------------------------------------------------------------------------
# cosy.refinement.refine as written before it kept each restart's poses in one
# stack: a SceneState and an apply_delta per damping trial, a new projection
# for every selection, and a final selection for the trace. It calls
# select_targets, linearize, normal_equations (for J^T J and J^T r) and
# frozen_loss through the cosy.refinement module, so a test may count or
# replace them, and hands them the pose_stack of each SceneState; the
# gradient of the accepted loss is always `loss_gradient`'s.


def apply_delta(state, images, delta):
    """Left-multiplicative 6-dof update of every parameterized pose.

    All poses are retracted together (`retract_matrices`), in block order
    (`block_offsets`); the gauge camera keeps its Pose.
    """
    from cosy.geometry import Pose, retract_matrices
    from cosy.refinement import SceneState

    _, _, size = block_offsets(images)
    cam_ids = images.cameras[1:]
    delta = np.asarray(delta, dtype=np.float64).reshape(size)
    poses = [state.camera_poses[v] for v in cam_ids]
    poses += [state.object_poses[o] for o in images.objects]
    moved = retract_matrices(np.stack([p.matrix for p in poses]), delta)
    n_cam = len(cam_ids)
    cameras = dict(state.camera_poses)
    cameras.update(zip(cam_ids, map(Pose, moved[:n_cam])))
    obj_poses = dict(state.object_poses)
    obj_poses.update(zip(images.objects, map(Pose, moved[n_cam:])))
    return SceneState(camera_poses=cameras, object_poses=obj_poses)


def residual_vector(poses, targets):
    """Weighted pixel residuals of the active points at a pose stack.

    Meaningful near the selection poses: the active set is frozen, so
    points that wander behind the camera keep their placeholder projection.
    """
    import cosy.refinement as lm

    act = targets.active
    images = targets.images
    # The truncation changes no pixel.
    px = lm._evaluate(
        poses, images, targets.px, targets.valid, lm.DEFAULT_TRUNCATION_PX
    ).px
    sw = images.sqrt_weight[act]
    return ((px[act] - targets.px[act]) * sw[:, None]).ravel()


def loss_gradient(r, e, targets):
    """Gradient of the frozen truncated loss at the selection poses, point
    by point: active point i adds sqrt_weight_i * unit(r_i)^T E_i at its
    member's camera block (none for the gauge view) and the negation at its
    object block; a zero residual adds nothing."""
    images = targets.images
    cam_offset, obj_offset, size = block_offsets(images)
    r, e = r.tolist(), e.tolist()
    grad = [0.0] * size
    row = 0
    for t in range(len(images.view_ids)):
        cam = cam_offset[images.view_ids[t]]
        obj = obj_offset[images.object_ids[t]]
        for i in range(images.bounds[t], images.bounds[t + 1]):
            if not targets.active[i]:
                continue
            ru, rv = r[row], r[row + 1]
            eu, ev = e[row], e[row + 1]
            row += 2
            norm = math.hypot(ru, rv)
            if norm == 0.0:
                continue
            w = float(images.sqrt_weight[i]) / norm
            for j in range(6):
                v = w * (ru * eu[j] + rv * ev[j])
                if cam is not None:
                    grad[cam + j] += v
                grad[obj + j] -= v
    return np.array(grad)


def refine(state, objects, obs, geometry, cfg, *, trace=None, images=None, stops=None):
    """The loop-over-SceneStates refine; `stops`, when given, receives why
    the descent stopped: "zero", "saturated", "no_descent", "ladder",
    "rel_tol" or "max_iterations".

    Each iteration ends the restart before any trial when the first solved
    step d and the surrogate's steepest descent -g both fail to descend the
    frozen loss to first order (`loss_gradient` . d >= 0 and . g <= 0), and
    an accepted step divides the damping down to no less than
    cfg.damping_init."""
    import cosy.refinement as lm

    if not objects:
        return state
    state.require_views(objects)
    if images is None:
        images = lm.candidate_images(objects, obs, geometry)
    lam = cfg.damping_init
    eye = np.eye(block_offsets(images)[2])
    stop = "max_iterations"

    for _ in range(cfg.max_iterations):
        poses = lm.pose_stack(state, images)
        targets, loss0 = lm.select_targets(poses, images, cfg.truncation)
        if trace is not None:
            trace.append(loss0)
        if loss0 <= 1e-12:
            stop = "zero"
            break
        r, e = lm.linearize(targets)
        if r.size == 0:
            stop = "saturated"
            break
        h, g = lm.normal_equations(r, e, targets)[:2]
        grad = loss_gradient(r, e, targets)

        accepted = False
        solved = False
        rel_decrease = 0.0
        while lam <= lm._DAMPING_CEILING:
            try:
                delta = np.linalg.solve(h + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.damping_factor
                continue
            if not solved:
                solved = True
                if grad @ delta >= 0 and grad @ g <= 0:
                    stop = "no_descent"
                    break
            trial = apply_delta(state, images, delta)
            trial_loss = lm.frozen_loss(
                lm.pose_stack(trial, images), targets, cfg.truncation
            )[0]
            if trial_loss < loss0:
                rel_decrease = (loss0 - trial_loss) / loss0
                state = trial
                lam = max(lam / cfg.damping_factor, cfg.damping_init)
                accepted = True
                break
            lam *= cfg.damping_factor
        if stop == "no_descent":
            break
        if not accepted:
            stop = "ladder"
            break
        if rel_decrease < cfg.rel_tol:
            stop = "rel_tol"
            break

    if stops is not None:
        stops.append(stop)
    if trace is not None and stop not in ("zero", "saturated"):
        poses = lm.pose_stack(state, images)
        trace.append(lm.select_targets(poses, images, cfg.truncation)[1])
    return state


# ---------------------------------------------------------------------------
# cosy.refinement's initialization as written before its pruning moved inside
# initialize_scene: an initialization that raises when some member view is
# unreachable from the root camera, a helper that drops those members, and a
# wrapper that retries with a new root draw. The library's UserWarning on
# each retry is left out.


class DisconnectedViews(RuntimeError):
    """Some member-hosting views cannot be reached from the root camera."""

    def __init__(self, views):
        self.views = tuple(views)
        super().__init__(f"views unreachable from the root camera: {self.views}")


def initialize_scene_raising(objects, hypotheses, obs, rng):
    """One root draw and breadth-first placement; raises DisconnectedViews."""
    from collections import deque

    from cosy.geometry import Pose
    from cosy.refinement import SceneState

    member_views = sorted({v for o in objects for v, _ in o.members})
    if not member_views:
        return SceneState(camera_poses={}, object_poses={})
    root = member_views[int(rng.integers(len(member_views)))]

    neighbors = {}
    for (va, vb), hyp in sorted(hypotheses.items()):
        neighbors.setdefault(va, []).append((vb, hyp.relative_pose))
        neighbors.setdefault(vb, []).append((va, hyp.relative_pose.inverse()))

    cameras = {root: Pose.identity()}
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

    object_poses = {}
    for obj in sorted(objects, key=lambda o: o.id):
        view_id, cand_idx = obj.members[int(rng.integers(len(obj.members)))]
        object_poses[obj.id] = cameras[view_id].compose(
            obs.candidates[cand_idx].pose
        )
    return SceneState(camera_poses=cameras, object_poses=object_poses)


def prune_unreachable_members(objects, unreachable_views):
    """Drop members hosted in unreachable views; drop objects left with < 2."""
    from cosy.matching import PhysicalObject

    bad = set(unreachable_views)
    kept = []
    for obj in objects:
        members = tuple(m for m in obj.members if m[0] not in bad)
        if len(members) >= 2:
            kept.append(
                PhysicalObject(id=obj.id, label=obj.label, members=members)
            )
    return kept


def initialize_scene_with_pruning(objects, hypotheses, obs, rng):
    """(state, kept objects): retry with a new root after each pruning."""
    from cosy.refinement import SceneState

    while True:
        try:
            return initialize_scene_raising(objects, hypotheses, obs, rng), objects
        except DisconnectedViews as exc:
            objects = prune_unreachable_members(objects, exc.views)
            if not objects:
                return SceneState(camera_poses={}, object_poses={}), []
