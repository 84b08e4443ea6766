"""Tests for scene initialization and bundle-adjustment refinement."""

import math

import numpy as np
import pytest

import cosy.refinement
import oracles
from cosy.evaluation import pose_error
from cosy.geometry import Pose
from cosy.matching import MatchParams, PhysicalObject, build_match_graph, \
    extract_physical_objects
from cosy.refinement import (
    MAX_RESIDUAL_POINTS,
    DisconnectedViews,
    RefineConfig,
    SceneState,
    apply_delta,
    candidate_images,
    candidate_loss,
    express_in_camera_frames,
    frozen_loss,
    initialize_scene,
    initialize_scene_with_pruning,
    linearize,
    normal_equations,
    parameter_layout,
    prune_unreachable_members,
    refine,
    refine_best_of,
    residual_points,
    residual_vector,
    select_targets,
    total_loss,
)
from cosy.scene_io import Candidate, ObjectModel, SceneObservations, View
from cosy.simulation import (
    NoiseModel,
    ScenarioConfig,
    generate_observations,
    generate_scene,
    make_models,
)
from cosy.symmetry import SymmetrySpec, discretize

from test_matching import manual_observations, small_scene


def consistent_setup(n_objects=4, n_views=3, seed=0, symmetric=()):
    """Ground-truth scene with exact candidates and the matching objects."""
    db, scene = small_scene(n_objects, n_views, seed=seed, symmetric=symmetric)
    obs = manual_observations(scene)
    objects = [
        PhysicalObject(
            id=oi,
            label=scene.object_labels[oi],
            members=tuple(
                (scene.views[vi].view_id, vi * n_objects + oi)
                for vi in range(n_views)
            ),
        )
        for oi in range(n_objects)
    ]
    state = SceneState(
        camera_poses={
            scene.views[vi].view_id: scene.camera_poses[vi]
            for vi in range(n_views)
        },
        object_poses={oi: scene.object_poses[oi] for oi in range(n_objects)},
    )
    return db, scene, obs, objects, state


def test_refine_config_validation():
    RefineConfig()
    with pytest.raises(ValueError):
        RefineConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RefineConfig(truncation=0.0)
    with pytest.raises(ValueError):
        RefineConfig(damping_factor=-1.0)
    with pytest.raises(ValueError):
        RefineConfig(rel_tol=0.0)


def test_state_requires_member_views():
    db, scene, obs, objects, state = consistent_setup()
    partial = SceneState(
        camera_poses={k: v for k, v in list(state.camera_poses.items())[:1]},
        object_poses=state.object_poses,
    )
    with pytest.raises(ValueError):
        partial.require_views(objects)


def test_residual_points_subsample_is_deterministic():
    rng = np.random.default_rng(0)
    pts = rng.normal(0, 0.05, (800, 3))
    model = ObjectModel(
        label="big", points=pts, diameter=1.0, symmetries=SymmetrySpec.none()
    )
    sub1 = residual_points(model)
    sub2 = residual_points(model)
    assert sub1.shape == (500, 3)
    assert np.array_equal(sub1, sub2)
    small = ObjectModel(
        label="small", points=pts[:40], diameter=1.0,
        symmetries=SymmetrySpec.none(),
    )
    assert residual_points(small) is small.points


# ------------------------------------------------------------ initialization


def test_initialize_empty_objects():
    state = initialize_scene([], {}, None, np.random.default_rng(0))
    assert state.camera_poses == {} and state.object_poses == {}


def test_initialize_two_views_zero_noise_is_zero_loss():
    db, scene, obs, objects, _ = consistent_setup(n_objects=4, n_views=2, seed=5)
    graph = build_match_graph(obs, db)
    state = initialize_scene(
        extract_physical_objects(graph), graph.hypotheses, obs,
        np.random.default_rng(0),
    )
    objs = extract_physical_objects(graph)
    assert total_loss(state, objs, obs, db) < 1e-6


def test_initialize_chains_relative_poses():
    db, scene, obs, objects, _ = consistent_setup(n_objects=4, n_views=3, seed=9)
    graph = build_match_graph(obs, db)
    objs = extract_physical_objects(graph)
    # force a known chain: keep only A-B and B-C hypotheses
    keys = sorted(graph.hypotheses)
    chain = {keys[0]: graph.hypotheses[keys[0]], keys[2]: graph.hypotheses[keys[2]]}
    assert [k for k in sorted(chain)] == [
        ("view_000", "view_001"), ("view_001", "view_002")
    ]
    state = initialize_scene(objs, chain, obs, np.random.default_rng(3))
    # gauge-free check: relative camera poses must match ground truth
    for vi, vj in [(0, 1), (0, 2), (1, 2)]:
        got = (
            state.camera_poses[f"view_{vi:03d}"].inverse()
            .compose(state.camera_poses[f"view_{vj:03d}"])
        )
        want = scene.camera_poses[vi].inverse().compose(scene.camera_poses[vj])
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-9
    # and camera C is literally T_AB composed with T_BC from the chain
    t_ab = chain[("view_000", "view_001")].relative_pose
    t_bc = chain[("view_001", "view_002")].relative_pose
    rel = (
        state.camera_poses["view_000"].inverse()
        .compose(state.camera_poses["view_002"])
    )
    assert np.max(np.abs(rel.matrix - t_ab.compose(t_bc).matrix)) < 1e-12


def test_initialize_object_from_member_candidate():
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=2, seed=2)
    graph = build_match_graph(obs, db)
    objs = extract_physical_objects(graph)
    state = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(1))
    for obj in objs:
        t_world = state.object_poses[obj.id]
        lifts = [
            state.camera_poses[v].compose(obs.candidates[i].pose).matrix
            for v, i in obj.members
        ]
        assert any(np.max(np.abs(t_world.matrix - m)) < 1e-9 for m in lifts)


def test_disconnected_views_raise_and_prune():
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=3, seed=4)
    graph = build_match_graph(obs, db)
    objs = extract_physical_objects(graph)
    only = {("view_000", "view_001"): graph.hypotheses[("view_000", "view_001")]}
    # seed 1 draws its root inside the connected {000, 001} component
    with pytest.raises(DisconnectedViews) as exc:
        initialize_scene(objs, only, obs, np.random.default_rng(1))
    assert exc.value.views == ("view_002",)
    # seed 0 draws view_002 itself: the other two views become unreachable
    with pytest.raises(DisconnectedViews) as exc2:
        initialize_scene(objs, only, obs, np.random.default_rng(0))
    assert exc2.value.views == ("view_000", "view_001")

    pruned = prune_unreachable_members(objs, exc.value.views)
    assert all(
        all(v != "view_002" for v, _ in o.members) and len(o.members) >= 2
        for o in pruned
    )
    state = initialize_scene(pruned, only, obs, np.random.default_rng(1))
    assert "view_002" not in state.camera_poses


def test_initialize_with_pruning_recovers():
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=3, seed=4)
    graph = build_match_graph(obs, db)
    objs = extract_physical_objects(graph)
    only = {("view_000", "view_001"): graph.hypotheses[("view_000", "view_001")]}
    with pytest.warns(UserWarning):
        state, kept = initialize_scene_with_pruning(
            objs, only, obs, np.random.default_rng(1)
        )
    assert set(state.camera_poses) == {"view_000", "view_001"}
    assert kept and all(len(o.members) == 2 for o in kept)
    state.require_views(kept)


# --------------------------------------------------------------------- loss


def test_candidate_loss_zero_when_consistent():
    db, scene, obs, objects, state = consistent_setup(seed=11)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    for obj in objects:
        for view_id, idx in obj.members:
            loss = candidate_loss(
                state, obs.candidates[idx], obj, db, intr[view_id]
            )
            assert loss < 1e-9


def test_candidate_loss_absorbs_symmetry():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=2, seed=12, symmetric=("obj_01",)
    )
    intr = {v.view_id: v.intrinsics for v in obs.views}
    group = discretize(db["obj_01"].symmetries)
    obj = objects[1]
    view_id, idx = obj.members[0]
    base = obs.candidates[idx]
    for s in (group.elements[1], group.elements[17]):
        twisted = Candidate(
            base.view_id, base.label, base.score, base.pose.compose(s)
        )
        loss = candidate_loss(state, twisted, obj, db, intr[view_id])
        assert loss < 1e-9


def test_candidate_loss_saturates_off_image():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=13)
    intr = {v.view_id: v.intrinsics for v in obs.views}
    moved = dict(state.object_poses)
    m = moved[0].matrix.copy()
    m[0, 3] += 50.0  # far outside every frustum
    moved[0] = Pose.from_matrix(m)
    state2 = SceneState(camera_poses=state.camera_poses, object_poses=moved)
    obj = objects[0]
    view_id, idx = obj.members[0]
    loss = candidate_loss(
        state2, obs.candidates[idx], obj, db, intr[view_id], truncation=25.0
    )
    assert loss == 25.0


def test_candidate_loss_validates_membership():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=14)
    intr = obs.views[0].intrinsics
    wrong_label = Candidate("view_000", objects[1].label, 0.9, obs.candidates[0].pose)
    with pytest.raises(ValueError):
        candidate_loss(state, wrong_label, objects[0], db, intr)
    stranger = Candidate("view_999", objects[0].label, 0.9, obs.candidates[0].pose)
    with pytest.raises(ValueError):
        candidate_loss(state, stranger, objects[0], db, intr)


def test_total_loss_matches_naive_resummation():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=15, symmetric=("obj_00",)
    )
    rng = np.random.default_rng(15)
    # perturb the state so the loss is nonzero
    cams = {
        k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, 0.01, 0.02))
        for k, v in state.camera_poses.items()
    }
    objs_p = {
        k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, 0.01, 0.02))
        for k, v in state.object_poses.items()
    }
    noisy = SceneState(camera_poses=cams, object_poses=objs_p)
    cfg = RefineConfig()
    got = total_loss(noisy, objects, obs, db, cfg)

    intr = {v.view_id: v.intrinsics for v in obs.views}
    groups = {
        label: discretize(db[label].symmetries)
        for label in {o.label for o in objects}
    }
    expected = 0.0
    for obj in objects:
        pts = db[obj.label].points
        for view_id, idx in obj.members:
            cand = obs.candidates[idx]
            k = intr[view_id]
            t_state = (
                np.linalg.inv(noisy.camera_poses[view_id].matrix)
                @ noisy.object_poses[obj.id].matrix
            )
            best = np.inf
            for s in groups[obj.label].elements:
                tot = 0.0
                for p in pts:
                    sp = oracles.transform_point(s.matrix, p)
                    q_t = oracles.transform_point(cand.pose.matrix, sp)
                    q_s = oracles.transform_point(t_state, p)
                    if q_t[2] <= 1e-3 or q_s[2] <= 1e-3:
                        tot += cfg.truncation
                        continue
                    du = (k.fx * q_s[0] / q_s[2] + k.cx) - (
                        k.fx * q_t[0] / q_t[2] + k.cx
                    )
                    dv = (k.fy * q_s[1] / q_s[2] + k.cy) - (
                        k.fy * q_t[1] / q_t[2] + k.cy
                    )
                    tot += min(np.hypot(du, dv), cfg.truncation)
                best = min(best, tot / len(pts))
            expected += best
    assert got > 1.0
    assert abs(got - expected) < 1e-6 * max(1.0, expected)


def test_total_loss_is_gauge_invariant():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=2, seed=16, symmetric=("obj_02",)
    )
    rng = np.random.default_rng(16)
    cams = {
        k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, 0.05, 0.03))
        for k, v in state.camera_poses.items()
    }
    noisy = SceneState(camera_poses=cams, object_poses=state.object_poses)
    base = total_loss(noisy, objects, obs, db)
    assert base > 0
    for _ in range(5):
        g = Pose.from_matrix(oracles.random_pose_matrix(rng))
        moved = SceneState(
            camera_poses={k: g.compose(v) for k, v in noisy.camera_poses.items()},
            object_poses={k: g.compose(v) for k, v in noisy.object_poses.items()},
        )
        assert abs(total_loss(moved, objects, obs, db) - base) < 1e-9 * base


# ------------------------------------------------------------ linearization


def test_apply_delta_zero_is_identity():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=17)
    layout = parameter_layout(state, objects)
    assert layout.size == 6 * (1 + 2)  # one camera is the gauge
    assert layout.camera_offset(layout.gauge_view) is None
    same = apply_delta(state, layout, np.zeros(layout.size))
    for k in state.camera_poses:
        assert np.array_equal(same.camera_poses[k].matrix,
                              state.camera_poses[k].matrix)
    for k in state.object_poses:
        assert np.array_equal(same.object_poses[k].matrix,
                              state.object_poses[k].matrix)


def test_apply_delta_matches_per_pose_retract_oracle():
    db, scene, obs, objects, state = consistent_setup(n_objects=4, n_views=3, seed=27)
    layout = parameter_layout(state, objects)
    n_blocks = layout.size // 6
    n_cams = len(layout.camera_ids)
    rng = np.random.default_rng(27)
    # Zero, sub-1e-12, near-pi and beyond-2pi increments land in every block.
    rots = oracles.hard_rotation_increments(rng, 12 * n_blocks)
    rots = rots[rng.permutation(len(rots))]
    for rows in np.split(rots, 12):
        blocks = np.concatenate([rows, rng.normal(size=rows.shape) * 0.1], axis=1)
        moved = apply_delta(state, layout, blocks.ravel())
        for k, vid in enumerate(layout.camera_ids):
            want = oracles.retract_matrix(state.camera_poses[vid].matrix, blocks[k])
            assert np.array_equal(moved.camera_poses[vid].matrix, want)
        for k, oid in enumerate(layout.object_ids):
            want = oracles.retract_matrix(
                state.object_poses[oid].matrix, blocks[n_cams + k]
            )
            assert np.array_equal(moved.object_poses[oid].matrix, want)
        gauge = layout.gauge_view
        assert moved.camera_poses[gauge] is state.camera_poses[gauge]


def perturbed_state(state, rng, rot=0.02, trans=0.01):
    return SceneState(
        camera_poses={
            k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, rot, trans))
            for k, v in state.camera_poses.items()
        },
        object_poses={
            k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, rot, trans))
            for k, v in state.object_poses.items()
        },
    )


def test_jacobian_matches_central_differences():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=18, symmetric=("obj_01",)
    )
    cfg = RefineConfig()
    images = candidate_images(objects, obs, db, cfg)
    rng = np.random.default_rng(18)
    for trial in range(3):
        noisy = perturbed_state(state, rng, rot=0.01, trans=0.005)
        targets, _ = select_targets(noisy, images, cfg.truncation)
        assert targets.active.all()  # nothing truncated
        layout = parameter_layout(noisy, objects)
        r0, block = linearize(noisy, targets)
        jac = oracles.dense_jacobian(block, targets, layout)
        assert np.max(np.abs(r0 - residual_vector(noisy, targets))) < 1e-9

        h = 1e-6
        fd = np.zeros_like(jac)
        for k in range(layout.size):
            e = np.zeros(layout.size)
            e[k] = h
            rp = residual_vector(apply_delta(noisy, layout, e), targets)
            rm = residual_vector(apply_delta(noisy, layout, -e), targets)
            fd[:, k] = (rp - rm) / (2 * h)
        rel = np.max(np.abs(fd - jac)) / max(1.0, np.max(np.abs(jac)))
        assert rel < 1e-4


def test_normal_equations_match_dense_oracle():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=26, symmetric=("obj_01",)
    )
    # Move one candidate far off-image: its target saturates completely.
    cands = list(obs.candidates)
    view_id, idx = objects[2].members[1]
    m = cands[idx].pose.matrix.copy()
    m[0, 3] += 50.0
    cands[idx] = Candidate(view_id, cands[idx].label, cands[idx].score,
                           Pose.from_matrix(m))
    obs = SceneObservations(views=obs.views, candidates=tuple(cands))
    cfg = RefineConfig()
    noisy = perturbed_state(state, np.random.default_rng(26))
    images = candidate_images(objects, obs, db, cfg)
    targets, _ = select_targets(noisy, images, cfg.truncation)
    layout = parameter_layout(noisy, objects)
    per_member = [
        targets.active[s:e].sum()
        for s, e in zip(images.bounds[:-1], images.bounds[1:])
    ]
    assert per_member.count(0) == 1  # the moved candidate only
    assert layout.gauge_view in images.view_ids
    assert len(discretize(db["obj_01"].symmetries)) > 1

    r, block = linearize(noisy, targets)
    h, g = normal_equations(r, block, targets, layout)
    d = oracles.dense_jacobian(block, targets, layout)
    ad = np.abs(d)
    assert np.all(np.abs(h - d.T @ d) <= 1e-9 * (ad.T @ ad))
    assert np.all(np.abs(g - d.T @ r) <= 1e-9 * (ad.T @ np.abs(r)))


def test_frozen_loss_agrees_with_selection_loss():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=2, seed=19, symmetric=("obj_01",)
    )
    assert all(db[o.label].points.shape[0] <= MAX_RESIDUAL_POINTS for o in objects)
    rng = np.random.default_rng(19)
    noisy = perturbed_state(state, rng)
    cfg = RefineConfig()
    images = candidate_images(objects, obs, db, cfg)
    targets, loss = select_targets(noisy, images, cfg.truncation)
    assert loss > 0
    assert loss == total_loss(noisy, objects, obs, db, cfg)
    assert frozen_loss(noisy, targets, cfg.truncation) == loss


# ----------------------------------------------------------------- refine


def test_zero_loss_input_returned_unchanged():
    db, scene, obs, objects, state = consistent_setup(n_objects=3, n_views=2, seed=20)
    trace = []
    out = refine(state, objects, obs, db, RefineConfig(), trace=trace)
    for k in state.camera_poses:
        assert np.max(np.abs(out.camera_poses[k].matrix
                             - state.camera_poses[k].matrix)) < 1e-12
    for k in state.object_poses:
        assert np.max(np.abs(out.object_poses[k].matrix
                             - state.object_poses[k].matrix)) < 1e-12
    assert trace[0] < 1e-9


def test_translation_offset_converges_fast():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=21)
    moved = dict(state.object_poses)
    m = moved[0].matrix.copy()
    m[:3, 3] += np.array([0.02, -0.01, 0.015])
    moved[0] = Pose.from_matrix(m)
    start = SceneState(camera_poses=state.camera_poses, object_poses=moved)
    trace = []
    out = refine(start, objects, obs, db, RefineConfig(), trace=trace)
    assert trace[-1] < 1e-6
    # near-linear residual: zero loss within three accepted steps
    assert trace[3] < 1e-6
    assert len(trace) <= 8
    assert np.max(np.abs(out.object_poses[0].translation
                         - state.object_poses[0].translation)) < 1e-4


def test_refine_trace_is_monotone_and_deterministic():
    db, scene = small_scene(5, 4, seed=22, symmetric=("obj_02",))
    noise = NoiseModel(rot_sigma_deg=3.0, trans_sigma=0.01)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(22))
    params = MatchParams(inlier_threshold=0.04)
    graph = build_match_graph(obs, db, params)
    objs = extract_physical_objects(graph)
    assert objs, "matching should recover objects on this seed"
    state0 = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(1))

    t1, t2 = [], []
    out1 = refine(state0, objs, obs, db, RefineConfig(), trace=t1)
    out2 = refine(state0, objs, obs, db, RefineConfig(), trace=t2)
    assert t1 == t2
    for k in out1.camera_poses:
        assert np.array_equal(out1.camera_poses[k].matrix,
                              out2.camera_poses[k].matrix)
    assert all(b <= a + 1e-15 for a, b in zip(t1, t1[1:]))
    assert t1[-1] < t1[0]


def object_gt_index(obj, obs, provenance):
    """Ground-truth object behind a physical object, by member provenance."""
    votes = [provenance[idx] for _, idx in obj.members if provenance[idx] >= 0]
    assert votes, "object built purely from outliers"
    return max(set(votes), key=votes.count)


def mean_member_adds(state, objs, obs, db, scene, provenance):
    view_index = {v.view_id: i for i, v in enumerate(scene.views)}
    errs = []
    for obj in objs:
        oi = object_gt_index(obj, obs, provenance)
        for view_id, _ in obj.members:
            vi = view_index[view_id]
            pred = state.camera_poses[view_id].inverse().compose(
                state.object_poses[obj.id]
            )
            errs.append(
                pose_error(db[obj.label], pred, scene.camera_frame_pose(vi, oi))
            )
    return float(np.mean(errs))


def mean_candidate_adds(objs, obs, db, scene, provenance):
    view_index = {v.view_id: i for i, v in enumerate(scene.views)}
    errs = []
    for obj in objs:
        oi = object_gt_index(obj, obs, provenance)
        for view_id, idx in obj.members:
            gt = scene.camera_frame_pose(view_index[view_id], oi)
            errs.append(pose_error(db[obj.label], obs.candidates[idx].pose, gt))
    return float(np.mean(errs))


def noisy_depth_scene(seed, n_views=4, n_objects=8, n_points=48):
    """Scene whose candidates carry the depth-heavy single-view error profile."""
    labels = [f"obj_{i:02d}" for i in range(n_objects)]
    db = make_models(labels, seed=7, n_points=n_points, symmetric=("obj_03",))
    cfg = ScenarioConfig(n_objects=n_objects, n_views=n_views,
                         model_labels=labels, seed=seed)
    scene = generate_scene(cfg, db)
    noise = NoiseModel(rot_sigma_deg=5.0, trans_sigma=0.01, depth_sigma_extra=0.08)
    obs, provenance = generate_observations(scene, noise, np.random.default_rng(seed))
    return db, scene, obs, provenance


def test_refinement_reduces_adds_on_noisy_scene():
    # Candidate depth errors dwarf lateral ones; cross-view consensus
    # recovers depth from other views' lateral information.
    db, scene, obs, provenance = noisy_depth_scene(seed=0)
    graph = build_match_graph(obs, db, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    assert objs
    state0 = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(0))
    state1 = refine(state0, objs, obs, db, RefineConfig())
    init = mean_member_adds(state0, objs, obs, db, scene, provenance)
    after = mean_member_adds(state1, objs, obs, db, scene, provenance)
    cand = mean_candidate_adds(objs, obs, db, scene, provenance)
    assert after < init
    assert after < cand


def test_refine_best_of_validates_and_is_deterministic():
    db, scene, obs, provenance = noisy_depth_scene(seed=2)
    graph = build_match_graph(obs, db, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    with pytest.raises(ValueError):
        refine_best_of(objs, graph.hypotheses, obs, db, RefineConfig(), n_starts=0)
    a, kept_a, init_a = refine_best_of(objs, graph.hypotheses, obs, db,
                                       RefineConfig(), n_starts=3)
    b, kept_b, init_b = refine_best_of(objs, graph.hypotheses, obs, db,
                                       RefineConfig(), n_starts=3)
    assert kept_a == kept_b
    for k in a.camera_poses:
        assert np.array_equal(a.camera_poses[k].matrix, b.camera_poses[k].matrix)
    for k in a.object_poses:
        assert np.array_equal(a.object_poses[k].matrix, b.object_poses[k].matrix)
    assert np.array_equal(init_a.camera_poses[sorted(init_a.camera_poses)[0]].matrix,
                          init_b.camera_poses[sorted(init_b.camera_poses)[0]].matrix)


def test_refine_best_of_never_worse_than_single_start():
    db, scene, obs, provenance = noisy_depth_scene(seed=5)
    graph = build_match_graph(obs, db, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    cfg = RefineConfig()
    single, kept, _ = refine_best_of(objs, graph.hypotheses, obs, db, cfg, n_starts=1)
    multi, kept_m, _ = refine_best_of(objs, graph.hypotheses, obs, db, cfg, n_starts=4)
    assert kept == kept_m
    loss_single = total_loss(single, kept, obs, db, cfg)
    loss_multi = total_loss(multi, kept_m, obs, db, cfg)
    assert loss_multi <= loss_single + 1e-12


def assert_same_state(a, b):
    assert a.camera_poses.keys() == b.camera_poses.keys()
    assert a.object_poses.keys() == b.object_poses.keys()
    for k in a.camera_poses:
        assert np.array_equal(a.camera_poses[k].matrix, b.camera_poses[k].matrix)
    for k in a.object_poses:
        assert np.array_equal(a.object_poses[k].matrix, b.object_poses[k].matrix)


@pytest.mark.parametrize("n_points", [48, MAX_RESIDUAL_POINTS + 20],
                         ids=["symmetric", "subsampled"])
def test_refine_best_of_shared_images_equal_per_restart_rebuild(monkeypatch, n_points):
    db, scene, obs, provenance = noisy_depth_scene(
        seed=6, n_views=3, n_objects=5, n_points=n_points
    )
    graph = build_match_graph(obs, db, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    cfg = RefineConfig()
    n_starts = 3

    # Reference: every restart's refine builds its own images, total_loss scores.
    rng = np.random.default_rng(cfg.seed)
    state0, kept = initialize_scene_with_pruning(objs, graph.hypotheses, obs, rng)
    assert any(o.label == "obj_03" for o in kept)
    want_states, want_losses = [], []
    for start in range(n_starts):
        if start > 0:
            state0 = initialize_scene(kept, graph.hypotheses, obs, rng)
        want_states.append(refine(state0, kept, obs, db, cfg))
        want_losses.append(total_loss(want_states[-1], kept, obs, db, cfg))

    real_images, real_refine = candidate_images, refine
    builds, got_states, total_loss_calls = [], [], []

    def counting_images(*args, **kwargs):
        builds.append(args[0])
        return real_images(*args, **kwargs)

    def recording_refine(*args, **kwargs):
        got_states.append(real_refine(*args, **kwargs))
        return got_states[-1]

    def recording_total_loss(*args, **kwargs):
        total_loss_calls.append(total_loss(*args, **kwargs))
        return total_loss_calls[-1]

    monkeypatch.setattr(cosy.refinement, "candidate_images", counting_images)
    monkeypatch.setattr(cosy.refinement, "refine", recording_refine)
    monkeypatch.setattr(cosy.refinement, "total_loss", recording_total_loss)
    best, got_kept, _ = refine_best_of(
        objs, graph.hypotheses, obs, db, cfg, n_starts=n_starts
    )
    assert got_kept == kept
    assert len(builds) == 1
    assert len(got_states) == n_starts
    for got, want in zip(got_states, want_states):
        assert_same_state(got, want)
    assert_same_state(best, want_states[int(np.argmin(want_losses))])
    if n_points > MAX_RESIDUAL_POINTS:
        assert total_loss_calls == want_losses
    else:
        assert total_loss_calls == []
        images = real_images(kept, obs, db, cfg)
        for got, loss in zip(got_states, want_losses):
            assert select_targets(got, images, cfg.truncation)[1] == loss


def test_refine_best_of_keeps_first_start_when_every_loss_is_nan(monkeypatch):
    db, scene, obs, provenance = noisy_depth_scene(seed=2, n_views=3, n_objects=4)
    graph = build_match_graph(obs, db, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    real_select = select_targets
    monkeypatch.setattr(cosy.refinement, "select_targets",
                        lambda *args: (real_select(*args)[0], math.nan))
    monkeypatch.setattr(cosy.refinement, "total_loss", lambda *a, **k: math.nan)
    state, kept, init = refine_best_of(objs, graph.hypotheses, obs, db,
                                       RefineConfig(), n_starts=2)
    assert kept
    # A NaN loss accepts no step, so the first start comes back unchanged.
    assert_same_state(state, init)


def test_refine_best_of_empty_objects():
    db, scene, obs, provenance = noisy_depth_scene(seed=3)
    state, kept, init = refine_best_of([], {}, obs, db, RefineConfig())
    assert kept == []
    assert state.camera_poses == {} and state.object_poses == {}


# ------------------------------------------------------------------ output


def test_express_identity_camera_returns_world_pose():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=24)
    world = SceneState(
        camera_poses={"view_000": Pose.identity(),
                      "view_001": state.camera_poses["view_001"]},
        object_poses=state.object_poses,
    )
    records = express_in_camera_frames(world, objects, obs)
    rec = next(
        r for r in records if r.view_id == "view_000" and r.object_id == 0
    )
    assert np.array_equal(rec.pose.matrix, world.object_poses[0].matrix)


def test_express_round_trip_and_scores():
    db, scene, obs, objects, state = consistent_setup(n_objects=3, n_views=3, seed=25)
    records = express_in_camera_frames(state, objects, obs)
    assert len(records) == 3 * 3
    for rec in records:
        lifted = state.camera_poses[rec.view_id].compose(rec.pose)
        assert np.max(np.abs(lifted.matrix
                             - state.object_poses[rec.object_id].matrix)) < 1e-12
        members = objects[rec.object_id].members
        want = sum(obs.candidates[i].score for _, i in members)
        assert abs(rec.score - want) < 1e-12
