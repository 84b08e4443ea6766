"""Tests for scene initialization and bundle-adjustment refinement."""

import math

import numpy as np
import pytest

import cosy.refinement
import oracles
from cosy.evaluation import pose_error
from cosy.geometry import DEFAULT_Z_MIN, Pose, retract_matrices
from cosy.matching import MatchParams, PhysicalObject, build_match_graph, \
    extract_physical_objects, label_geometry
from cosy.refinement import (
    MAX_RESIDUAL_POINTS,
    RefineConfig,
    SceneState,
    _residual_index,
    candidate_images,
    express_in_camera_frames,
    frozen_loss,
    initialize_scene,
    linearize,
    normal_equations,
    pose_stack,
    refine,
    refine_best_of,
    select_targets,
    total_loss,
)
from cosy.scene_io import Candidate, ModelDB, ObjectModel, SceneObservations, View
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
    with pytest.raises(ValueError, match="damping_factor must be > 1"):
        RefineConfig(damping_factor=1.0)
    # A ladder that starts above its ceiling would never run.
    RefineConfig(damping_init=1e12)
    for damping in (1e13, float("inf")):
        with pytest.raises(ValueError, match="damping_init must be <="):
            RefineConfig(damping_init=damping)
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


def test_residual_index_subsample_is_deterministic():
    rng = np.random.default_rng(0)
    pts = rng.normal(0, 0.05, (800, 3))
    model = ObjectModel(
        label="big", points=pts, diameter=1.0, symmetries=SymmetrySpec()
    )
    sub1 = _residual_index(model)
    sub2 = _residual_index(model)
    assert sub1.shape == (500,)
    assert np.array_equal(sub1, sub2)
    small = ObjectModel(
        label="small", points=pts[:40], diameter=1.0,
        symmetries=SymmetrySpec(),
    )
    assert _residual_index(small) is None


# ------------------------------------------------------------ initialization


def test_initialize_empty_objects():
    state, kept = initialize_scene([], {}, None, np.random.default_rng(0))
    assert state.camera_poses == {} and state.object_poses == {}
    assert kept == []


def test_initialize_two_views_zero_noise_is_zero_loss():
    db, scene, obs, objects, _ = consistent_setup(n_objects=4, n_views=2, seed=5)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    state, _ = initialize_scene(
        extract_physical_objects(graph), graph.hypotheses, obs,
        np.random.default_rng(0),
    )
    objs = extract_physical_objects(graph)
    assert total_loss(state, objs, obs, geo) < 1e-6


def test_initialize_chains_relative_poses():
    db, scene, obs, objects, _ = consistent_setup(n_objects=4, n_views=3, seed=9)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    objs = extract_physical_objects(graph)
    # force a known chain: keep only A-B and B-C hypotheses
    keys = sorted(graph.hypotheses)
    chain = {keys[0]: graph.hypotheses[keys[0]], keys[2]: graph.hypotheses[keys[2]]}
    assert [k for k in sorted(chain)] == [
        ("view_000", "view_001"), ("view_001", "view_002")
    ]
    state, _ = initialize_scene(objs, chain, obs, np.random.default_rng(3))
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
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    objs = extract_physical_objects(graph)
    state, _ = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(1))
    for obj in objs:
        t_world = state.object_poses[obj.id]
        lifts = [
            state.camera_poses[v].compose(obs.candidates[i].pose).matrix
            for v, i in obj.members
        ]
        assert any(np.max(np.abs(t_world.matrix - m)) < 1e-9 for m in lifts)


def test_disconnected_views_raise_and_prune():
    # Only view_000-view_001 is matched. The views the raising oracle reports
    # unreachable from a root draw are the ones initialize_scene prunes.
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=3, seed=4)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    objs = extract_physical_objects(graph)
    only = {("view_000", "view_001"): graph.hypotheses[("view_000", "view_001")]}
    # seed 1 draws its root inside the connected {000, 001} component
    with pytest.raises(oracles.DisconnectedViews) as exc:
        oracles.initialize_scene_raising(objs, only, obs, np.random.default_rng(1))
    assert exc.value.views == ("view_002",)
    state, kept = initialize_scene(objs, only, obs, np.random.default_rng(1))
    assert "view_002" not in state.camera_poses
    assert kept and all(
        all(v != "view_002" for v, _ in o.members) and len(o.members) >= 2
        for o in kept
    )
    # seed 0 draws view_002 itself: the other two views become unreachable,
    # every object keeps one member, and the scene prunes to empty
    with pytest.raises(oracles.DisconnectedViews) as exc2:
        oracles.initialize_scene_raising(objs, only, obs, np.random.default_rng(0))
    assert exc2.value.views == ("view_000", "view_001")
    state, kept = initialize_scene(objs, only, obs, np.random.default_rng(0))
    assert kept == []
    assert state.camera_poses == {} and state.object_poses == {}


def test_initialize_with_pruning_recovers():
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=3, seed=4)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    objs = extract_physical_objects(graph)
    only = {("view_000", "view_001"): graph.hypotheses[("view_000", "view_001")]}
    state, kept = initialize_scene(objs, only, obs, np.random.default_rng(1))
    assert set(state.camera_poses) == {"view_000", "view_001"}
    assert kept and all(len(o.members) == 2 for o in kept)
    assert set(state.object_poses) == {o.id for o in kept}
    state.require_views(kept)


def test_initialize_prunes_unreachable_views_like_raise_and_retry():
    # Only view_000-view_001 is matched, so a root drawn there drops every
    # member in view_002, and one drawn at view_002 leaves each object one
    # member: the scene prunes to empty. The pruning loop must match the
    # raise/prune/retry oracle draw for draw, on both branches.
    db, scene, obs, objects, _ = consistent_setup(n_objects=3, n_views=3, seed=4)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo)
    objs = extract_physical_objects(graph)
    only = {("view_000", "view_001"): graph.hypotheses[("view_000", "view_001")]}
    kept_sizes = []
    for hypotheses in (only, graph.hypotheses):
        for seed in range(8):
            rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            state, kept = initialize_scene(objs, hypotheses, obs, rng)
            want, want_kept = oracles.initialize_scene_with_pruning(
                objs, hypotheses, obs, want_rng
            )
            assert kept == want_kept
            assert rng.bit_generator.state == want_rng.bit_generator.state
            for got_poses, want_poses in (
                (state.camera_poses, want.camera_poses),
                (state.object_poses, want.object_poses),
            ):
                assert list(got_poses) == list(want_poses)
                for k, pose in got_poses.items():
                    assert np.array_equal(pose.matrix, want_poses[k].matrix)
            state.require_views(kept)
            if hypotheses is graph.hypotheses:
                assert kept == objs
                continue
            kept_sizes.append(len(kept))
            if kept:
                assert set(state.camera_poses) == {"view_000", "view_001"}
                assert all(len(o.members) == 2 for o in kept)
    # seed 0 draws view_002 and prunes to empty; seed 1 keeps every object
    assert kept_sizes[:2] == [0, len(objs)]


# --------------------------------------------------------------------- loss


def test_total_loss_zero_when_consistent():
    db, scene, obs, objects, state = consistent_setup(seed=11)
    geo = label_geometry(db, db.models)
    assert total_loss(state, objects, obs, geo) < 1e-9


def test_total_loss_absorbs_symmetry():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=2, seed=12, symmetric=("obj_01",)
    )
    geo = label_geometry(db, db.models)
    group = discretize(db["obj_01"].symmetries)
    _, idx = objects[1].members[0]
    base = obs.candidates[idx]
    for s in (group.matrices[1], group.matrices[17]):
        candidates = list(obs.candidates)
        candidates[idx] = Candidate(
            base.view_id, base.label, base.score, base.pose.compose(Pose(s))
        )
        twisted = SceneObservations(views=obs.views, candidates=candidates)
        assert total_loss(state, objects, twisted, geo) < 1e-9


def test_total_loss_saturates_off_image():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=13)
    geo = label_geometry(db, db.models)
    moved = dict(state.object_poses)
    m = moved[0].matrix.copy()
    m[0, 3] += 50.0  # far outside every frustum
    moved[0] = Pose.from_matrix(m)
    state2 = SceneState(camera_poses=state.camera_poses, object_poses=moved)
    loss = total_loss(state2, objects[:1], obs, geo, RefineConfig(truncation=25.0))
    assert loss == 25.0 * len(objects[0].members)


def test_total_loss_matches_naive_resummation():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=15, symmetric=("obj_00",)
    )
    geo = label_geometry(db, db.models)
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
    got = total_loss(noisy, objects, obs, geo, cfg)

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
            for s in groups[obj.label].matrices:
                tot = 0.0
                for p in pts:
                    sp = oracles.transform_point(s, p)
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
    geo = label_geometry(db, db.models)
    rng = np.random.default_rng(16)
    cams = {
        k: Pose.from_matrix(oracles.random_pose_nudge(v.matrix, rng, 0.05, 0.03))
        for k, v in state.camera_poses.items()
    }
    noisy = SceneState(camera_poses=cams, object_poses=state.object_poses)
    base = total_loss(noisy, objects, obs, geo)
    assert base > 0
    for _ in range(5):
        g = Pose.from_matrix(oracles.random_pose_matrix(rng))
        moved = SceneState(
            camera_poses={k: g.compose(v) for k, v in noisy.camera_poses.items()},
            object_poses={k: g.compose(v) for k, v in noisy.object_poses.items()},
        )
        assert abs(total_loss(moved, objects, obs, geo) - base) < 1e-9 * base


# ------------------------------------------------------------ linearization


def step(poses, delta):
    """refine's damping trial: rows 1: retracted, the gauge row kept."""
    trial = poses.copy()
    trial[1:] = retract_matrices(poses[1:], delta)
    return trial


def test_zero_step_is_identity():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=17)
    images = candidate_images(objects, obs, label_geometry(db, db.models))
    poses = pose_stack(state, images)
    size = 6 * (len(poses) - 1)
    assert size == 6 * (1 + 2)  # one camera is the gauge
    trial = step(poses, np.zeros(size))
    assert np.array_equal(trial[0], poses[0])
    same = cosy.refinement._with_poses(state, images, trial)
    for k in state.camera_poses:
        assert np.array_equal(same.camera_poses[k].matrix,
                              state.camera_poses[k].matrix)
    for k in state.object_poses:
        assert np.array_equal(same.object_poses[k].matrix,
                              state.object_poses[k].matrix)


def test_stack_step_matches_per_pose_retract_oracle():
    db, scene, obs, objects, state = consistent_setup(n_objects=4, n_views=3, seed=27)
    images = candidate_images(objects, obs, label_geometry(db, db.models))
    poses = pose_stack(state, images)
    gauge, *camera_ids = images.cameras
    n_blocks = len(poses) - 1
    n_cams = len(camera_ids)
    rng = np.random.default_rng(27)
    # Zero, sub-1e-12, near-pi and beyond-2pi increments land in every block.
    rots = oracles.hard_rotation_increments(rng, 12 * n_blocks)
    rots = rots[rng.permutation(len(rots))]
    for rows in np.split(rots, 12):
        blocks = np.concatenate([rows, rng.normal(size=rows.shape) * 0.1], axis=1)
        trial = step(poses, blocks.ravel())
        assert np.array_equal(trial[0], poses[0])
        moved = cosy.refinement._with_poses(state, images, trial)
        for k, vid in enumerate(camera_ids):
            want = oracles.retract_matrix(state.camera_poses[vid].matrix, blocks[k])
            assert np.array_equal(moved.camera_poses[vid].matrix, want)
        for k, oid in enumerate(images.objects):
            want = oracles.retract_matrix(
                state.object_poses[oid].matrix, blocks[n_cams + k]
            )
            assert np.array_equal(moved.object_poses[oid].matrix, want)
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
    geo = label_geometry(db, db.models)
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    rng = np.random.default_rng(18)
    for trial in range(3):
        noisy = pose_stack(perturbed_state(state, rng, rot=0.01, trans=0.005), images)
        targets, _ = select_targets(noisy, images, cfg.truncation)
        assert targets.active.all()  # nothing truncated
        r0, block = linearize(targets)
        jac = oracles.dense_jacobian(block, targets)
        assert np.max(np.abs(r0 - oracles.residual_vector(noisy, targets))) < 1e-9

        h = 1e-6
        fd = np.zeros_like(jac)
        for k in range(jac.shape[1]):
            e = np.zeros(jac.shape[1])
            e[k] = h
            rp = oracles.residual_vector(step(noisy, e), targets)
            rm = oracles.residual_vector(step(noisy, -e), targets)
            fd[:, k] = (rp - rm) / (2 * h)
        rel = np.max(np.abs(fd - jac)) / max(1.0, np.max(np.abs(jac)))
        assert rel < 1e-4


def test_normal_equations_match_dense_oracle():
    db, objects, state, images = off_image_setup(26)
    cfg = RefineConfig()
    noisy = pose_stack(perturbed_state(state, np.random.default_rng(26)), images)
    targets, _ = select_targets(noisy, images, cfg.truncation)
    per_member = [
        targets.active[s:e].sum()
        for s, e in zip(images.bounds[:-1], images.bounds[1:])
    ]
    assert per_member.count(0) == 1  # the moved candidate only
    assert images.cameras[0] in images.view_ids
    assert len(discretize(db["obj_01"].symmetries)) > 1

    r, block = linearize(targets)
    h, g, _ = normal_equations(r, block, targets)
    d = oracles.dense_jacobian(block, targets)
    ad = np.abs(d)
    assert np.all(np.abs(h - d.T @ d) <= 1e-9 * (ad.T @ ad))
    assert np.all(np.abs(g - d.T @ r) <= 1e-9 * (ad.T @ np.abs(r)))


def off_image_setup(seed):
    """consistent_setup with a symmetric label, one candidate moved far
    off-image (its target saturates completely), and its candidate images."""
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=seed, symmetric=("obj_01",)
    )
    geo = label_geometry(db, db.models)
    cands = list(obs.candidates)
    view_id, idx = objects[2].members[1]
    m = cands[idx].pose.matrix.copy()
    m[0, 3] += 50.0
    cands[idx] = Candidate(view_id, cands[idx].label, cands[idx].score,
                           Pose.from_matrix(m))
    obs = SceneObservations(views=obs.views, candidates=tuple(cands))
    return db, objects, state, candidate_images(objects, obs, geo)


@pytest.mark.parametrize("off_image", [False, True], ids=["all-active", "off-image"])
def test_loss_gradient_matches_central_differences(off_image):
    # The gradient of the loss refine accepts on equals central differences
    # of frozen_loss along random directions, in states where no point
    # crosses the truncation within the difference step.
    seed = 26 if off_image else 18
    if off_image:
        db, objects, state, images = off_image_setup(seed)
    else:
        db, scene, obs, objects, state = consistent_setup(
            n_objects=3, n_views=3, seed=seed, symmetric=("obj_01",)
        )
        images = candidate_images(objects, obs, label_geometry(db, db.models))
    cfg = RefineConfig()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        noisy = pose_stack(perturbed_state(state, rng, rot=0.01, trans=0.005), images)
        targets, loss = select_targets(noisy, images, cfg.truncation)
        assert targets.active.all() != off_image
        r, e = linearize(targets)
        grad = normal_equations(r, e, targets)[2]
        want = oracles.loss_gradient(r, e, targets)
        assert np.allclose(grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert frozen_loss(noisy, targets, cfg.truncation)[0] == loss
        h = 1e-6
        for _ in range(4):
            d = rng.normal(size=grad.size)
            sides = []
            for sign in (1.0, -1.0):
                at = step(noisy, sign * h * d)
                side, ev = frozen_loss(at, targets, cfg.truncation)
                active = ev.both & (ev.err < cfg.truncation)
                assert np.array_equal(active, targets.active)
                sides.append(side)
            fd = (sides[0] - sides[1]) / (2 * h)
            assert abs(fd - grad @ d) <= 1e-4 * abs(fd)


def test_frozen_loss_agrees_with_selection_loss():
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=2, seed=19, symmetric=("obj_01",)
    )
    geo = label_geometry(db, db.models)
    assert all(db[o.label].points.shape[0] <= MAX_RESIDUAL_POINTS for o in objects)
    rng = np.random.default_rng(19)
    noisy = perturbed_state(state, rng)
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    poses = pose_stack(noisy, images)
    targets, loss = select_targets(poses, images, cfg.truncation)
    assert loss > 0
    assert loss == total_loss(noisy, objects, obs, geo, cfg)
    assert frozen_loss(poses, targets, cfg.truncation)[0] == loss


# ---------------------------------------- flat inner loop vs per-member oracle


def mixed_db(seed=31):
    """A G = 64 symmetric label, unique labels of 40 and 250 points, and a
    520-point model whose residual points are a subsample. The 40-point
    model's first point is (0.01, 0, 0)."""
    models = {}
    for label, n in (("sym", 48), ("u040", 40), ("u250", 250), ("u520", 520)):
        sym = (label,) if label == "sym" else ()
        models.update(make_models([label], seed=seed, n_points=n, symmetric=sym).models)
    m = models["u040"]
    pts = m.points.copy()
    pts[0] = [0.01, 0.0, 0.0]
    models["u040"] = ObjectModel(label="u040", points=pts, diameter=m.diameter * 1.5,
                                 symmetries=m.symmetries)
    return ModelDB(models=models)


def mixed_setup(nan_member=False):
    """Exact candidates of a six-object, three-view mixed scene, and a noisy
    state in which a symmetric member is off-image (its 64 losses tie at the
    truncation), a point of object 1 lies exactly at DEFAULT_Z_MIN in
    view_000 (other points of it behind), and optionally a symmetric
    member's candidate has a NaN row (its 64 losses are NaN)."""
    db = mixed_db()
    labels = ("sym", "u040", "u250", "u520")
    scene = generate_scene(ScenarioConfig(n_objects=6, n_views=3, model_labels=labels,
                                          seed=31), db)
    obs = manual_observations(scene)
    objects = [
        PhysicalObject(id=oi, label=scene.object_labels[oi],
                       members=tuple((scene.views[vi].view_id, vi * 6 + oi)
                                     for vi in range(3)))
        for oi in range(6)
    ]
    cands = list(obs.candidates)
    off_view, off_idx = objects[4].members[1]
    m = cands[off_idx].pose.matrix.copy()
    m[0, 3] += 50.0  # far off-image: this member saturates completely
    cands[off_idx] = Candidate(off_view, cands[off_idx].label, 0.9, Pose.from_matrix(m))
    if nan_member:
        nan_view, nan_idx = objects[0].members[2]
        m = cands[nan_idx].pose.matrix.copy()
        m[0, :3] = np.nan
        cands[nan_idx] = Candidate(nan_view, cands[nan_idx].label, 0.9, Pose(m))
    obs = SceneObservations(views=obs.views, candidates=tuple(cands))

    truth = SceneState(
        camera_poses={v.view_id: scene.camera_poses[vi]
                      for vi, v in enumerate(scene.views)},
        object_poses={oi: scene.object_poses[oi] for oi in range(6)},
    )
    noisy = perturbed_state(truth, np.random.default_rng(31))
    # World frame := view_000's camera; object 1's frame sits on its z axis.
    to_cam0 = noisy.camera_poses["view_000"].inverse()
    cams = {k: to_cam0.compose(v) for k, v in noisy.camera_poses.items()}
    cams["view_000"] = Pose.identity()
    obj_poses = {k: to_cam0.compose(v) for k, v in noisy.object_poses.items()}
    obj_poses[1] = Pose.from_rt(np.eye(3), [0.0, 0.0, DEFAULT_Z_MIN])
    geo = label_geometry(db, db.models)
    return geo, obs, objects, SceneState(camera_poses=cams, object_poses=obj_poses)


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("nan_member", [False, True], ids=["finite", "nan-member"])
def test_flat_inner_loop_equals_per_member_oracle(nan_member):
    geo, obs, objects, state = mixed_setup(nan_member)
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    shapes = sorted((st.px.shape[1], st.px.shape[2], len(st.members))
                    for st in images.stacks)
    assert shapes == [(1, 40, 6), (1, 250, 3), (1, 500, 3), (64, 48, 6)]

    poses = pose_stack(state, images)
    u, pred_px, pred_valid = oracles.project_points(
        poses, oracles.per_member_view(images))
    got = cosy.refinement._evaluate(
        poses, images, images.fixed_px, images.fixed_valid, cfg.truncation)
    assert np.array_equal(got.cam_points, u.T) and np.array_equal(got.px, pred_px)
    assert np.array_equal(got.valid, pred_valid)

    targets, loss = select_targets(poses, images, cfg.truncation)
    want, want_loss = oracles.select_targets(poses, images, cfg.truncation)
    assert targets.at.poses is poses
    assert np.array_equal(targets.at.cam_points, u.T)
    assert np.array_equal(targets.at.px, pred_px)
    assert same_float(loss, want_loss)
    assert math.isnan(loss) == nan_member
    assert np.array_equal(targets.px, want.px, equal_nan=True)
    assert np.array_equal(targets.valid, want.valid)
    assert np.array_equal(targets.active, want.active)
    z = targets.at.cam_points[2]
    assert (z == DEFAULT_Z_MIN).any() and (z < 0).any()
    assert 0 < targets.active.sum() < targets.active.size
    # Object 1's three members (moved onto view_000's camera plane), the
    # off-image member, and the NaN member carry no active point.
    assert (targets.active_counts == 0).sum() == 4 + nan_member

    r, e = linearize(targets)
    want_r, want_e = oracles.linearize(want)
    assert np.array_equal(r, want_r) and np.array_equal(e, want_e)
    assert e.flags.c_contiguous and e.shape == (r.size, 6)
    h, g, _ = normal_equations(r, e, targets)
    want_h, want_g, _ = oracles.normal_equations(want_r, want_e, want)
    assert np.array_equal(h, want_h) and np.array_equal(g, want_g)

    rng = np.random.default_rng(32)
    moved = step(poses, rng.normal(size=6 * (len(poses) - 1)) * 1e-3)
    for trial in (poses, moved):
        assert same_float(frozen_loss(trial, targets, cfg.truncation)[0],
                          oracles.frozen_loss(trial, want, cfg.truncation)[0])
    if not nan_member:
        assert frozen_loss(poses, targets, cfg.truncation)[0] == loss


def test_fixed_images_are_each_members_first_element():
    # Each stack writes its members' element-0 images into the flat arrays
    # at its rows; together they equal the member-order concatenation.
    geo, obs, objects, state = mixed_setup()
    images = candidate_images(objects, obs, geo)
    view = oracles.per_member_view(images)
    # Four stacks, two of which skip members of another stack.
    assert len(images.stacks) == 4
    assert sum((np.diff(st.members) > 1).any() for st in images.stacks) == 2
    assert np.array_equal(images.fixed_px, np.concatenate([p[0] for p in view.images]))
    assert np.array_equal(images.fixed_valid,
                          np.concatenate([v[0] for v in view.image_valid]))
    assert not images.fixed_px.flags.writeable
    assert not images.fixed_valid.flags.writeable


@pytest.mark.parametrize("chunk", [1, 10 ** 9], ids=["member-each", "whole-stack"])
def test_select_targets_member_chunks_equal_oracle(monkeypatch, chunk):
    # Stacks are scored in member chunks (two members of the G = 64 stack at
    # the default size); the chunk size changes no bit of the selection.
    geo, obs, objects, state = mixed_setup()
    monkeypatch.setattr(cosy.refinement, "_PAIRWISE_CHUNK", chunk)
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    poses = pose_stack(state, images)
    targets, loss = select_targets(poses, images, cfg.truncation)
    want, want_loss = oracles.select_targets(poses, images, cfg.truncation)
    assert loss == want_loss
    assert np.array_equal(targets.px, want.px)
    assert np.array_equal(targets.valid, want.valid)
    assert np.array_equal(targets.active, want.active)


def test_selection_from_an_evaluation_equals_full_scoring():
    # A chain of trials over G = 1 and G = 64 stacks, each selection started
    # from frozen_loss at the trial against the previous selection: tiny
    # steps, larger ones that change symmetric choices, object 0's member in
    # view_000 lifted across the camera plane and back so that a predicted
    # point there changes validity, then a zero step. Every selection equals
    # a fresh one and the per-member oracle bit for bit.
    geo, obs, objects, state = mixed_setup()
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    poses = pose_stack(state, images)
    targets, _ = select_targets(poses, images, cfg.truncation)
    n_cam = len(images.cameras)
    member0 = slice(images.bounds[0], images.bounds[1])  # object 0 in view_000
    assert images.view_ids[0] == images.cameras[0] == "view_000"
    symmetric = images.stacks[0]
    assert symmetric.px.shape[1] == 64 and symmetric.members[0] == 0

    def to_plane(p, height):
        # view_000 is the world frame: lift object 0's nearest point to
        # DEFAULT_Z_MIN + height.
        z = cosy.refinement._evaluate(
            p, images, images.fixed_px, images.fixed_valid, cfg.truncation
        ).cam_points[2, member0]
        out = p.copy()
        out[n_cam, 2, 3] += DEFAULT_Z_MIN + height - z.min()
        return out

    rng = np.random.default_rng(36)
    size = 6 * (len(poses) - 1)
    trials = [step(poses, rng.normal(size=size) * scale)
              for scale in (1e-9, 1e-7, 1e-4, 1e-3, 1e-2, 3e-2, 1e-1)]
    trials.append(to_plane(trials[-1], 1e-4))
    trials.append(to_plane(trials[-1], -1e-4))
    trials.append(step(trials[-1], np.zeros(size)))
    choices_changed, validity = 0, []
    for trial in trials:
        _, evaluation = frozen_loss(trial, targets, cfg.truncation)
        got, loss = select_targets(trial, images, cfg.truncation, evaluation)
        full, full_loss = select_targets(trial, images, cfg.truncation)
        want, want_loss = oracles.select_targets(trial, images, cfg.truncation)
        assert loss == full_loss == want_loss
        # Each selection keeps the evaluation it started from, at its poses.
        assert got.at is evaluation and full.at.poses is trial
        for name in ("px", "valid", "active", "active_counts"):
            assert np.array_equal(getattr(got, name), getattr(full, name))
        for name in ("px", "valid", "active"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.active_counts, np.add.reduceat(
            want.active, images.bounds[:-1], dtype=np.intp))
        # A symmetric member whose target image changed changed its element.
        rows = symmetric.rows.ravel()
        choices_changed += not (
            np.array_equal(got.px[rows], targets.px[rows])
            and np.array_equal(got.valid[rows], targets.valid[rows]))
        validity.append(evaluation.valid[member0])
        targets = got
    assert choices_changed >= 1
    # The camera-plane trials change the validity of a predicted point.
    assert any(not np.array_equal(v, validity[0]) for v in validity)


def test_stacked_normal_equations_equal_per_member_loop():
    # Equal active counts take one stacked matmul; unequal ones the loop.
    # Both equal the oracle's per-member loop bit for bit.
    cfg = RefineConfig()
    db, _, obs, objects, state = consistent_setup(n_objects=4, n_views=3, seed=26,
                                                  symmetric=("obj_01",))
    noisy = perturbed_state(state, np.random.default_rng(26), rot=0.002, trans=0.001)
    setups = [(label_geometry(db, db.models), obs, objects, noisy), mixed_setup()]
    shapes = []
    for geo, obs, objects, state in setups:
        images = candidate_images(objects, obs, geo)
        poses = pose_stack(state, images)
        targets, _ = select_targets(poses, images, cfg.truncation)
        want, _ = oracles.select_targets(poses, images, cfg.truncation)
        counts = targets.active_counts[targets.active_counts > 0]
        shapes.append(len(set(counts.tolist())))
        r, e = linearize(targets)
        want_r, want_e = oracles.linearize(want)
        h, g, grad = normal_equations(r, e, targets)
        want_h, want_g, want_grad = oracles.normal_equations(want_r, want_e, want)
        assert np.array_equal(h, want_h) and np.array_equal(g, want_g)
        # The oracle's gradient sums point by point in Python floats, the
        # library's by one BLAS product per member, so they agree to rounding.
        assert np.allclose(grad, want_grad, rtol=0,
                           atol=1e-14 * np.abs(want_grad).max())
    assert shapes[0] == 1 and shapes[1] > 1


def test_member_poses_stack_each_pose_once_and_equal_oracle():
    geo, obs, objects, state = mixed_setup()
    images = candidate_images(objects, obs, geo)
    assert images.cameras == tuple(sorted(set(images.view_ids)))
    assert images.objects == tuple(sorted(set(images.object_ids)))
    assert len(images.cameras) == 3 and len(images.objects) == 6
    assert len(images.view_ids) == 18
    assert [images.cameras[r] for r in images.camera_rows] == list(images.view_ids)
    assert [images.objects[r] for r in images.object_rows] == list(images.object_ids)
    poses = pose_stack(state, images)
    got = cosy.refinement._member_poses(poses, images)
    assert np.array_equal(got, oracles.member_poses(poses, images))


def test_linearize_projects_nothing(monkeypatch):
    geo, obs, objects, state = mixed_setup()
    cfg = RefineConfig()
    images = candidate_images(objects, obs, geo)
    projections = []
    real = cosy.refinement.project_masked_xyz

    def counting(*args, **kwargs):
        projections.append(1)
        return real(*args, **kwargs)

    poses = pose_stack(state, images)
    monkeypatch.setattr(cosy.refinement, "project_masked_xyz", counting)
    targets, _ = select_targets(poses, images, cfg.truncation)
    assert len(projections) == 1
    r, _ = linearize(targets)
    assert len(projections) == 1
    assert np.array_equal(oracles.residual_vector(poses, targets), r)
    assert len(projections) == 2


def mixed_match():
    """Label geometry, observations, match graph and objects of a noisy
    scene over mixed_db's four labels, each of which is matched."""
    db = mixed_db()
    geo = label_geometry(db, db.models)
    labels = ("sym", "u040", "u250", "u520")
    scene = generate_scene(ScenarioConfig(n_objects=6, n_views=3, seed=33,
                                          model_labels=labels), db)
    noise = NoiseModel(rot_sigma_deg=3.0, trans_sigma=0.01, depth_sigma_extra=0.05)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(33))
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    assert {o.label for o in objs} == set(labels)
    return geo, obs, graph, objs


def test_refine_best_of_equals_per_member_oracle_loop(monkeypatch):
    geo, obs, graph, objs = mixed_match()
    cfg = RefineConfig()
    got, kept, _, _ = refine_best_of(objs, graph.hypotheses, obs, geo, cfg, n_starts=3)
    for name in ("select_targets", "linearize", "frozen_loss", "normal_equations"):
        monkeypatch.setattr(cosy.refinement, name, getattr(oracles, name))
    want, want_kept, _, _ = refine_best_of(objs, graph.hypotheses, obs, geo, cfg,
                                           n_starts=3)
    monkeypatch.undo()
    assert kept == want_kept
    assert_same_state(got, want)
    images = candidate_images(kept, obs, geo)
    loss = select_targets(pose_stack(got, images), images, cfg.truncation)[1]
    want_poses = pose_stack(want, images)
    assert loss == oracles.select_targets(want_poses, images, cfg.truncation)[1]
    assert total_loss(got, kept, obs, geo, cfg) == total_loss(want, kept, obs, geo, cfg)


def test_refine_best_of_linearizes_into_one_workspace(monkeypatch):
    # Every iteration of every restart writes E into the one Workspace of
    # the solve, as exactly the rows of its active points: a Jacobian
    # allocated per iteration would show up here.
    geo, obs, graph, objs = mixed_match()
    real_refine, real_linearize = refine, linearize
    starts, calls = [], []

    def recording_refine(*args, **kwargs):
        starts.append(len(calls))
        return real_refine(*args, **kwargs)

    def recording_linearize(targets):
        r, e = real_linearize(targets)
        calls.append((targets.images.workspace, int(targets.active.sum()), r, e))
        return r, e

    monkeypatch.setattr(cosy.refinement, "refine", recording_refine)
    monkeypatch.setattr(cosy.refinement, "linearize", recording_linearize)
    refine_best_of(objs, graph.hypotheses, obs, geo, RefineConfig(), n_starts=3)
    assert len(starts) == 3
    assert all(a < b for a, b in zip(starts, starts[1:] + [len(calls)]))
    workspace = calls[0][0]
    n_points = workspace.jacobian.size // 12
    for ws, n_active, r, e in calls:
        assert ws is workspace
        assert np.shares_memory(e, workspace.jacobian)
        assert e.shape == (2 * n_active, 6) and r.shape == (2 * n_active,)
    # Both of linearize's paths ran: all points active, and some dropped.
    assert {n == n_points for _, n, _, _ in calls} == {True, False}


# ----------------------------------------------------------------- refine


def test_zero_loss_input_returned_unchanged():
    db, scene, obs, objects, state = consistent_setup(n_objects=3, n_views=2, seed=20)
    geo = label_geometry(db, db.models)
    trace = []
    out = refine(state, objects, obs, geo, RefineConfig(), trace=trace)
    for k in state.camera_poses:
        assert np.max(np.abs(out.camera_poses[k].matrix
                             - state.camera_poses[k].matrix)) < 1e-12
    for k in state.object_poses:
        assert np.max(np.abs(out.object_poses[k].matrix
                             - state.object_poses[k].matrix)) < 1e-12
    assert trace[0] < 1e-9


def test_translation_offset_converges_fast():
    db, scene, obs, objects, state = consistent_setup(n_objects=2, n_views=2, seed=21)
    geo = label_geometry(db, db.models)
    moved = dict(state.object_poses)
    m = moved[0].matrix.copy()
    m[:3, 3] += np.array([0.02, -0.01, 0.015])
    moved[0] = Pose.from_matrix(m)
    start = SceneState(camera_poses=state.camera_poses, object_poses=moved)
    trace = []
    out = refine(start, objects, obs, geo, RefineConfig(), trace=trace)
    assert trace[-1] < 1e-6
    # near-linear residual: zero loss within three accepted steps
    assert trace[3] < 1e-6
    assert len(trace) <= 8
    assert np.max(np.abs(out.object_poses[0].translation
                         - state.object_poses[0].translation)) < 1e-4


def test_refine_trace_is_monotone_and_deterministic():
    db, scene = small_scene(5, 4, seed=22, symmetric=("obj_02",))
    geo = label_geometry(db, db.models)
    noise = NoiseModel(rot_sigma_deg=3.0, trans_sigma=0.01)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(22))
    params = MatchParams(inlier_threshold=0.04)
    graph = build_match_graph(obs, geo, params)
    objs = extract_physical_objects(graph)
    assert objs, "matching should recover objects on this seed"
    state0, _ = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(1))

    t1, t2 = [], []
    out1 = refine(state0, objs, obs, geo, RefineConfig(), trace=t1)
    out2 = refine(state0, objs, obs, geo, RefineConfig(), trace=t2)
    assert t1 == t2
    for k in out1.camera_poses:
        assert np.array_equal(out1.camera_poses[k].matrix,
                              out2.camera_poses[k].matrix)
    assert all(b <= a + 1e-15 for a, b in zip(t1, t1[1:]))
    assert t1[-1] < t1[0]


# ------------------------------------------- stacked descent vs SceneState loop


def lm_setup(seed, symmetric=(), n_points=48, n_objects=5, n_views=3):
    """A noisy scene's label geometry, kept objects and first initialization."""
    labels = [f"obj_{i:02d}" for i in range(n_objects)]
    db = make_models(labels, seed=7, n_points=n_points, symmetric=symmetric)
    scene = generate_scene(ScenarioConfig(n_objects=n_objects, n_views=n_views,
                                          model_labels=labels, seed=seed), db)
    noise = NoiseModel(rot_sigma_deg=5.0, trans_sigma=0.01, depth_sigma_extra=0.08)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(seed))
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    state0, kept = initialize_scene(objs, graph.hypotheses, obs,
                                    np.random.default_rng(seed))
    assert kept
    return geo, obs, kept, state0


def case_setup(setup):
    """An LM_CASES setup: lm_setup's arguments, or (a function returning
    the same four values,)."""
    return setup[0]() if callable(setup[0]) else lm_setup(*setup)


# (setup, RefineConfig fields, the stop reason of both loops). "mixed-stacks"
# descends on image stacks of (M, G) = (40, 1), (250, 1), (500, 1) and
# (48, 64), with members that carry no active point, so one workspace
# serves stacks of every shape across iterations. The "ladder" cases end in
# a failed damping ladder that the stop lets run, since the first step or -g
# descends the loss to first order; the "no-descent" ones stop before it.
LM_CASES = {
    "unique": ((40,), {}, "rel_tol"),
    "ladder": ((45,), {}, "ladder"),
    "no-descent": ((41,), {}, "no_descent"),
    "symmetric": ((40, ("obj_01",)), {}, "no_descent"),
    "symmetric-ladder": ((67, ("obj_01",)), {}, "ladder"),
    "subsampled-ladder": ((50, (), MAX_RESIDUAL_POINTS + 20), {}, "ladder"),
    "subsampled-no-descent": ((42, (), MAX_RESIDUAL_POINTS + 20), {}, "no_descent"),
    "subsampled-rel-tol": ((42, ("obj_01",), MAX_RESIDUAL_POINTS + 20), {}, "rel_tol"),
    "rel-tol": ((43,), {"rel_tol": 0.05}, "rel_tol"),
    "max-iterations-1": ((44,), {"max_iterations": 1}, "max_iterations"),
    "max-iterations-2": ((44,), {"max_iterations": 2}, "max_iterations"),
    "max-iterations-3": ((44, ("obj_01",)), {"max_iterations": 3}, "max_iterations"),
    "mixed-stacks": ((mixed_setup,), {}, "rel_tol"),
}


def run_both(geo, obs, objects, state0, cfg):
    """(library state, trace, stop reasons), (oracle state, trace, stop
    reasons)."""
    got_trace, want_trace, got_stops, stops = [], [], [], []
    got = refine(state0, objects, obs, geo, cfg, trace=got_trace, stops=got_stops)
    want = oracles.refine(state0, objects, obs, geo, cfg, trace=want_trace, stops=stops)
    return (got, got_trace, got_stops), (want, want_trace, stops)


@pytest.mark.parametrize("case", sorted(LM_CASES))
def test_stacked_refine_equals_scene_state_loop(case):
    setup, fields, stop = LM_CASES[case]
    geo, obs, kept, state0 = case_setup(setup)
    if len(setup) > 1:
        assert {o.label for o in kept} >= set(setup[1])
    cfg = RefineConfig(**fields)
    (got, got_trace, got_stops), (want, want_trace, stops) = run_both(
        geo, obs, kept, state0, cfg
    )
    assert got_stops == stops == [stop]
    assert got_trace == want_trace
    assert len(got_trace) >= 2 and got_trace[-1] < got_trace[0]
    assert_same_state(got, want)
    images = candidate_images(kept, obs, geo)
    assert got_trace[-1] == select_targets(pose_stack(got, images), images,
                                           cfg.truncation)[1]


def test_stacked_refine_equals_scene_state_loop_on_zero_loss():
    db, scene, obs, objects, state = consistent_setup(n_objects=3, n_views=2, seed=20)
    geo = label_geometry(db, db.models)
    cfg = RefineConfig()
    (got, got_trace, got_stops), (want, want_trace, stops) = run_both(
        geo, obs, objects, state, cfg
    )
    assert got_stops == stops == ["zero"]
    assert got_trace == want_trace and len(got_trace) == 1
    assert_same_state(got, want)
    assert_same_state(got, state)


def test_stacked_refine_equals_scene_state_loop_when_solve_fails(monkeypatch):
    geo, obs, kept, state0 = lm_setup(41)
    cfg = RefineConfig()
    real_solve = np.linalg.solve
    calls = []

    def failing_solve(a, b):
        calls.append(1)
        if len(calls) in (1, 4, 5):  # the first rung, then two in a row
            raise np.linalg.LinAlgError("singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    got_trace, want_trace, stops = [], [], []
    got = refine(state0, kept, obs, geo, cfg, trace=got_trace)
    n_calls = len(calls)
    calls.clear()
    want = oracles.refine(state0, kept, obs, geo, cfg, trace=want_trace, stops=stops)
    monkeypatch.undo()
    assert len(calls) == n_calls > 5
    assert got_trace == want_trace
    assert_same_state(got, want)
    clean = refine(state0, kept, obs, geo, cfg)
    assert not all(np.array_equal(got.object_poses[k].matrix,
                                  clean.object_poses[k].matrix)
                   for k in got.object_poses)


@pytest.mark.parametrize("case", ["ladder", "rel-tol", "max-iterations-2"])
def test_refine_calls_the_traced_functions_as_often_as_the_loop(monkeypatch, case):
    # The benchmark's traced run counts LM iterations and trials by wrapping
    # these module-level names; refine must reach them through the module.
    setup, fields, _ = LM_CASES[case]
    geo, obs, kept, state0 = case_setup(setup)
    cfg = RefineConfig(**fields)
    counts = {}
    linearized = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            out = fn(*args, **kwargs)
            if name == "linearize":
                linearized.append(out)
            return out
        return wrapper

    for name in ("select_targets", "linearize", "frozen_loss"):
        monkeypatch.setattr(cosy.refinement, name,
                            counting(name, getattr(cosy.refinement, name)))
    refine(state0, kept, obs, geo, cfg)
    got = dict(counts)
    counts.clear()
    oracles.refine(state0, kept, obs, geo, cfg)
    assert got == counts
    assert got["linearize"] >= 1 and got["frozen_loss"] >= got["linearize"]
    for r, e in linearized:
        assert isinstance(e, np.ndarray) and e.shape == (r.size, 6)


@pytest.mark.parametrize("case", ["ladder", "unique"])
def test_refine_projects_each_accepted_state_once(monkeypatch, case):
    # A selection after an accepted step reuses that trial's projection, so
    # only the first selection and the trials project.
    setup, fields, _ = LM_CASES[case]
    geo, obs, kept, state0 = case_setup(setup)
    cfg = RefineConfig(**fields)
    projections, trials = [], []
    real_project, real_frozen = (cosy.refinement.project_masked_xyz,
                                 cosy.refinement.frozen_loss)

    def counting_project(*args):
        projections.append(1)
        return real_project(*args)

    def counting_frozen(*args):
        trials.append(1)
        return real_frozen(*args)

    monkeypatch.setattr(cosy.refinement, "project_masked_xyz", counting_project)
    monkeypatch.setattr(cosy.refinement, "frozen_loss", counting_frozen)
    trace = []
    refine(state0, kept, obs, geo, cfg, trace=trace)
    assert len(trace) >= 3
    assert len(projections) == len(trials) + 1


def test_no_descent_stop_tries_no_step(monkeypatch):
    # In the iteration where the stop fires, the first solved step and -g
    # both fail to descend the loss to first order, and refine ends the
    # restart after that one solve, with no trial.
    setup, fields, _ = LM_CASES["no-descent"]
    geo, obs, kept, state0 = case_setup(setup)
    events, outputs = [], []
    names = ("linearize", "frozen_loss", "normal_equations")

    def recording(name, fn):
        def wrapper(*args):
            events.append(name)
            outputs.append(fn(*args))
            return outputs[-1]
        return wrapper

    for name in names:
        monkeypatch.setattr(cosy.refinement, name,
                            recording(name, getattr(cosy.refinement, name)))
    monkeypatch.setattr(np.linalg, "solve", recording("solve", np.linalg.solve))
    stops = []
    refine(state0, kept, obs, geo, RefineConfig(**fields), stops=stops)
    monkeypatch.undo()
    assert stops == ["no_descent"]
    last = len(events) - 1 - events[::-1].index("linearize")
    assert events[last:] == ["linearize", "normal_equations", "solve"]
    assert events.count("linearize") > 1 and "frozen_loss" in events[:last]
    (_, g, grad), delta = outputs[-2:]
    assert grad @ delta >= 0 and grad @ g <= 0


def test_damping_stays_at_or_above_its_initial_value(monkeypatch):
    # Every damped system solved is J^T J + lambda I with lambda at least
    # damping_init, also after runs of accepted steps.
    setup, fields, _ = LM_CASES["unique"]
    geo, obs, kept, state0 = case_setup(setup)
    cfg = RefineConfig(damping_init=1e-2)
    real_normal, real_solve = normal_equations, np.linalg.solve
    normals, lams = [], []

    def recording_normal(*args):
        h, g, grad = real_normal(*args)
        normals.append(h)
        return h, g, grad

    def recording_solve(a, b):
        lams.append(np.diag(a - normals[-1]))
        return real_solve(a, b)

    monkeypatch.setattr(cosy.refinement, "normal_equations", recording_normal)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    trace = []
    refine(state0, kept, obs, geo, cfg, trace=trace)
    monkeypatch.undo()
    assert len(trace) >= 4  # at least three accepted steps
    assert np.allclose(lams[0], cfg.damping_init, rtol=1e-6)
    assert min(d.min() for d in lams) >= cfg.damping_init * (1 - 1e-6)


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
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    assert objs
    state0, _ = initialize_scene(objs, graph.hypotheses, obs, np.random.default_rng(0))
    state1 = refine(state0, objs, obs, geo, RefineConfig())
    init = mean_member_adds(state0, objs, obs, db, scene, provenance)
    after = mean_member_adds(state1, objs, obs, db, scene, provenance)
    cand = mean_candidate_adds(objs, obs, db, scene, provenance)
    assert after < init
    assert after < cand


def test_refine_best_of_validates_and_is_deterministic():
    db, scene, obs, provenance = noisy_depth_scene(seed=2)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    with pytest.raises(ValueError):
        refine_best_of(objs, graph.hypotheses, obs, geo, RefineConfig(), n_starts=0)
    a, kept_a, init_a, _ = refine_best_of(objs, graph.hypotheses, obs, geo,
                                          RefineConfig(), n_starts=3)
    b, kept_b, init_b, _ = refine_best_of(objs, graph.hypotheses, obs, geo,
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
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    cfg = RefineConfig()
    single, kept, _, _ = refine_best_of(objs, graph.hypotheses, obs, geo, cfg,
                                        n_starts=1)
    multi, kept_m, _, _ = refine_best_of(objs, graph.hypotheses, obs, geo, cfg,
                                         n_starts=4)
    assert kept == kept_m
    loss_single = total_loss(single, kept, obs, geo, cfg)
    loss_multi = total_loss(multi, kept_m, obs, geo, cfg)
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
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    cfg = RefineConfig()
    n_starts = 3

    # Reference: every restart's refine builds its own images, total_loss scores.
    rng = np.random.default_rng(cfg.seed)
    state0, kept = initialize_scene(objs, graph.hypotheses, obs, rng)
    assert any(o.label == "obj_03" for o in kept)
    want_states, want_losses = [], []
    for start in range(n_starts):
        if start > 0:
            state0, _ = initialize_scene(kept, graph.hypotheses, obs, rng)
        want_states.append(refine(state0, kept, obs, geo, cfg))
        want_losses.append(total_loss(want_states[-1], kept, obs, geo, cfg))

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
    best, got_kept, _, _ = refine_best_of(
        objs, graph.hypotheses, obs, geo, cfg, n_starts=n_starts
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
        images = real_images(kept, obs, geo)
        for got, loss in zip(got_states, want_losses):
            poses = pose_stack(got, images)
            assert select_targets(poses, images, cfg.truncation)[1] == loss


@pytest.mark.parametrize("n_points", [48, MAX_RESIDUAL_POINTS + 20],
                         ids=["full", "subsampled"])
def test_refine_best_of_scores_each_start_by_its_trace(monkeypatch, n_points):
    db, scene, obs, provenance = noisy_depth_scene(
        seed=6, n_views=3, n_objects=5, n_points=n_points
    )
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    cfg = RefineConfig()
    real_refine, real_select = refine, select_targets
    starts, selections = [], []

    def recording_refine(*args, **kwargs):
        before = len(selections)
        out = real_refine(*args, **kwargs)
        starts.append((out, list(kwargs["trace"]), len(selections) - before))
        return out

    def counting_select(*args):
        selections.append(1)
        return real_select(*args)

    monkeypatch.setattr(cosy.refinement, "refine", recording_refine)
    monkeypatch.setattr(cosy.refinement, "select_targets", counting_select)
    best, kept, _, score = refine_best_of(objs, graph.hypotheses, obs, geo, cfg,
                                          n_starts=4)
    monkeypatch.undo()
    assert len(starts) == 4
    # Every selection happens inside refine: no refined state is scored anew.
    assert sum(n for _, _, n in starts) == len(selections)
    images = candidate_images(kept, obs, geo)
    for state, trace, _ in starts:
        poses = pose_stack(state, images)
        assert trace[-1] == select_targets(poses, images, cfg.truncation)[1]
    assert sum(s is best for s, _, _ in starts) == 1
    losses = [total_loss(s, kept, obs, geo, cfg) for s, _, _ in starts]
    assert total_loss(best, kept, obs, geo, cfg) == min(losses) == score
    if n_points <= MAX_RESIDUAL_POINTS:
        assert [t[-1] for _, t, _ in starts] == losses


def test_refine_best_of_keeps_first_start_when_every_loss_is_nan(monkeypatch):
    db, scene, obs, provenance = noisy_depth_scene(seed=2, n_views=3, n_objects=4)
    geo = label_geometry(db, db.models)
    graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
    objs = extract_physical_objects(graph)
    real_select = select_targets
    monkeypatch.setattr(cosy.refinement, "select_targets",
                        lambda *args: (real_select(*args)[0], math.nan))
    monkeypatch.setattr(cosy.refinement, "total_loss", lambda *a, **k: math.nan)
    state, kept, init, _ = refine_best_of(objs, graph.hypotheses, obs, geo,
                                          RefineConfig(), n_starts=2)
    assert kept
    # A NaN loss accepts no step, so the first start comes back unchanged.
    assert_same_state(state, init)


def test_refine_best_of_empty_objects():
    db, scene, obs, provenance = noisy_depth_scene(seed=3)
    geo = label_geometry(db, db.models)
    state, kept, init, score = refine_best_of([], {}, obs, geo, RefineConfig())
    assert kept == [] and score is None
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
