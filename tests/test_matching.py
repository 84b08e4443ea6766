"""Tests for cross-view RANSAC matching and physical-object extraction."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import cosy.matching
from cosy.geometry import Pose, apply_matrices, rotation_exps
from cosy.matching import (
    BOUND_MARGIN,
    IMAGE_MERGE_TOL,
    CandidatePair,
    DegeneratePairsError,
    MatchGraph,
    MatchParams,
    PhysicalObject,
    TwoViewHypothesis,
    _PairBounds,
    _candidate_pairs,
    _pair_rng,
    _valid_combo_count,
    build_match_graph,
    count_inliers,
    extract_physical_objects,
    hypothesis_combos,
    label_geometry,
    relative_pose_from_pairs,
    two_view_ransac,
)
from cosy.scene_io import Candidate, ModelDB, ObjectModel, SceneObservations, View
from cosy.simulation import (
    DEFAULT_INTRINSICS,
    NoiseModel,
    ScenarioConfig,
    generate_observations,
    generate_scene,
    make_models,
)
from cosy.symmetry import SymmetrySpec, symmetric_distance


def manual_observations(scene, scores=None):
    """Candidates for every (view, object), no dropout, view-major order.

    Candidate index = view_index * n_objects + object_index.
    """
    n = len(scene.object_labels)
    views = tuple(View(v.view_id, v.intrinsics) for v in scene.views)
    candidates = []
    for vi in range(len(views)):
        for oi in range(n):
            score = 0.9 if scores is None else scores[vi * n + oi]
            candidates.append(
                Candidate(
                    view_id=views[vi].view_id,
                    label=scene.object_labels[oi],
                    score=score,
                    pose=scene.camera_frame_pose(vi, oi),
                )
            )
    return SceneObservations(views=views, candidates=tuple(candidates))


def small_scene(n_objects, n_views, seed=0, symmetric=()):
    labels = tuple(f"obj_{i:02d}" for i in range(n_objects))
    db = make_models(labels, seed=seed, symmetric=symmetric)
    cfg = ScenarioConfig(
        n_objects=n_objects, n_views=n_views, model_labels=labels, seed=seed
    )
    return db, generate_scene(cfg, db)


def true_relative_pose(scene, vi, vj):
    return scene.camera_poses[vi].inverse().compose(scene.camera_poses[vj])


def pose_close(p: Pose, q: Pose, tol=1e-9) -> bool:
    return float(np.max(np.abs(p.matrix - q.matrix))) < tol


# ---------------------------------------------------------------- validation


def test_match_params_defaults_and_validation():
    p = MatchParams()
    assert p.inlier_threshold == 0.02
    assert p.max_iterations == 2000
    assert p.min_inliers == 3
    # `cosy solve` prints these texts with the flag in place of the field.
    for kwargs, message in [
        ({"inlier_threshold": 0.0}, "inlier_threshold must be finite and > 0, got 0.0"),
        ({"min_inliers": 2}, "min_inliers must be >= 3, got 2"),
        ({"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as exc:
            MatchParams(**kwargs)
        assert str(exc.value) == message


def test_candidate_pair_is_ordered():
    assert CandidatePair(1, 2) < CandidatePair(1, 3) < CandidatePair(2, 0)


def test_hypothesis_rejects_reused_candidates():
    pairs = (CandidatePair(0, 4), CandidatePair(0, 5), CandidatePair(2, 6))
    with pytest.raises(ValueError):
        TwoViewHypothesis(
            view_a="a",
            view_b="b",
            relative_pose=Pose.identity(),
            inliers=pairs,
            generating_pairs=(pairs[0], pairs[2]),
            total_distance=0.0,
        )


def test_physical_object_invariants():
    with pytest.raises(ValueError):
        PhysicalObject(id=0, label="x", members=(("v0", 0),))
    with pytest.raises(ValueError):
        PhysicalObject(id=0, label="x", members=(("v0", 0), ("v0", 1)))


# ------------------------------------------------- relative_pose_from_pairs


def test_identical_views_give_identity():
    db, scene = small_scene(3, 1, seed=5)
    # Two "views" sharing one physical camera: candidate poses coincide.
    views = (View("va", DEFAULT_INTRINSICS), View("vb", DEFAULT_INTRINSICS))
    cands = []
    for view in views:
        for oi in range(3):
            cands.append(
                Candidate(view.view_id, scene.object_labels[oi], 0.9,
                          scene.camera_frame_pose(0, oi))
            )
    obs = SceneObservations(views=views, candidates=tuple(cands))
    t = relative_pose_from_pairs(
        CandidatePair(0, 3), CandidatePair(1, 4), obs, label_geometry(db, db.models)
    )
    assert pose_close(t, Pose.identity(), tol=1e-12)


def test_trivial_group_is_direct_product():
    db, scene = small_scene(3, 2, seed=7)
    obs = manual_observations(scene)
    geo = label_geometry(db, db.models)
    t = relative_pose_from_pairs(CandidatePair(0, 3), CandidatePair(1, 4), obs, geo)
    expected = obs.candidates[0].pose.compose(obs.candidates[3].pose.inverse())
    # identity-only group: S* = I is forced and multiplies away exactly
    assert np.array_equal(t.matrix, expected.matrix)


def test_symmetric_first_pair_recovers_ground_truth():
    db, scene = small_scene(4, 2, seed=11, symmetric=("obj_00",))
    obs = manual_observations(scene)
    # pair1 is the symmetric object; pair2 pins down the rotation about its axis
    geo = label_geometry(db, db.models)
    t = relative_pose_from_pairs(CandidatePair(0, 4), CandidatePair(1, 5), obs, geo)
    assert pose_close(t, true_relative_pose(scene, 0, 1), tol=1e-9)


def test_symmetric_choice_matches_bruteforce_scan():
    db, scene = small_scene(4, 2, seed=13, symmetric=("obj_00", "obj_02"))
    obs = manual_observations(scene)
    pair1, pair2 = CandidatePair(0, 4), CandidatePair(2, 6)
    geo = label_geometry(db, [c.label for c in obs.candidates])
    t = relative_pose_from_pairs(pair1, pair2, obs, geo)

    g1 = geo["obj_00"].group
    model2 = db["obj_02"]
    mats2 = geo["obj_02"].group.matrices
    t_a1, t_b1 = obs.candidates[0].pose, obs.candidates[4].pose
    t_a2, t_b2 = obs.candidates[2].pose, obs.candidates[6].pose
    best_d, best_m = np.inf, None
    for s in g1.matrices:
        t_ab = (t_a1.matrix @ s) @ np.linalg.inv(t_b1.matrix)
        d = oracles.symmetric_distance(
            t_a2.matrix, t_ab @ t_b2.matrix, mats2, model2.points
        )
        if d < best_d:
            best_d, best_m = d, t_ab
    assert float(np.max(np.abs(t.matrix - best_m))) < 1e-9


def test_degenerate_and_inconsistent_pairs_rejected():
    db, scene = small_scene(3, 2, seed=3)
    obs = manual_observations(scene)
    geo = label_geometry(db, db.models)
    with pytest.raises(DegeneratePairsError):
        relative_pose_from_pairs(CandidatePair(0, 3), CandidatePair(0, 4), obs, geo)
    with pytest.raises(DegeneratePairsError):
        relative_pose_from_pairs(CandidatePair(0, 3), CandidatePair(1, 3), obs, geo)
    with pytest.raises(ValueError):
        # labels differ inside the first pair
        relative_pose_from_pairs(CandidatePair(0, 4), CandidatePair(1, 5), obs, geo)


# ------------------------------------------------------------ count_inliers


def test_zero_noise_all_objects_are_inliers():
    db, scene = small_scene(5, 2, seed=21)
    obs = manual_observations(scene)
    by_view = obs.by_view()
    t_ab = true_relative_pose(scene, 0, 1)
    geo = label_geometry(db, db.models)
    inliers = count_inliers(t_ab, by_view["view_000"], by_view["view_001"], geo, 0.02)
    assert sorted(inliers) == [CandidatePair(i, i + 5) for i in range(5)]


def test_displaced_candidate_excluded_at_threshold():
    db, scene = small_scene(4, 2, seed=22)
    obs = manual_observations(scene)
    # displace object 2's view-b candidate by 3 cm in the camera frame
    moved = list(obs.candidates)
    c = moved[6]
    m = c.pose.matrix.copy()
    m[0, 3] += 0.03
    moved[6] = Candidate(c.view_id, c.label, c.score, Pose.from_matrix(m))
    obs2 = SceneObservations(views=obs.views, candidates=tuple(moved))
    by_view = obs2.by_view()
    t_ab = true_relative_pose(scene, 0, 1)

    geo = label_geometry(db, db.models)
    tight = count_inliers(t_ab, by_view["view_000"], by_view["view_001"], geo, 0.02)
    loose = count_inliers(t_ab, by_view["view_000"], by_view["view_001"], geo, 0.05)
    assert CandidatePair(2, 6) not in tight
    assert len(tight) == 3
    assert CandidatePair(2, 6) in loose


def test_collision_keeps_closer_candidate():
    labels = ("cup",)
    db = make_models(labels, seed=1)
    views = (View("va", DEFAULT_INTRINSICS), View("vb", DEFAULT_INTRINSICS))
    base = Pose.from_rt(np.eye(3), [0.0, 0.0, 1.0])
    near = Pose.from_rt(np.eye(3), [0.004, 0.0, 1.0])
    far = Pose.from_rt(np.eye(3), [0.012, 0.0, 1.0])
    obs = SceneObservations(
        views=views,
        candidates=(
            Candidate("va", "cup", 0.9, near),
            Candidate("va", "cup", 0.9, far),
            Candidate("vb", "cup", 0.9, base),
        ),
    )
    by_view = obs.by_view()
    geo = label_geometry(db, ["cup"])
    inliers = count_inliers(Pose.identity(), by_view["va"], by_view["vb"], geo, 0.02)
    assert inliers == [CandidatePair(0, 2)]


def test_greedy_matching_equals_scalar_oracle():
    labels = ("box",)
    db = make_models(labels, seed=2)
    rng = np.random.default_rng(17)
    views = (View("va", DEFAULT_INTRINSICS), View("vb", DEFAULT_INTRINSICS))
    cands = []
    for view in views:
        for _ in range(4):
            R = oracles.random_rotation(rng)
            t = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.01, 3)
            cands.append(Candidate(view.view_id, "box", 0.9, Pose.from_rt(R, t)))
    obs = SceneObservations(views=views, candidates=tuple(cands))
    by_view = obs.by_view()
    threshold = 0.05
    geo = label_geometry(db, ["box"])
    got = count_inliers(
        Pose.identity(), by_view["va"], by_view["vb"], geo, threshold
    )

    mats = geo["box"].group.matrices
    scored = []
    for i in range(4):
        for j in range(4, 8):
            d = oracles.symmetric_distance(
                cands[i].pose.matrix,
                np.eye(4) @ cands[j].pose.matrix,
                mats,
                db["box"].points,
            )
            if d < threshold:
                scored.append((d, i, j))
    scored.sort()
    used_a, used_b, expected = set(), set(), []
    for d, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        expected.append(CandidatePair(i, j))
    assert got == expected
    assert len({p.a for p in got}) == len(got)
    assert len({p.b for p in got}) == len(got)


# ------------------------------------------------ bound-pruned exactness


def unpruned_relative_pose(pair1, pair2, obs, db, groups):
    """Full scan over the first pair's group; first minimum wins."""
    c_a1, c_b1 = obs.candidates[pair1.a], obs.candidates[pair1.b]
    c_a2, c_b2 = obs.candidates[pair2.a], obs.candidates[pair2.b]
    t_b1_inv = c_b1.pose.inverse()
    best_d, best = np.inf, None
    points = db[c_a2.label].points
    images = apply_matrices(groups[c_a2.label].matrices, points)
    for s in groups[c_a1.label].matrices:
        t_ab = c_a1.pose.compose(Pose(s)).compose(t_b1_inv)
        d = symmetric_distance(points, images, c_a2.pose, t_ab.compose(c_b2.pose))
        if d < best_d:
            best_d, best = d, t_ab
    return best


def unpruned_inliers(t_ab, cands_a, cands_b, db, threshold, groups):
    """Exact distance for every label-consistent pair, then greedy matching."""
    scored = []
    for i, ca in cands_a:
        for j, cb in cands_b:
            if ca.label != cb.label:
                continue
            points = db[ca.label].points
            images = apply_matrices(groups[ca.label].matrices, points)
            d = symmetric_distance(points, images, ca.pose, t_ab.compose(cb.pose))
            if d < threshold:
                scored.append((d, i, j))
    scored.sort()
    used_a, used_b, out = set(), set(), []
    for d, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        out.append(CandidatePair(i, j))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_pruned_kernel_equals_unpruned_scan(seed):
    db, scene = small_scene(4, 2, seed=100 + seed, symmetric=("obj_00", "obj_01"))
    noise = NoiseModel(rot_sigma_deg=5.0, trans_sigma=0.01, outlier_prob=0.3)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(seed))
    by_view = obs.by_view()
    cands_a, cands_b = by_view["view_000"], by_view["view_001"]
    geo = label_geometry(db, [c.label for c in obs.candidates])
    groups = {label: entry.group for label, entry in geo.items()}
    pairs = [
        CandidatePair(i, j)
        for i, ca in cands_a
        for j, cb in cands_b
        if ca.label == cb.label
    ]
    both_symmetric = 0
    for p1, p2 in itertools.permutations(pairs, 2):
        if p1.a == p2.a or p1.b == p2.b:
            continue
        got = relative_pose_from_pairs(p1, p2, obs, geo)
        want = unpruned_relative_pose(p1, p2, obs, db, groups)
        assert np.array_equal(got.matrix, want.matrix)
        for threshold in (0.02, 0.1):
            assert count_inliers(
                got, cands_a, cands_b, geo, threshold
            ) == unpruned_inliers(got, cands_a, cands_b, db, threshold, groups)
        labels = (obs.candidates[p1.a].label, obs.candidates[p2.a].label)
        both_symmetric += all(len(groups[label]) > 1 for label in labels)
    assert both_symmetric > 0


def test_pruning_skips_exact_evaluations(monkeypatch):
    db, scene = small_scene(4, 2, seed=101, symmetric=("obj_00", "obj_01"))
    obs = manual_observations(scene)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return symmetric_distance(*args, **kwargs)

    monkeypatch.setattr(cosy.matching, "symmetric_distance", counting)
    geo = label_geometry(db, db.models)
    t = relative_pose_from_pairs(CandidatePair(0, 4), CandidatePair(1, 5), obs, geo)
    assert pose_close(t, true_relative_pose(scene, 0, 1))
    assert 0 < len(calls) < 64
    calls.clear()
    by_view = obs.by_view()
    inliers = count_inliers(t, by_view["view_000"], by_view["view_001"], geo, 0.02)
    assert len(inliers) == 4
    assert len(calls) == 4


@pytest.mark.parametrize("symmetric", [False, True], ids=["G1", "G64"])
def test_symmetric_distance_with_label_stack_is_identical(symmetric):
    db, scene = small_scene(3, 2, seed=43, symmetric=("obj_01",) if symmetric else ())
    entry = label_geometry(db, db.models)["obj_01"]
    assert len(entry.group) == (64 if symmetric else 1)
    points = db["obj_01"].points
    assert np.array_equal(
        entry.sym_points, apply_matrices(entry.group.matrices, points)
    )
    assert not entry.sym_points.flags.writeable
    rng = np.random.default_rng(43)
    for _ in range(20):
        t1 = Pose(oracles.random_pose_matrix(rng))
        t2 = Pose(oracles.random_pose_nudge(t1.matrix, rng, 0.3, 0.05))
        stacked = symmetric_distance(points, entry.sym_points, t1, t2)
        assert stacked == oracles.symmetric_distance(
            t1.matrix, t2.matrix, entry.group.matrices, points
        )


def test_matching_passes_each_label_stack(monkeypatch):
    db, scene = small_scene(4, 3, seed=44, symmetric=("obj_00",))
    obs = manual_observations(scene)
    seen = []

    def recording(*args, **kwargs):
        # Positional only: perfbench's trace adapter reads args[0] and args[1].
        assert not kwargs
        seen.append(args[:2])
        return symmetric_distance(*args)

    monkeypatch.setattr(cosy.matching, "symmetric_distance", recording)
    geo = label_geometry(db, db.models)
    build_match_graph(obs, geo, MatchParams())
    by_points = {id(entry.model.points): entry for entry in geo.values()}
    assert any(len(sym_points) == 64 for _, sym_points in seen)
    for points, sym_points in seen:
        assert sym_points is by_points[id(points)].sym_points


@pytest.mark.parametrize("offset", [1e-10, 0.0, -1e-10, -2 * BOUND_MARGIN])
@pytest.mark.parametrize("symmetric", [False, True], ids=["unique", "symmetric"])
def test_tight_bound_at_threshold(symmetric, offset):
    db, scene = small_scene(4, 2, seed=71, symmetric=("obj_02",) if symmetric else ())
    obs = manual_observations(scene)
    # A pure translation of object 2's view-b candidate in its own frame
    # moves every model point by the same vector, so the centroid bound is
    # tight. Along the symmetry axis no group element can reduce it.
    direction = np.array([0.0, 0.0, 1.0]) if symmetric else np.array([0.6, 0.0, 0.8])
    moved = list(obs.candidates)
    c = moved[6]
    shift = Pose.from_rt(np.eye(3), 0.02 * direction)
    moved[6] = Candidate(c.view_id, c.label, c.score, c.pose.compose(shift))
    obs = SceneObservations(views=obs.views, candidates=tuple(moved))
    by_view = obs.by_view()
    cands_a, cands_b = by_view["view_000"], by_view["view_001"]
    t_ab = true_relative_pose(scene, 0, 1)
    geo = label_geometry(db, [c.label for c in obs.candidates])
    groups = {label: entry.group for label, entry in geo.items()}

    d = symmetric_distance(
        db["obj_02"].points, geo["obj_02"].sym_points,
        obs.candidates[2].pose, t_ab.compose(obs.candidates[6].pose),
    )
    bounds = _PairBounds(cands_a, cands_b, geo)
    bound = bounds.bounds(t_ab)[bounds.pairs.index(CandidatePair(2, 6))]
    assert abs(d - 0.02) < 1e-12
    assert abs(bound - d) < 1e-12

    # ||delta|| just below (offset > 0), exactly at, and just above the
    # threshold; the last offset puts the bound past the margin.
    threshold = d + offset
    got = count_inliers(t_ab, cands_a, cands_b, geo, threshold)
    assert got == unpruned_inliers(t_ab, cands_a, cands_b, db, threshold, groups)
    assert (CandidatePair(2, 6) in got) == (offset > 0)
    assert len(got) == (4 if offset > 0 else 3)


@pytest.mark.parametrize("symmetric", [False, True], ids=["unique", "symmetric"])
def test_nan_candidate_pose_gives_pose_or_value_error(symmetric):
    db, scene = small_scene(4, 2, seed=11, symmetric=("obj_00",) if symmetric else ())
    obs = manual_observations(scene)
    moved = list(obs.candidates)
    c = moved[0]
    m = c.pose.matrix.copy()
    m[0, 1] = np.nan
    moved[0] = Candidate(c.view_id, c.label, c.score, Pose(m))
    obs = SceneObservations(views=obs.views, candidates=tuple(moved))
    geo = label_geometry(db, db.models)
    for p1, p2 in [(CandidatePair(0, 4), CandidatePair(1, 5)),
                   (CandidatePair(1, 5), CandidatePair(0, 4))]:
        try:
            t = relative_pose_from_pairs(p1, p2, obs, geo)
        except ValueError:
            continue
        assert isinstance(t, Pose)
    build_match_graph(obs, geo)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    rotations=arrays(np.float64, (3, 3), elements=st.floats(-3.2, 3.2)),
    translations=arrays(np.float64, (3, 3), elements=st.floats(-0.5, 0.5)),
    points=arrays(
        np.float64,
        st.tuples(st.integers(1, 16), st.just(3)),
        elements=st.floats(-0.1, 0.1),
    ),
    axis=arrays(np.float64, 3, elements=_unit),
    offset=arrays(np.float64, 3, elements=st.floats(-0.05, 0.05)),
    angles=st.integers(1, 16),
    flip=st.booleans(),
)
def test_centroid_bound_never_exceeds_symmetric_distance(
    rotations, translations, points, axis, offset, angles, flip
):
    norm = float(np.linalg.norm(axis))
    assume(norm > 0.1)
    discrete = [Pose.identity()]
    if flip:  # half-turn about x, as for a part that can be mounted upside down
        discrete.append(Pose.from_rt(np.diag([1.0, -1.0, -1.0]), np.zeros(3)))
    spec = SymmetrySpec(discrete=tuple(discrete),
                        continuous_axes=((axis / norm, offset),))
    spread = float(np.max(np.linalg.norm(points[:, None] - points[None], axis=2)))
    model = ObjectModel("m", points, max(0.01, spread * 1.01), spec)
    geo = label_geometry(ModelDB({"m": model}), ["m"], angles)
    sym_points = geo["m"].sym_points
    poses = []
    for rot, trans in zip(rotations, translations):
        poses.append(Pose.from_rt(rotation_exps(rot)[0], trans + [0.0, 0.0, 1.0]))
    cand_a, cand_b, t_ab = poses
    view_a = [(0, Candidate("va", "m", 0.9, cand_a))]
    view_b = [(1, Candidate("vb", "m", 0.9, cand_b))]

    bound = _PairBounds(view_a, view_b, geo).bounds(t_ab)[0]
    d = symmetric_distance(model.points, sym_points, cand_a, t_ab.compose(cand_b))
    assert bound <= d + BOUND_MARGIN


# ---------------------------------------------------------- two_view_ransac


def test_six_unique_labels_yield_fifteen_hypotheses():
    db, scene = small_scene(6, 2, seed=31)
    obs = manual_observations(scene)
    by_view = obs.by_view()
    pairs = _candidate_pairs(by_view["view_000"], by_view["view_001"])
    assert len(pairs) == 6
    assert _valid_combo_count(pairs) == 15
    combos = hypothesis_combos(pairs, 2000, lambda: _pair_rng(0, "a", "b"))
    assert len(combos) == 15
    assert combos == list(itertools.combinations(range(6), 2))

    hyp = two_view_ransac("view_000", "view_001", obs, label_geometry(db, db.models))
    assert hyp is not None
    assert len(hyp.inliers) == 6


def test_two_shared_objects_return_none():
    db, scene = small_scene(2, 2, seed=32)
    obs = manual_observations(scene)
    geo = label_geometry(db, db.models)
    assert two_view_ransac("view_000", "view_001", obs, geo) is None


def test_clean_scene_recovers_relative_pose():
    db, scene = small_scene(4, 2, seed=33, symmetric=("obj_01",))
    obs = manual_observations(scene)
    params = MatchParams()
    geo = label_geometry(db, [c.label for c in obs.candidates])
    hyp = two_view_ransac("view_000", "view_001", obs, geo, params)
    assert hyp is not None
    assert len(hyp.inliers) == 4
    assert pose_close(hyp.relative_pose, true_relative_pose(scene, 0, 1), 1e-9)
    # soundness is re-checkable after the fact
    for pair in hyp.inliers:
        ca, cb = obs.candidates[pair.a], obs.candidates[pair.b]
        d = symmetric_distance(
            db[ca.label].points,
            geo[ca.label].sym_points,
            ca.pose,
            hyp.relative_pose.compose(cb.pose),
        )
        assert d < params.inlier_threshold


def test_exhaustive_branch_matches_bruteforce_selection():
    db, scene = small_scene(4, 2, seed=41)
    # mild noise so distances are nonzero but pairs stay matched
    noise = NoiseModel(rot_sigma_deg=1.0, trans_sigma=0.002)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(41))
    if len({c.view_id for c in obs.candidates}) < 2:
        pytest.skip("noise draw left fewer than two populated views")
    params = MatchParams()
    geo = label_geometry(db, [c.label for c in obs.candidates])
    got = two_view_ransac("view_000", "view_001", obs, geo, params)

    by_view = obs.by_view()
    cands_a, cands_b = by_view["view_000"], by_view["view_001"]
    pairs = [
        CandidatePair(i, j)
        for i, ca in cands_a
        for j, cb in cands_b
        if ca.label == cb.label
    ]
    best_key, best = None, None
    for k1, k2 in itertools.combinations(range(len(pairs)), 2):
        p1, p2 = pairs[k1], pairs[k2]
        if p1.a == p2.a or p1.b == p2.b:
            continue
        t_ab = relative_pose_from_pairs(p1, p2, obs, geo)
        scored = []
        for i, ca in cands_a:
            for j, cb in cands_b:
                if ca.label != cb.label:
                    continue
                d = symmetric_distance(
                    db[ca.label].points, geo[ca.label].sym_points,
                    ca.pose, t_ab.compose(cb.pose),
                )
                if d < params.inlier_threshold:
                    scored.append((d, i, j))
        scored.sort()
        used_a, used_b, matches = set(), set(), []
        for d, i, j in scored:
            if i in used_a or j in used_b:
                continue
            used_a.add(i)
            used_b.add(j)
            matches.append((d, CandidatePair(i, j)))
        if len(matches) < params.min_inliers:
            continue
        total = float(sum(d for d, _ in matches))
        key = (-len(matches), total, (p1.a, p1.b, p2.a, p2.b))
        if best_key is None or key < best_key:
            best_key = key
            best = (p1, p2, tuple(m for _, m in matches))
    if best is None:
        assert got is None
    else:
        assert got is not None
        assert got.generating_pairs == (best[0], best[1])
        assert got.inliers == best[2]


def test_sampling_branch_is_deterministic_and_valid():
    labels = ("bolt",)
    db = make_models(labels, seed=3)
    rng = np.random.default_rng(55)
    views = (View("va", DEFAULT_INTRINSICS), View("vb", DEFAULT_INTRINSICS))
    cands = []
    for view in views:
        for k in range(10):
            R = oracles.random_rotation(rng)
            t = np.array([0.05 * k - 0.2, 0.0, 1.0]) + rng.normal(0, 0.003, 3)
            cands.append(Candidate(view.view_id, "bolt", 0.9, Pose.from_rt(R, t)))
    obs = SceneObservations(views=views, candidates=tuple(cands))
    by_view = obs.by_view()
    pairs = _candidate_pairs(by_view["va"], by_view["vb"])
    assert _valid_combo_count(pairs) > 50

    combos = hypothesis_combos(pairs, 50, lambda: _pair_rng(0, "va", "vb"))
    assert len(combos) == 50
    assert len(set(combos)) == 50
    for k1, k2 in combos:
        assert k1 < k2
        assert pairs[k1].a != pairs[k2].a and pairs[k1].b != pairs[k2].b
    # derived generator makes the draw reproducible
    again = hypothesis_combos(pairs, 50, lambda: _pair_rng(0, "va", "vb"))
    assert combos == again
    other = hypothesis_combos(pairs, 50, lambda: _pair_rng(1, "va", "vb"))
    assert combos != other

    params = MatchParams(max_iterations=50)
    geo = label_geometry(db, ["bolt"])
    h1 = two_view_ransac("va", "vb", obs, geo, params)
    h2 = two_view_ransac("va", "vb", obs, geo, params)
    if h1 is None:
        assert h2 is None
    else:
        assert np.array_equal(h1.relative_pose.matrix, h2.relative_pose.matrix)
        assert h1.inliers == h2.inliers


def test_pair_rng_depends_on_views_not_call_order():
    a1 = _pair_rng(0, "view_000", "view_001").integers(1 << 30, size=4)
    a2 = _pair_rng(0, "view_000", "view_001").integers(1 << 30, size=4)
    b = _pair_rng(0, "view_001", "view_002").integers(1 << 30, size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_pair_rng_view_ids_with_colons_do_not_collide():
    first = _pair_rng(0, "a:b", "c").integers(1 << 62)
    assert first != _pair_rng(0, "a", "b:c").integers(1 << 62)


# ------------------------------------------- exact hypothesis pruning


def shared_label_observations(seed):
    """Noisy candidates in two views; labels repeat, two of three symmetric."""
    labels = ("obj_00", "obj_01", "obj_02")
    db = make_models(labels, seed=seed, symmetric=labels[:2])
    cfg = ScenarioConfig(n_objects=6, n_views=2, model_labels=labels, seed=seed)
    scene = generate_scene(cfg, db)
    noise = NoiseModel(rot_sigma_deg=3.0, trans_sigma=0.006,
                       outlier_prob=0.3, miss_prob=0.1)
    obs, _ = generate_observations(scene, noise, np.random.default_rng(seed))
    return db, obs


def assert_same_hypothesis(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.relative_pose.matrix, want.relative_pose.matrix)
    assert got.inliers == want.inliers
    assert got.generating_pairs == want.generating_pairs
    assert got.total_distance == want.total_distance


@pytest.mark.parametrize("min_inliers", [3, 5])
@pytest.mark.parametrize(
    "max_iterations, angles", [(2000, 8), (12, 64)], ids=["exhaustive", "sampled"]
)
def test_pruned_ransac_equals_unpruned_oracle(max_iterations, angles, min_inliers):
    accepted = 0
    for seed in range(203, 210):
        db, obs = shared_label_observations(seed)
        by_view = obs.by_view()
        pairs = _candidate_pairs(by_view["view_000"], by_view["view_001"])
        symmetric = [p for p in pairs if obs.candidates[p.a].label != "obj_02"]
        assert len({p.a for p in symmetric}) > 1 and len({p.b for p in symmetric}) > 1
        assert (_valid_combo_count(pairs) > max_iterations) == (max_iterations == 12)
        params = MatchParams(min_inliers=min_inliers, max_iterations=max_iterations,
                             seed=seed)
        geo = label_geometry(db, [c.label for c in obs.candidates], angles)
        want = oracles.two_view_ransac("view_000", "view_001", obs, geo, params)
        got = two_view_ransac("view_000", "view_001", obs, geo, params)
        assert_same_hypothesis(got, want)
        accepted += want is not None
    assert accepted > 0
    if min_inliers == 5:
        assert accepted < 7


def test_later_hypothesis_tying_the_count_wins_on_distance():
    db, scene = small_scene(3, 2, seed=81)
    obs = manual_observations(scene)
    # Object 0's view-b candidate is shifted 5 mm in its own frame. Its
    # anchor's pose has all three inliers at total 10 mm; the later anchors'
    # poses have all three at total 5 mm and must win on distance.
    moved = list(obs.candidates)
    c = moved[3]
    shift = Pose.from_rt(np.eye(3), [0.003, 0.0, 0.004])
    moved[3] = Candidate(c.view_id, c.label, c.score, c.pose.compose(shift))
    obs = SceneObservations(views=obs.views, candidates=tuple(moved))
    params = MatchParams()
    geo = label_geometry(db, db.models)
    want = oracles.two_view_ransac("view_000", "view_001", obs, geo, params)
    got = two_view_ransac("view_000", "view_001", obs, geo, params)
    assert_same_hypothesis(got, want)
    assert len(got.inliers) == 3
    assert got.generating_pairs[0] != CandidatePair(0, 3)
    assert abs(got.total_distance - 0.005) < 1e-9


def test_distinct_images_drop_only_near_duplicates():
    db, _ = small_scene(2, 2, seed=43, symmetric=("obj_01",))
    geo = label_geometry(db, db.models)
    assert len(geo["obj_00"].distinct) == 1
    on_axis = geo["obj_01"]
    # The z axis passes through the centroid: its 64 images differ in
    # rounding only.
    assert len(on_axis.group) == 64 and len(on_axis.distinct) == 1
    images = apply_matrices(on_axis.group.matrices, on_axis.centroid).reshape(-1, 3)
    gaps = np.linalg.norm(images - on_axis.distinct[0], axis=1)
    assert gaps.max() <= IMAGE_MERGE_TOL
    points = db["obj_01"].points
    spec = SymmetrySpec(continuous_axes=((np.array([0.0, 0.0, 1.0]),
                                          np.array([0.01, 0.0, 0.0])),))
    model = ObjectModel("m", points, db["obj_01"].diameter, spec)
    off_axis = label_geometry(ModelDB({"m": model}), ["m"])["m"]
    images = apply_matrices(off_axis.group.matrices, off_axis.centroid).reshape(-1, 3)
    assert np.array_equal(off_axis.distinct, images)


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["row-each", "ragged", "default"])
def test_distinct_rows_equal_sequential_scan(monkeypatch, chunk):
    # Clouds of images with exact and near copies (within and beyond
    # IMAGE_MERGE_TOL of a kept or of a dropped row), in several row blocks.
    if chunk is not None:
        monkeypatch.setattr(cosy.matching, "_PAIRWISE_CHUNK", chunk)
    rng = np.random.default_rng(44)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        points = rng.normal(size=(n, 3)) * 0.01
        copies = rng.integers(0, n, size=(n // 2, 2))
        scale = rng.choice([0.0, 0.4, 0.9, 2.0], size=(n // 2, 1)) * IMAGE_MERGE_TOL
        points[copies[:, 0]] = points[copies[:, 1]] + scale * np.array([1.0, 0, 0])
        want = oracles.distinct_rows(points)
        got = cosy.matching._distinct_rows(points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_identity_only_geometry_equals_applied_identity():
    # A label without symmetry gets its identity images from apply_matrices
    # too, -0.0 coordinates included (they become 0.0).
    db = make_models(["a", "b"], seed=45, n_points=30, symmetric=("b",))
    pts = db["a"].points.copy()
    pts[0] = [-0.0, 0.0, -0.0]
    pts[1, 2] = -0.0
    model = ObjectModel("a", pts, db["a"].diameter * 1.1, db["a"].symmetries)
    geo = label_geometry(ModelDB({"a": model, "b": db["b"]}), ["a", "b"])
    for label, size in (("a", 1), ("b", 64)):
        entry = geo[label]
        assert len(entry.group) == size
        eye_images = apply_matrices(entry.group.matrices, entry.centroid)
        want_points = apply_matrices(entry.group.matrices, entry.model.points)
        assert entry.sym_points.shape == want_points.shape
        assert entry.sym_points.tobytes() == want_points.tobytes()
        assert not entry.sym_points.flags.writeable
        want = oracles.distinct_rows(eye_images.reshape(size, 3))
        assert entry.distinct.tobytes() == want.tobytes()
    assert np.signbit(geo["a"].model.points[0]).tolist() == [True, False, True]
    assert not np.signbit(geo["a"].sym_points[0, 0]).any()


@pytest.mark.parametrize("symmetric", [False, True], ids=["unique", "symmetric"])
def test_anchor_bound_covers_inliers_at_a_tight_threshold(symmetric):
    db, scene = small_scene(4, 2, seed=71, symmetric=("obj_02",) if symmetric else ())
    obs = manual_observations(scene)
    # As in test_tight_bound_at_threshold: candidate 6 is moved 2 cm in its
    # own frame, so its pair's centroid bound equals its distance up to
    # rounding. Thresholds a few ulps above that distance keep the pair an
    # inlier; the anchor bound's stacked element poses must still count it.
    direction = np.array([0.0, 0.0, 1.0]) if symmetric else np.array([0.6, 0.0, 0.8])
    moved = list(obs.candidates)
    c = moved[6]
    shift = Pose.from_rt(np.eye(3), 0.02 * direction)
    moved[6] = Candidate(c.view_id, c.label, c.score, c.pose.compose(shift))
    obs = SceneObservations(views=obs.views, candidates=tuple(moved))
    by_view = obs.by_view()
    cands_a, cands_b = by_view["view_000"], by_view["view_001"]
    geo = label_geometry(db, [c.label for c in obs.candidates])
    bounds = _PairBounds(cands_a, cands_b, geo)
    for k, p1 in enumerate(bounds.pairs):
        if p1.a == 2:
            continue
        p2 = next(p for p in bounds.pairs if p.a not in (p1.a, 2) and p.b != p1.b)
        t_ab = relative_pose_from_pairs(p1, p2, obs, geo)
        threshold = symmetric_distance(
            db["obj_02"].points, geo["obj_02"].sym_points,
            obs.candidates[2].pose, t_ab.compose(obs.candidates[6].pose),
        )
        for _ in range(6):
            threshold = np.nextafter(threshold, np.inf)
            inliers = count_inliers(t_ab, cands_a, cands_b, geo, threshold)
            assert len(inliers) == 4
            assert bounds.anchor_bound(k, geo, threshold) == 4


def test_each_distinct_pose_is_scored_once_per_view_pair(monkeypatch):
    poses, scored = [], []
    real_pose = cosy.matching.relative_pose_from_pairs
    real_matches = cosy.matching._inlier_matches

    def recording_pose(*args, **kwargs):
        t_ab = real_pose(*args, **kwargs)
        poses.append(t_ab.matrix.tobytes())
        return t_ab

    def recording_matches(t_ab, *args, **kwargs):
        scored.append(t_ab.matrix.tobytes())
        return real_matches(t_ab, *args, **kwargs)

    monkeypatch.setattr(cosy.matching, "relative_pose_from_pairs", recording_pose)
    monkeypatch.setattr(cosy.matching, "_inlier_matches", recording_matches)
    repeated = 0
    for seed in range(200, 204):
        db, obs = shared_label_observations(seed)
        poses.clear()
        scored.clear()
        geo = label_geometry(db, [c.label for c in obs.candidates])
        two_view_ransac("view_000", "view_001", obs, geo, MatchParams(seed=seed))
        assert len(set(scored)) == len(scored)
        assert set(scored) == set(poses)
        repeated += len(poses) - len(set(poses))
    assert repeated > 0


# -------------------------------------------------------- build_match_graph


def test_three_views_make_triangles():
    db, scene = small_scene(4, 3, seed=61)
    obs = manual_observations(scene)
    graph = build_match_graph(obs, label_geometry(db, db.models))
    assert sorted(graph.hypotheses) == [
        ("view_000", "view_001"),
        ("view_000", "view_002"),
        ("view_001", "view_002"),
    ]
    edges = set(graph.edges)
    for oi in range(4):
        i0, i1, i2 = oi, 4 + oi, 8 + oi
        assert CandidatePair(i0, i1) in edges
        assert CandidatePair(i0, i2) in edges
        assert CandidatePair(i1, i2) in edges


def test_graph_requires_two_views():
    db, scene = small_scene(3, 1, seed=62)
    obs = manual_observations(scene)
    with pytest.raises(ValueError):
        build_match_graph(obs, label_geometry(db, db.models))


def test_no_label_overlap_gives_empty_graph():
    labels = tuple(f"m{i}" for i in range(6))
    db = make_models(labels, seed=4)
    views = (View("va", DEFAULT_INTRINSICS), View("vb", DEFAULT_INTRINSICS))
    pose = Pose.from_rt(np.eye(3), [0, 0, 1.0])
    cands = [Candidate("va", labels[i], 0.9, pose) for i in range(3)]
    cands += [Candidate("vb", labels[i], 0.9, pose) for i in range(3, 6)]
    obs = SceneObservations(views=views, candidates=tuple(cands))
    graph = build_match_graph(obs, label_geometry(db, labels))
    assert graph.edges == ()
    assert graph.hypotheses == {}
    assert extract_physical_objects(graph) == []


# ------------------------------------------------- extract_physical_objects


def manual_graph(labels_by_candidate, view_by_candidate, edges, scores=None):
    """Bare observations + edge list, skipping RANSAC entirely."""
    view_ids = sorted(set(view_by_candidate))
    views = tuple(View(v, DEFAULT_INTRINSICS) for v in view_ids)
    pose = Pose.from_rt(np.eye(3), [0, 0, 1.0])
    cands = tuple(
        Candidate(
            view_by_candidate[i],
            labels_by_candidate[i],
            0.9 if scores is None else scores[i],
            pose,
        )
        for i in range(len(labels_by_candidate))
    )
    obs = SceneObservations(views=views, candidates=cands)
    return MatchGraph(observations=obs, edges=tuple(edges), hypotheses={})


def test_empty_graph_extracts_nothing():
    graph = manual_graph(["x"], ["v0"], [])
    assert extract_physical_objects(graph) == []


def test_component_sizes_and_isolated_vertices():
    # candidates 0..2 form a triangle, 3:4 a pair, 5 stays isolated
    labels = ["a", "a", "a", "b", "b", "a"]
    views = ["v0", "v1", "v2", "v0", "v1", "v2"]
    edges = [
        CandidatePair(0, 1),
        CandidatePair(0, 2),
        CandidatePair(1, 2),
        CandidatePair(3, 4),
    ]
    objs = extract_physical_objects(manual_graph(labels, views, edges))
    assert len(objs) == 2
    assert [o.label for o in objs] == ["a", "b"]
    assert objs[0].members == (("v0", 0), ("v1", 1), ("v2", 2))
    assert objs[1].members == (("v0", 3), ("v1", 4))
    assert [o.id for o in objs] == [0, 1]


def test_same_view_conflict_resolved_by_score():
    labels = ["c", "c", "c"]
    views = ["v0", "v1", "v1"]
    scores = [0.8, 0.9, 0.4]
    edges = [CandidatePair(0, 1), CandidatePair(0, 2)]
    objs = extract_physical_objects(manual_graph(labels, views, edges, scores))
    assert len(objs) == 1
    assert objs[0].members == (("v0", 0), ("v1", 1))


def test_conflict_tie_keeps_lower_index():
    labels = ["c", "c", "c"]
    views = ["v0", "v1", "v1"]
    scores = [0.8, 0.7, 0.7]
    edges = [CandidatePair(0, 1), CandidatePair(0, 2)]
    objs = extract_physical_objects(manual_graph(labels, views, edges, scores))
    assert objs[0].members == (("v0", 0), ("v1", 1))


def test_object_ids_sorted_by_label_then_first_member():
    labels = ["b", "a", "b", "a", "a", "b"]
    views = ["v0", "v0", "v1", "v1", "v2", "v2"]
    edges = [CandidatePair(0, 2), CandidatePair(2, 5), CandidatePair(1, 3),
             CandidatePair(3, 4)]
    objs = extract_physical_objects(manual_graph(labels, views, edges))
    assert [(o.id, o.label) for o in objs] == [(0, "a"), (1, "b")]
    assert objs[0].members[0] == ("v0", 1)
    assert objs[1].members[0] == ("v0", 0)


def test_label_impurity_is_caught():
    labels = ["a", "b"]
    views = ["v0", "v1"]
    edges = [CandidatePair(0, 1)]
    with pytest.raises(AssertionError):
        extract_physical_objects(manual_graph(labels, views, edges))


# ------------------------------------------------------ end-to-end smoke


def test_noisy_scene_isolates_outliers_smoke():
    labels = tuple(f"obj_{i:02d}" for i in range(6))
    db = make_models(labels, seed=70, symmetric=("obj_03",))
    cfg = ScenarioConfig(n_objects=6, n_views=4, model_labels=labels, seed=70)
    scene = generate_scene(cfg, db)
    noise = NoiseModel(
        rot_sigma_deg=5.0,
        trans_sigma=0.005,
        miss_prob=0.2,
        outlier_prob=0.3,
    )
    obs, provenance = generate_observations(
        scene, noise, np.random.default_rng(70)
    )
    graph = build_match_graph(obs, label_geometry(db, labels))
    objs = extract_physical_objects(graph)

    matched = {idx for o in objs for _, idx in o.members}
    outliers = {i for i, p in enumerate(provenance) if p == -1}
    # most injected outliers must stay isolated (full statistics in the
    # acceptance suite; this is a wiring check)
    assert len(matched & outliers) <= max(1, len(outliers) // 3)
    for o in objs:
        assert all(obs.candidates[idx].label == o.label for _, idx in o.members)
