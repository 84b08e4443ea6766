"""Acceptance suite: one checkpoint per shipped guarantee.

Each test prints a single CRITERION line (PASS or FAIL, with the measured
numbers) before asserting, so running

    pytest tests/test_acceptance.py -s

always shows the full scoreboard. Criteria 4-6 run the whole pipeline on
simulated scenes; the rest check module-level contracts against
independent brute-force oracles.
"""

import itertools
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import oracles
from cosy import evaluation as ev
from cosy.geometry import CameraIntrinsics, Pose, apply_matrices, rotation_from_6d
from cosy.matching import (
    MatchParams,
    _candidate_pairs,
    _valid_combo_count,
    build_match_graph,
    extract_physical_objects,
    hypothesis_combos,
    label_geometry,
)
from cosy.refinement import (
    RefineConfig,
    SceneState,
    candidate_images,
    express_in_camera_frames,
    initialize_scene,
    linearize,
    pose_stack,
    refine,
    refine_best_of,
    select_targets,
    total_loss,
)
from cosy.scene_io import ObjectModel
from cosy.simulation import (
    OUTLIER,
    NoiseModel,
    ScenarioConfig,
    generate_observations,
    generate_scene,
    make_models,
)
from cosy.singleview import apply_update, crop_from_pose, target_update
from cosy.symmetry import SymmetrySpec, discretize, symmetric_distance

from test_matching import manual_observations, small_scene
from test_refinement import (
    consistent_setup,
    mean_candidate_adds,
    mean_member_adds,
    noisy_depth_scene,
    perturbed_state,
    step,
)


# One line per criterion; echoed after the run by the conftest summary
# hook so the scoreboard shows even when pytest captures stdout.
SCOREBOARD: list[str] = []


def report(num, name, ok, detail):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    SCOREBOARD.append(line)
    print(line)
    assert ok, line


# ------------------------------------------------------------- criterion 1


def test_criterion_1_symmetric_distance_oracle():
    # 500 random (model, group, T1, T2) instances: exact agreement with an
    # independent double-loop oracle, plus invariance of the distance under
    # right-composition with any group element (the groups below are closed:
    # cyclic, reflection, and dihedral sets).
    t0 = time.perf_counter()
    flip_x = Pose.from_rt(
        oracles.rotation_about_axis([1.0, 0.0, 0.0], math.pi), [0.0, 0.0, 0.0]
    )
    z_axis = (([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),)
    y_axis = (([0.0, 1.0, 0.0], [0.0, 0.0, 0.0]),)
    groups = [
        discretize(SymmetrySpec()),
        discretize(SymmetrySpec(discrete=(Pose.identity(), flip_x))),
        discretize(SymmetrySpec(continuous_axes=z_axis), angles_per_axis=4),
        discretize(SymmetrySpec(continuous_axes=z_axis), angles_per_axis=8),
        discretize(SymmetrySpec(continuous_axes=z_axis), angles_per_axis=32),
        discretize(SymmetrySpec(continuous_axes=y_axis), angles_per_axis=6),
        discretize(
            SymmetrySpec(discrete=(Pose.identity(), flip_x), continuous_axes=z_axis),
            angles_per_axis=8,
        ),
    ]

    rng = np.random.default_rng(101)
    exact = True
    worst_inv = 0.0
    for _ in range(500):
        gi = int(rng.integers(len(groups)))
        g = groups[gi]
        pts = rng.uniform(-0.05, 0.05, size=(int(rng.integers(10, 41)), 3))
        t1 = Pose(oracles.random_pose_matrix(rng))
        t2 = Pose(oracles.random_pose_matrix(rng))
        images = apply_matrices(g.matrices, pts)
        d = symmetric_distance(pts, images, t1, t2)
        want = oracles.symmetric_distance(t1.matrix, t2.matrix, g.matrices, pts)
        exact = exact and d == want
        for _ in range(3):
            s = Pose(g.matrices[int(rng.integers(len(g)))])
            ds = symmetric_distance(pts, images, t1.compose(s), t2)
            worst_inv = max(worst_inv, abs(ds - d) / max(d, 1e-12))
    dt = time.perf_counter() - t0
    ok = exact and worst_inv <= 1e-9 and dt < 5.0
    report(
        1,
        "symmetric distance vs brute force",
        ok,
        f"exact={exact}, group invariance {worst_inv:.2e} <= 1e-9, {dt:.2f}s < 5s",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_parameterization_round_trips():
    # rotation_from_6d must reproduce 1000 rotations from their first two
    # columns; target_update must be the exact inverse of apply_update on
    # 1000 random pose pairs with positive depth.
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_rot = 0.0
    for _ in range(1000):
        R = oracles.random_rotation(rng)
        got = rotation_from_6d(R[:, 0], R[:, 1])
        worst_rot = max(worst_rot, float(np.linalg.norm(got - R)))

    K = CameraIntrinsics(fx=600.0, fy=580.0, cx=320.0, cy=240.0, width=640, height=480)
    pts = rng.uniform(-0.04, 0.04, size=(30, 3))
    model = ObjectModel(label="m", points=pts, diameter=0.15)
    worst_rt = 0.0
    for _ in range(1000):
        t_k = Pose.from_rt(
            oracles.random_rotation(rng),
            [rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0)],
        )
        t_gt = Pose.from_rt(
            oracles.random_rotation(rng),
            [rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(0.5, 2.0)],
        )
        crop = crop_from_pose(t_k, model, K)
        out = apply_update(t_k, target_update(t_k, t_gt, crop), crop)
        worst_rt = max(worst_rt, float(np.max(np.abs(out.matrix - t_gt.matrix))))
    dt = time.perf_counter() - t0
    ok = worst_rot <= 1e-9 and worst_rt <= 1e-9 and dt < 2.0
    report(
        2,
        "rotation and update round trips",
        ok,
        f"6d {worst_rot:.2e} <= 1e-9, update {worst_rt:.2e} <= 1e-9, {dt:.2f}s < 2s",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_hypothesis_enumeration():
    # Two views sharing six uniquely-labeled candidates: 6 label-consistent
    # pairs, C(6,2) = 15 valid unordered pair-of-pairs, all enumerated.
    t0 = time.perf_counter()
    db, scene = small_scene(6, 2, seed=30)
    obs = manual_observations(scene)
    by_view = obs.by_view()
    pairs = _candidate_pairs(by_view["view_000"], by_view["view_001"])
    combos = hypothesis_combos(pairs, 2000, lambda: np.random.default_rng(0))
    dt = time.perf_counter() - t0
    ok = (
        len(pairs) == 6
        and _valid_combo_count(pairs) == 15
        and len(combos) == 15
        and combos == list(itertools.combinations(range(6), 2))
        and dt < 1.0
    )
    report(
        3,
        "two-view hypothesis count",
        ok,
        f"pairs={len(pairs)}, combos={len(combos)} == 15, {dt:.2f}s < 1s",
    )


# ------------------------------------------------------------- criterion 4


def test_criterion_4_zero_noise_recovery():
    # 50 noise-free scenes, full pipeline: every relative camera pose and
    # every object pose must come back numerically exact (up to gauge and
    # object symmetry).
    t0 = time.perf_counter()
    worst_rot = worst_trans = worst_adds = 0.0
    structure_ok = True
    for seed in range(50):
        n_objects = 5 + seed % 4
        labels = [f"obj_{i:02d}" for i in range(n_objects)]
        db = make_models(labels, seed=7, symmetric=("obj_03",))
        cfg = ScenarioConfig(
            n_objects=n_objects, n_views=4, model_labels=labels, seed=seed
        )
        scene = generate_scene(cfg, db)
        obs, _ = generate_observations(
            scene, NoiseModel(), np.random.default_rng(seed)
        )
        geo = label_geometry(db, db.models)
        graph = build_match_graph(obs, geo)
        objs = extract_physical_objects(graph)
        structure_ok = structure_ok and len(objs) == n_objects
        state, kept, _, _ = refine_best_of(
            objs, graph.hypotheses, obs, geo, RefineConfig(), n_starts=1
        )

        ids = [v.view_id for v in scene.views]
        for i in range(4):
            for j in range(i + 1, 4):
                rel_est = state.camera_poses[ids[i]].inverse().compose(
                    state.camera_poses[ids[j]]
                )
                rel_gt = scene.camera_poses[i].inverse().compose(scene.camera_poses[j])
                dr = rel_est.rotation @ rel_gt.rotation.T
                ang = float(np.arccos(np.clip((np.trace(dr) - 1.0) / 2.0, -1.0, 1.0)))
                worst_rot = max(worst_rot, ang)
                worst_trans = max(
                    worst_trans,
                    float(np.linalg.norm(rel_est.translation - rel_gt.translation)),
                )

        recs = express_in_camera_frames(state, kept, obs)
        structure_ok = structure_ok and len({r.object_id for r in recs}) == n_objects
        vidx = {v.view_id: i for i, v in enumerate(scene.views)}
        for r in recs:
            gts = [
                scene.camera_frame_pose(vidx[r.view_id], oi)
                for oi, lab in enumerate(scene.object_labels)
                if lab == r.label
            ]
            err = min(ev.adds_error(db[r.label], r.pose, g) for g in gts)
            worst_adds = max(worst_adds, err)
    dt = time.perf_counter() - t0
    ok = (
        structure_ok
        and worst_rot < 1e-6
        and worst_trans < 1e-6
        and worst_adds <= 1e-6
        and dt < 60.0
    )
    report(
        4,
        "zero-noise scene recovery",
        ok,
        f"rel rot {worst_rot:.2e} < 1e-6 rad, rel trans {worst_trans:.2e} < 1e-6 m, "
        f"adds {worst_adds:.2e} <= 1e-6, objects complete={structure_ok}, "
        f"{dt:.1f}s < 60s",
    )


# ------------------------------------------------------------- criterion 5


def test_criterion_5_outlier_rejection_and_pair_recall():
    # 100 scenes with 5 mm / 5 deg candidate noise, 30% injected outliers,
    # 20% missed detections, unique labels. Outliers must stay isolated,
    # true cross-view pairs must be matched, and no recovered object may
    # mix candidates of two ground-truth objects.
    t0 = time.perf_counter()
    iso_n = iso_d = pair_n = pair_d = wrong = 0
    params = MatchParams(inlier_threshold=0.08)
    for seed in range(100):
        labels = [f"obj_{i:02d}" for i in range(6)]
        db = make_models(labels, seed=7, symmetric=("obj_03",))
        cfg = ScenarioConfig(n_objects=6, n_views=4, model_labels=labels, seed=seed)
        scene = generate_scene(cfg, db)
        noise = NoiseModel(
            rot_sigma_deg=5.0, trans_sigma=0.005, miss_prob=0.2, outlier_prob=0.3
        )
        obs, prov = generate_observations(scene, noise, np.random.default_rng(seed))
        graph = build_match_graph(obs, label_geometry(db, db.models), params)

        edge_set = {(min(e.a, e.b), max(e.a, e.b)) for e in graph.edges}
        touched = {i for e in graph.edges for i in (e.a, e.b)}
        for i, p in enumerate(prov):
            if p == OUTLIER:
                iso_d += 1
                iso_n += i not in touched
        view_of = [c.view_id for c in obs.candidates]
        for i in range(len(prov)):
            if prov[i] == OUTLIER:
                continue
            for j in range(i + 1, len(prov)):
                if prov[j] == prov[i] and view_of[i] != view_of[j]:
                    pair_d += 1
                    pair_n += (i, j) in edge_set
        for o in extract_physical_objects(graph):
            gt_objects = {prov[idx] for _, idx in o.members if prov[idx] != OUTLIER}
            wrong += len(gt_objects) > 1
    dt = time.perf_counter() - t0
    iso_rate = iso_n / iso_d
    pair_rate = pair_n / pair_d
    ok = iso_rate >= 0.95 and pair_rate >= 0.90 and wrong == 0 and dt < 300.0
    report(
        5,
        "outlier isolation and pair recall",
        ok,
        f"isolated {iso_n}/{iso_d} ({iso_rate:.3f}) >= 0.95, "
        f"pairs {pair_n}/{pair_d} ({pair_rate:.3f}) >= 0.90, "
        f"mixed objects {wrong} == 0, {dt:.1f}s < 300s",
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_refinement_improves_accuracy():
    # 50 noisy scenes (10 mm translation noise with a depth-heavy component,
    # 5 deg rotation noise, 4-8 views): mean inlier ADD-S after refinement
    # must beat both the raw candidates and the initialization on >= 45
    # scenes, with >= 10% mean reduction.
    t0 = time.perf_counter()
    wins_cand = wins_init = 0
    red_cand, red_init = [], []
    for seed in range(50):
        db, scene, obs, prov = noisy_depth_scene(seed=seed, n_views=4 + seed % 5)
        geo = label_geometry(db, db.models)
        graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
        objs = extract_physical_objects(graph)
        state, kept, init, _ = refine_best_of(
            objs, graph.hypotheses, obs, geo, RefineConfig(), n_starts=6
        )
        after = mean_member_adds(state, kept, obs, db, scene, prov)
        before_init = mean_member_adds(init, kept, obs, db, scene, prov)
        before_cand = mean_candidate_adds(kept, obs, db, scene, prov)
        wins_cand += after < before_cand
        wins_init += after < before_init
        red_cand.append((before_cand - after) / before_cand)
        red_init.append((before_init - after) / before_init)
    dt = time.perf_counter() - t0
    mean_red_cand = float(np.mean(red_cand))
    mean_red_init = float(np.mean(red_init))
    ok = (
        wins_cand >= 45
        and wins_init >= 45
        and mean_red_cand >= 0.10
        and mean_red_init >= 0.10
        and dt < 300.0
    )
    report(
        6,
        "refinement accuracy gain",
        ok,
        f"beats candidates {wins_cand}/50 (mean reduction {mean_red_cand:.1%}), "
        f"beats initialization {wins_init}/50 (mean reduction {mean_red_init:.1%}), "
        f"thresholds >= 45 and >= 10%, {dt:.1f}s < 300s",
    )


# ------------------------------------------------------------- criterion 7


def test_criterion_7_optimizer_correctness():
    t0 = time.perf_counter()
    cfg = RefineConfig()

    # (a) analytic Jacobian vs central differences on 20 non-truncated states
    worst_jac = 0.0
    all_active = True
    scenes = [
        (3, 3, ("obj_01",)),
        (2, 2, ()),
        (4, 3, ("obj_00",)),
        (3, 2, ()),
        (2, 3, ("obj_01",)),
    ]
    for si, (n_obj, n_views, sym) in enumerate(scenes):
        db, scene, obs, objects, state = consistent_setup(
            n_objects=n_obj, n_views=n_views, seed=700 + si, symmetric=sym
        )
        rng = np.random.default_rng(700 + si)
        images = candidate_images(objects, obs, label_geometry(db, db.models))
        for _ in range(4):
            noisy = pose_stack(
                perturbed_state(state, rng, rot=0.01, trans=0.005), images
            )
            targets, _ = select_targets(noisy, images, cfg.truncation)
            all_active = all_active and bool(targets.active.all())
            _, block = linearize(targets)
            jac = oracles.dense_jacobian(block, targets)
            h = 1e-6
            fd = np.zeros_like(jac)
            for k in range(jac.shape[1]):
                e = np.zeros(jac.shape[1])
                e[k] = h
                rp = oracles.residual_vector(step(noisy, e), targets)
                rm = oracles.residual_vector(step(noisy, -e), targets)
                fd[:, k] = (rp - rm) / (2 * h)
            rel = np.max(np.abs(fd - jac)) / max(1.0, float(np.max(np.abs(jac))))
            worst_jac = max(worst_jac, float(rel))

    # (b) total_loss invariance under 100 global rigid transforms
    db, scene, obs, objects, state = consistent_setup(
        n_objects=3, n_views=3, seed=77, symmetric=("obj_01",)
    )
    noisy = perturbed_state(state, np.random.default_rng(77))
    geo = label_geometry(db, db.models)
    loss0 = total_loss(noisy, objects, obs, geo, cfg)
    rng = np.random.default_rng(78)
    worst_gauge = 0.0
    for _ in range(100):
        g = Pose(oracles.random_pose_matrix(rng))
        moved = SceneState(
            camera_poses={k: g.compose(v) for k, v in noisy.camera_poses.items()},
            object_poses={k: g.compose(v) for k, v in noisy.object_poses.items()},
        )
        loss_g = total_loss(moved, objects, obs, geo, cfg)
        worst_gauge = max(worst_gauge, abs(loss_g - loss0) / max(loss0, 1e-12))

    # (c) accepted-step loss traces are monotone non-increasing
    monotone = True
    for seed in (0, 5, 9):
        db, scene, obs, prov = noisy_depth_scene(seed=seed)
        geo = label_geometry(db, db.models)
        graph = build_match_graph(obs, geo, MatchParams(inlier_threshold=0.2))
        objs = extract_physical_objects(graph)
        state0, _ = initialize_scene(
            objs, graph.hypotheses, obs, np.random.default_rng(seed)
        )
        trace = []
        refine(state0, objs, obs, geo, cfg, trace=trace)
        monotone = monotone and all(
            b <= a + 1e-12 for a, b in zip(trace, trace[1:])
        )
    dt = time.perf_counter() - t0
    ok = (
        all_active
        and worst_jac <= 1e-4
        and worst_gauge <= 1e-9
        and monotone
        and dt < 30.0
    )
    report(
        7,
        "optimizer correctness",
        ok,
        f"jacobian rel err {worst_jac:.2e} <= 1e-4 (20 states, none truncated: "
        f"{all_active}), gauge {worst_gauge:.2e} <= 1e-9 (100 transforms), "
        f"monotone traces={monotone}, {dt:.1f}s < 30s",
    )


# ------------------------------------------------------------- criterion 8


@dataclass
class _Det:
    pose_world: Pose
    score: float


def _naive_ap(flags, n_gt):
    if not flags:
        return 0.0
    tps = 0
    prec, rec = [], []
    for k, f in enumerate(flags, 1):
        tps += bool(f)
        prec.append(tps / k)
        rec.append(tps / n_gt)
    area = prev = 0.0
    for k in range(len(flags)):
        if rec[k] > prev:
            area += (rec[k] - prev) * max(prec[k:])
            prev = rec[k]
    return area


def _naive_map(preds, gts, db, fraction):
    aps = []
    for label in sorted({g.label for g in gts}):
        model = db[label]
        l_preds = [p for p in preds if p.label == label]
        l_gts = [g for g in gts if g.label == label]
        order = sorted(range(len(l_preds)), key=lambda i: (-l_preds[i].score, i))
        claimed = set()
        flags = []
        for pi in order:
            p = l_preds[pi]
            best_gt, best_err = -1, math.inf
            for gi, g in enumerate(l_gts):
                if gi in claimed or g.view_id != p.view_id:
                    continue
                err = oracles.adds_error(p.pose.matrix, g.pose.matrix, model.points)
                if err < fraction * model.diameter and err < best_err:
                    best_gt, best_err = gi, err
            if best_gt >= 0:
                claimed.add(best_gt)
                flags.append(True)
            else:
                flags.append(False)
        aps.append(_naive_ap(flags, len(l_gts)))
    return sum(aps) / len(aps)


def _naive_nms(objects, radius):
    order = sorted(range(len(objects)), key=lambda i: (-objects[i].score, i))
    kept = []
    for i in order:
        p = objects[i].pose_world.translation
        if all(
            float(np.linalg.norm(p - objects[j].pose_world.translation)) >= radius
            for j in kept
        ):
            kept.append(i)
    return [objects[i] for i in sorted(kept)]


def test_criterion_8_metric_oracles():
    # Every metric must agree exactly (==) with an independent brute-force
    # reimplementation on 100 randomized instances; the AUC must hit its
    # three analytic fixed points.
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    exact = True
    for trial in range(100):
        pts = rng.uniform(-0.05, 0.05, size=(int(rng.integers(8, 21)), 3))
        model = ObjectModel(label="m", points=pts, diameter=0.2)
        t1 = Pose(oracles.random_pose_matrix(rng))
        t2 = Pose(oracles.random_pose_matrix(rng))
        exact = exact and ev.add_error(model, t1, t2) == oracles.add_error(
            t1.matrix, t2.matrix, pts
        )
        exact = exact and ev.adds_error(model, t1, t2) == oracles.adds_error(
            t1.matrix, t2.matrix, pts
        )

        errors = rng.uniform(0.0, 0.2, size=int(rng.integers(1, 31))).tolist()
        exact = exact and ev.add_s_auc(errors) == oracles.auc_of_recall(errors, 0.10)

        diams = rng.uniform(0.05, 0.3, size=len(errors)).tolist()
        naive_recall = sum(
            e < 0.1 * d for e, d in zip(errors, diams)
        ) / len(errors)
        exact = exact and ev.recall_at_fraction_of_diameter(errors, diams) == naive_recall

        flags = [bool(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 16)))]
        n_gt = max(1, sum(flags)) + int(rng.integers(0, 4))
        exact = exact and ev.average_precision(flags, n_gt) == _naive_ap(flags, n_gt)

        labels = ["a", "b"][: int(rng.integers(1, 3))]
        db = {
            lab: ObjectModel(
                label=lab,
                points=rng.uniform(-0.04, 0.04, size=(10, 3)),
                diameter=0.15,
            )
            for lab in labels
        }
        views = ["v0", "v1"]
        gts, preds = [], []
        for lab in labels:
            for _ in range(int(rng.integers(1, 4))):
                gts.append(
                    ev.PosePrediction(
                        view_id=views[int(rng.integers(2))],
                        label=lab,
                        score=0.0,
                        pose=Pose(oracles.random_pose_matrix(rng)),
                    )
                )
            for _ in range(int(rng.integers(2, 6))):
                base = gts[int(rng.integers(len(gts)))]
                near = rng.random() < 0.6
                pose = (
                    Pose(oracles.random_pose_nudge(base.pose.matrix, rng, 0.05, 0.004))
                    if near
                    else Pose(oracles.random_pose_matrix(rng))
                )
                preds.append(
                    ev.PosePrediction(
                        view_id=base.view_id,
                        label=lab,
                        score=float(rng.random()),
                        pose=pose,
                    )
                )
        exact = exact and ev.evaluate(preds, gts, db).map_adds == _naive_map(
            preds, gts, db, 0.1
        )

        dets = [
            _Det(
                pose_world=Pose.from_rt(
                    oracles.random_rotation(rng), rng.uniform(-0.1, 0.1, size=3)
                ),
                score=float(rng.random()),
            )
            for _ in range(int(rng.integers(1, 10)))
        ]
        radius = float(rng.uniform(0.02, 0.15))
        got = ev.nms_3d(dets, radius)
        want = _naive_nms(dets, radius)
        exact = exact and len(got) == len(want) and all(
            a is b for a, b in zip(got, want)
        )

    fixed = (
        ev.add_s_auc([0.0, 0.0, 0.0]) == 1.0
        and ev.add_s_auc([0.10, 0.25, 1.0]) == 0.0
        and ev.add_s_auc([0.05]) == 0.5
    )
    dt = time.perf_counter() - t0
    ok = exact and fixed and dt < 10.0
    report(
        8,
        "metric oracles",
        ok,
        f"exact match on 100 instances={exact}, auc fixed points={fixed}, "
        f"{dt:.2f}s < 10s",
    )


# ------------------------------------------------------------- criterion 9


def test_criterion_9_cli_determinism(tmp_path):
    # The solve command must produce byte-identical estimates across runs
    # and across thread counts.
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "cosy.cli", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        return proc

    scene_dir = tmp_path / "scene"
    run(
        "simulate",
        "--out-dir", str(scene_dir),
        "--seed", "5",
        "--n-objects", "5",
        "--n-views", "4",
        "--rot-sigma-deg", "3.0",
        "--trans-sigma", "0.008",
        "--outlier-prob", "0.1",
        "--miss-prob", "0.1",
    )
    outs = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for out, threads in zip(outs, ("1", "1", "8")):
        run(
            "solve",
            "--models", str(scene_dir / "models.json"),
            "--observations", str(scene_dir / "observations.json"),
            "--out", str(out),
            "--seed", "11",
            "--inlier-threshold", "0.06",
            "--restarts", "2",
            "--threads", threads,
        )
    blobs = [out.read_bytes() for out in outs]
    rerun_same = blobs[0] == blobs[1]
    threads_same = blobs[0] == blobs[2]
    ok = rerun_same and threads_same
    report(
        9,
        "solve determinism",
        ok,
        f"rerun identical={rerun_same}, threads 1 vs 8 identical={threads_same}, "
        f"{len(blobs[0])} bytes",
    )
