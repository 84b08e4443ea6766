"""End-to-end tests for the command-line pipeline."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest

import cosy.matching
import cosy.refinement
import oracles
from cosy import cli
from cosy import evaluation as ev
from cosy.cli import EXIT_CONFIG, EXIT_NO_SCENE, EXIT_OK, derive_seed, main
from cosy.evaluation import PosePrediction, evaluate
from cosy.geometry import Pose
from cosy.scene_io import (
    EstimatedCamera,
    EstimatedObject,
    SceneEstimate,
    SceneObservations,
    load_estimate,
    load_ground_truth,
    load_json,
    load_models,
    save_estimate,
    save_models,
    save_observations,
)

from test_matching import manual_observations, small_scene


def parser_output(capsys, parse, argv):
    """(exit code, stdout, stderr) of one parse; SystemExit gives the code."""
    capsys.readouterr()
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    shown = capsys.readouterr()
    return code, shown.out, shown.err


@pytest.mark.parametrize("argv", [
    ["-h"], ["solve", "-h"], ["eval", "-h"], ["simulate", "--help"],
    [], ["bogus"], ["solve", "--bogus"], ["eval", "--models"], ["solve"],
    ["simulate", "--seed", "x", "--out-dir", "d"], ["report", "--input", "a", "b"],
], ids=lambda argv: " ".join(argv) or "none")
def test_main_parses_as_the_full_parser(capsys, argv):
    # main builds only the invoked command's parser; its help, its error
    # text and its exit code are the full parser's, byte for byte.
    want = parser_output(capsys, cli.build_parser().parse_args, argv)
    got = parser_output(capsys, main, argv)
    assert want[0] in (0, 2) and (want[1] or want[2])
    assert got == want


def test_main_builds_only_the_invoked_command(monkeypatch, tmp_path):
    built = []
    commands = {
        name: (help_text, lambda p, name=name, add=add: (built.append(name), add(p)),
               handler)
        for name, (help_text, add, handler) in cli._COMMANDS.items()
    }
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    assert main(["report", "--input", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert built == ["report"]
    built.clear()
    assert main(["-h"]) == EXIT_OK
    assert built == list(commands)


def simulate(tmp_path, *extra, seed=3):
    args = [
        "simulate",
        "--out-dir", str(tmp_path),
        "--seed", str(seed),
        *extra,
    ]
    assert main(args) == EXIT_OK
    return (
        tmp_path / "models.json",
        tmp_path / "observations.json",
        tmp_path / "ground_truth.json",
    )


def solve(models, observations, out, *extra, seed=11):
    return main([
        "solve",
        "--models", str(models),
        "--observations", str(observations),
        "--out", str(out),
        "--seed", str(seed),
        *extra,
    ])


# ------------------------------------------------------------------ helpers


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "match") == derive_seed(7, "match")
    assert derive_seed(7, "match") != derive_seed(7, "refine")
    assert derive_seed(7, "match") != derive_seed(8, "match")
    assert 0 <= derive_seed(0, "x") < 2 ** 63


# ----------------------------------------------------------------- simulate


def test_simulate_writes_three_files_bit_identically(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    files_a = simulate(a, seed=0)
    files_b = simulate(b, seed=0)
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_simulate_rejects_bad_config(tmp_path):
    assert main(["simulate", "--out-dir", str(tmp_path), "--seed", "0",
                 "--n-views", "0"]) == EXIT_CONFIG
    assert main(["simulate", "--out-dir", str(tmp_path), "--seed", "0",
                 "--symmetric-labels", "nope"]) == EXIT_CONFIG


def test_simulate_rejects_non_finite_noise_and_no_points(tmp_path, capsys):
    # Each bad value is rejected before any file is written, naming its flag.
    out_dir = tmp_path / "scene"
    for flag, value, message in [
        ("--rot-sigma-deg", "nan", "rot_sigma_deg must be finite and >= 0"),
        ("--rot-sigma-deg", "inf", "rot_sigma_deg must be finite and >= 0"),
        ("--trans-sigma", "nan", "trans_sigma must be finite and >= 0"),
        ("--trans-sigma", "inf", "trans_sigma must be finite and >= 0"),
        ("--depth-sigma-extra", "-inf", "depth_sigma_extra must be finite"),
        ("--n-points", "0", "n_points must be >= 1"),
        ("--n-objects", "0", "--n-objects must be >= 1, got 0"),
    ]:
        capsys.readouterr()
        assert main(["simulate", "--out-dir", str(out_dir), "--seed", "0",
                     f"{flag}={value}"]) == EXIT_CONFIG
        shown = capsys.readouterr()
        assert message in shown.err
        assert "Traceback" not in shown.err
        assert shown.out == ""
        assert not out_dir.exists()


def test_simulate_rejects_one_point_models_naming_the_flag(tmp_path, capsys):
    # A one-point model has diameter 0. Symmetric labels build an orbit of
    # at least 16 points, so a scene of symmetric labels only still works.
    out_dir = tmp_path / "scene"
    capsys.readouterr()
    assert main(["simulate", "--out-dir", str(out_dir), "--seed", "0",
                 "--n-points", "1"]) == EXIT_CONFIG
    shown = capsys.readouterr()
    assert "--n-points must be >= 2 for labels without symmetry, got 1" in shown.err
    assert "Traceback" not in shown.err
    assert shown.out == ""
    assert not out_dir.exists()
    assert main(["simulate", "--out-dir", str(out_dir), "--seed", "0",
                 "--n-objects", "2", "--n-labels", "1",
                 "--symmetric-labels", "obj_00", "--n-points", "1"]) == EXIT_OK
    assert len(load_json(out_dir / "models.json")["models"]) == 1


@pytest.mark.parametrize("flag, values, message", [
    ("--radius-range", ("nan", "nan"), "radius_range must be finite"),
    ("--radius-range", ("inf", "inf"), "radius_range must be finite"),
    ("--radius-range", ("0.07", "0.03"),
     "radius_range must be finite with 0 < min <= max"),
    ("--camera-distance", ("inf", "inf"), "camera_distance_range must be finite"),
    ("--camera-distance", ("1", "inf"), "camera_distance_range must be finite"),
    ("--box-size", ("inf",), "box_size must be finite and > 0"),
])
def test_simulate_rejects_non_finite_or_reversed_ranges(tmp_path, capsys, flag,
                                                         values, message):
    # Each bad range is rejected naming its field, before any file is written.
    out_dir = tmp_path / "scene"
    capsys.readouterr()
    assert main(["simulate", "--out-dir", str(out_dir), "--seed", "0",
                 flag, *values]) == EXIT_CONFIG
    shown = capsys.readouterr()
    assert message in shown.err
    assert "Traceback" not in shown.err
    assert shown.out == ""
    assert not out_dir.exists()


def test_simulate_candidate_count_bound(tmp_path):
    # 4 views x 6 objects, no outliers: at most one candidate per pair.
    _, obs_path, gt_path = simulate(tmp_path, "--n-objects", "6",
                                    "--n-views", "4")
    doc = load_json(obs_path)
    assert len(doc["candidates"]) <= 24
    gt = load_json(gt_path)
    assert all(p >= 0 for p in gt["provenance"])


def test_simulate_missing_seed_is_config_error(tmp_path):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == EXIT_CONFIG


# -------------------------------------------------------------------- solve


def test_solve_zero_noise_recovers_ground_truth(tmp_path):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "5",
                                    "--n-views", "4",
                                    "--symmetric-labels", "obj_02")
    out = tmp_path / "estimate.json"
    assert solve(models, obs, out) == EXIT_OK

    db = load_models(models)
    est = load_estimate(out)
    scene, _ = load_ground_truth(gt_path, db)
    cam_est = {c.view_id: c.pose_world for c in est.cameras}
    cam_gt = {v.view_id: p for v, p in zip(scene.views, scene.camera_poses)}
    view_ids = sorted(cam_gt)
    assert sorted(cam_est) == view_ids

    # relative camera poses agree to 1e-6 (world gauges differ)
    for a in view_ids:
        for b in view_ids:
            rel_est = cam_est[a].inverse().compose(cam_est[b])
            rel_gt = cam_gt[a].inverse().compose(cam_gt[b])
            assert np.max(np.abs(rel_est.translation - rel_gt.translation)) < 1e-6
            tr = np.trace(rel_est.rotation @ rel_gt.rotation.T)
            assert np.arccos(np.clip((tr - 1) / 2, -1, 1)) < 1e-6

    # camera-frame object poses reach ADD-S ~ 0 against ground truth
    from cosy.evaluation import adds_error
    label_gt = {}
    for vi, view in enumerate(scene.views):
        for oi, label in enumerate(scene.object_labels):
            label_gt.setdefault((view.view_id, label), []).append(
                scene.camera_frame_pose(vi, oi))
    assert len(est.objects) == 5
    for cam in est.cameras:
        inv = cam.pose_world.inverse()
        for obj in est.objects:
            pred = inv.compose(obj.pose_world)
            best = min(adds_error(db[obj.label], pred, g)
                       for g in label_gt[(cam.view_id, obj.label)])
            assert best < 1e-6


def test_solve_two_views_two_objects_exits_3_with_diagnostic(tmp_path):
    models, obs, _ = simulate(tmp_path, "--n-objects", "2", "--n-views", "2")
    out = tmp_path / "estimate.json"
    assert solve(models, obs, out) == EXIT_NO_SCENE
    est = load_estimate(out)
    assert est.objects == ()
    assert est.stats["n_components"] == 0
    assert est.config["seed"] == 11


def test_solve_deterministic_across_runs_and_threads(tmp_path):
    models, obs, _ = simulate(tmp_path, "--n-objects", "6", "--n-views", "4",
                              "--rot-sigma-deg", "5", "--trans-sigma", "0.01",
                              "--depth-sigma-extra", "0.06")
    outs = [tmp_path / f"e{i}.json" for i in range(3)]
    assert solve(models, obs, outs[0], "--inlier-threshold", "0.15") == EXIT_OK
    assert solve(models, obs, outs[1], "--inlier-threshold", "0.15") == EXIT_OK
    assert solve(models, obs, outs[2], "--inlier-threshold", "0.15",
                 "--threads", "8") == EXIT_OK
    blob = outs[0].read_bytes()
    assert outs[1].read_bytes() == blob
    assert outs[2].read_bytes() == blob


def test_solve_config_echo_and_stats(tmp_path):
    models, obs, _ = simulate(tmp_path, "--n-objects", "5", "--n-views", "3")
    out = tmp_path / "estimate.json"
    assert solve(models, obs, out, "--inlier-threshold", "0.04",
                 "--restarts", "2") == EXIT_OK
    doc = load_json(out)
    assert doc["config"]["inlier_threshold"] == 0.04
    assert doc["config"]["restarts"] == 2
    assert doc["config"]["seed"] == 11
    # Every flag but the file paths and --threads (result-neutral, stdout only).
    assert set(doc["config"]) == {
        "command", "seed", "min_score", "inlier_threshold", "ransac_max_iters",
        "min_inliers", "lm_iters", "truncation_px", "damping_init",
        "damping_factor", "rel_tol", "symmetry_angles", "nms_radius", "restarts",
    }
    stats = doc["stats"]
    assert stats["n_candidates"] == 15
    assert stats["n_components"] == 5
    assert stats["final_loss"] >= 0.0


@pytest.mark.parametrize("n_points", ["48", "520"], ids=["full", "subsampled"])
def test_solve_final_loss_is_total_loss_of_the_refined_state(
    tmp_path, monkeypatch, n_points
):
    # The written loss is refine_best_of's score of the best start; cmd_solve
    # scores nothing again, also when a model's residual points are a
    # subsample (520 > MAX_RESIDUAL_POINTS).
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3",
                              "--n-points", n_points)
    real_best_of, real_total_loss = cli.refine_best_of, cli.total_loss
    runs, total_loss_calls = [], []

    def recording_best_of(*args, **kwargs):
        runs.append((args, real_best_of(*args, **kwargs)))
        return runs[-1][1]

    def counting_total_loss(*args, **kwargs):
        total_loss_calls.append(1)
        return real_total_loss(*args, **kwargs)

    monkeypatch.setattr(cli, "refine_best_of", recording_best_of)
    monkeypatch.setattr(cli, "total_loss", counting_total_loss)
    out = tmp_path / "estimate.json"
    assert solve(models, obs, out) == EXIT_OK
    monkeypatch.undo()
    ((_, _, scene_obs, geo, cfg), (state, kept, _, _)), = runs
    assert len(total_loss_calls) == 0
    final_loss = load_json(out)["stats"]["final_loss"]
    assert final_loss == real_total_loss(state, kept, scene_obs, geo, cfg)


def test_solve_init_out_is_the_first_initialization(tmp_path, monkeypatch):
    models, obs, _ = simulate(tmp_path, "--n-objects", "5", "--n-views", "3",
                              "--rot-sigma-deg", "3", "--trans-sigma", "0.005",
                              "--symmetric-labels", "obj_01")
    real_best_of = cli.refine_best_of
    runs = []

    def recording_best_of(*args, **kwargs):
        runs.append(real_best_of(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "refine_best_of", recording_best_of)
    out, init_out = tmp_path / "estimate.json", tmp_path / "init.json"
    assert solve(models, obs, out, "--init-out", str(init_out)) == EXIT_OK
    (result,) = runs
    first_init = result[2]
    est, init = load_estimate(out), load_estimate(init_out)
    assert len(init.objects) == 5
    assert [(o.object_id, o.label, o.members, o.score) for o in init.objects] == [
        (o.object_id, o.label, o.members, o.score) for o in est.objects
    ]
    for o in init.objects:
        want = first_init.object_poses[int(o.object_id[1:])]
        assert np.array_equal(o.pose_world.matrix, want.matrix)
    assert [c.view_id for c in init.cameras] == sorted(first_init.camera_poses)
    for c in init.cameras:
        want = first_init.camera_poses[c.view_id]
        assert np.array_equal(c.pose_world.matrix, want.matrix)
    init_doc = load_json(init_out)
    assert init_doc["stats"] == {"stage": "initialization"}
    assert init_doc["config"] == load_json(out)["config"]


def test_solve_discretizes_each_candidate_label_once(tmp_path, monkeypatch):
    models, obs, _ = simulate(tmp_path, "--n-objects", "6", "--n-views", "4",
                              "--rot-sigma-deg", "3", "--trans-sigma", "0.005",
                              "--outlier-prob", "0.2", "--symmetric-labels", "obj_01")
    counts = {"matching": 0, "refinement": 0}

    def counting(module):
        real = module.discretize

        def wrapper(*args, **kwargs):
            counts[module.__name__.rsplit(".", 1)[-1]] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (cosy.matching, cosy.refinement):
        monkeypatch.setattr(module, "discretize", counting(module))
    assert solve(models, obs, tmp_path / "estimate.json") == EXIT_OK
    labels = {
        c["label"] for c in load_json(obs)["candidates"] if c["score"] > 0.3
    }
    assert counts == {"matching": len(labels), "refinement": 0}


def test_solve_rejects_symmetry_angles_below_one(tmp_path, capsys):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    out = tmp_path / "out.json"
    # Each bad value is rejected before any file is read (no "load:" line).
    for flag, value, message in [
        ("--symmetry-angles", "0", "--symmetry-angles must be >= 1, got 0"),
        ("--nms-radius", "0", "--nms-radius must be finite and > 0, got 0.0"),
        ("--threads", "0", "--threads must be >= 1, got 0"),
        ("--restarts", "0", "--restarts must be >= 1, got 0"),
        ("--min-inliers", "2", "--min-inliers must be >= 3, got 2"),
        ("--min-score", "nan", "--min-score must be finite, got nan"),
        # A damping ladder that starts above its ceiling never runs, so the
        # solve would report the initialization's loss as refined.
        ("--damping-init", "1e13", "--damping-init must be > 0 and <= 1e+12"),
        ("--damping-init", "inf", "--damping-init must be > 0 and <= 1e+12"),
        ("--damping-init", "0", "--damping-init must be > 0 and <= 1e+12"),
        # Non-finite values would be written into the config block as the
        # non-JSON token Infinity.
        ("--truncation-px", "inf", "--truncation-px must be finite and > 0"),
        ("--damping-factor", "inf", "--damping-factor must be finite and > 1"),
        ("--damping-factor", "1", "--damping-factor must be finite and > 1"),
        ("--inlier-threshold", "inf", "--inlier-threshold must be finite and > 0"),
        ("--inlier-threshold", "0", "--inlier-threshold must be finite and > 0"),
        ("--rel-tol", "inf", "--rel-tol must be finite and > 0"),
        ("--rel-tol", "0", "--rel-tol must be finite and > 0"),
        ("--nms-radius", "inf", "--nms-radius must be finite and > 0, got inf"),
        ("--lm-iters", "0", "--lm-iters must be >= 1, got 0"),
        ("--ransac-max-iters", "0", "--ransac-max-iters must be >= 1, got 0"),
    ]:
        capsys.readouterr()
        assert solve(models, obs, out, flag, value) == EXIT_CONFIG
        shown = capsys.readouterr()
        assert message in shown.err
        assert "Traceback" not in shown.err
        assert shown.out == ""
        assert not out.exists()


def test_solve_rejects_a_group_over_the_cap_naming_flag_and_label(tmp_path, capsys):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3",
                              "--symmetric-labels", "obj_01")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert solve(models, obs, out, "--symmetry-angles", "5000") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("error: --symmetry-angles 5000: label 'obj_01': discretization "
            "yields 5000 elements, cap is 4096") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_rejects_an_unknown_candidate_view_naming_the_field(tmp_path, capsys):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    doc = load_json(obs)
    doc["candidates"][5]["view_id"] = "view_777"
    obs.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert solve(models, obs, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {obs}: candidates[5].view_id: unknown view_id 'view_777'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_rejects_a_bad_candidate_score_naming_the_entry(tmp_path, capsys):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    doc = load_json(obs)
    doc["candidates"][3]["score"] = 1.5
    obs.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert solve(models, obs, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {obs}: candidates[3].score: 1.5 outside [0, 1]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("factor", ["1", "0.5"])
def test_solve_rejects_damping_factor_not_above_one(tmp_path, capsys, monkeypatch,
                                                     factor):
    # A factor <= 1 never lifts the damping past its ceiling, so a ladder
    # would not end; the solve must stop before refining anything.
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")

    def refine_never_runs(*args, **kwargs):
        raise AssertionError("refinement ran with a bad damping factor")

    monkeypatch.setattr(cli, "refine_best_of", refine_never_runs)
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert solve(models, obs, out, "--damping-factor", factor) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--damping-factor must be finite and > 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_starts_no_thread(tmp_path, monkeypatch):
    # View pairs are GIL-bound numpy work, so the solve runs them in the
    # calling thread whatever --threads says.
    models, obs, _ = simulate(tmp_path, "--n-objects", "5", "--n-views", "4")

    def no_thread(self):
        raise AssertionError(f"the solve started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    out = tmp_path / "out.json"
    assert solve(models, obs, out, "--threads", "2") == EXIT_OK
    assert load_estimate(out).objects


def test_solve_rejects_coplanar_model(tmp_path, capsys):
    # Matching needs non-coplanar points to pin down a pose; a flat model
    # must fail loudly rather than solve.
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    db = load_models(models)
    flat = db["obj_01"]
    points = flat.points.copy()
    points[:, 2] = 0.0
    db.models["obj_01"] = dataclasses.replace(flat, points=points)
    save_models(db, models)
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert solve(models, obs, out) == EXIT_CONFIG
    shown = capsys.readouterr()
    assert "model 'obj_01': points are coplanar" in shown.err
    assert "Traceback" not in shown.err
    assert not out.exists()


def test_solve_min_score_filters_members(tmp_path):
    models, obs, _ = simulate(tmp_path, "--n-objects", "5", "--n-views", "4")
    out = tmp_path / "estimate.json"
    assert solve(models, obs, out) == EXIT_OK
    scores = [c["score"] for c in load_json(obs)["candidates"]]
    members = [m["candidate_index"] for o in load_json(out)["objects"]
               for m in o["members"]]
    # The floor is strict: set at the weakest member's exact score, it drops
    # that member, and every survivor clears it.
    weakest = min(members, key=scores.__getitem__)
    floor = scores[weakest]
    assert solve(models, obs, out, "--min-score", repr(floor)) == EXIT_OK
    doc = load_json(out)
    assert doc["config"]["min_score"] == floor
    members = [m["candidate_index"] for o in doc["objects"] for m in o["members"]]
    assert members and weakest not in members
    assert all(scores[i] > floor for i in members)


def test_solve_reports_views_dropped_as_unreachable(tmp_path, capsys):
    # Views 0-1 see objects 0-2 and views 2-3 objects 3-5. No label spans
    # both groups, so no hypothesis links them and refinement prunes the
    # group that does not hold the root camera.
    db, scene = small_scene(6, 4, seed=4)
    obs = manual_observations(scene)
    keep = tuple(
        c for i, c in enumerate(obs.candidates) if (i // 6 < 2) == (i % 6 < 3)
    )
    models, observations = tmp_path / "models.json", tmp_path / "obs.json"
    save_models(db, models)
    save_observations(SceneObservations(views=obs.views, candidates=keep),
                      observations)
    out = tmp_path / "estimate.json"
    capsys.readouterr()
    assert solve(models, observations, out) == EXIT_OK
    shown = capsys.readouterr()
    stdout = shown.out
    # The drop is reported on stdout only: no warning reaches stderr.
    assert shown.err == ""
    groups = (("view_000", "view_001"), ("view_002", "view_003"))
    named = [
        g for g in groups
        if f"unreachable from the root camera: {', '.join(g)}" in stdout
    ]
    assert len(named) == 1
    cameras = {c.view_id for c in load_estimate(out).cameras}
    assert cameras.isdisjoint(named[0])


def test_solve_missing_file_is_config_error(tmp_path):
    assert solve(tmp_path / "nope.json", tmp_path / "nope2.json",
                 tmp_path / "out.json") == EXIT_CONFIG


def _corrupt_candidate_pose(obs_path, index, edit):
    doc = json.loads(obs_path.read_text())
    pose = np.array(doc["candidates"][index]["pose"], dtype=float).reshape(4, 4)
    edit(pose)
    doc["candidates"][index]["pose"] = [float(v) for v in pose.reshape(-1)]
    obs_path.write_text(json.dumps(doc))


def _set_nan(pose):
    pose[0, 1] = np.nan


def _scale_rotation(pose):
    pose[:3, :3] *= 1.5


@pytest.mark.parametrize("edit", [_set_nan, _scale_rotation],
                         ids=["nan_rotation", "scaled_rotation"])
def test_solve_rejects_non_rigid_candidate_pose(tmp_path, capsys, edit):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3",
                              "--symmetric-labels", "obj_00")
    _corrupt_candidate_pose(obs, 2, edit)
    capsys.readouterr()
    assert solve(models, obs, tmp_path / "out.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "candidates[2]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("field, value", [("width", -640), ("height", 0)])
def test_solve_rejects_a_non_positive_image_size(tmp_path, capsys, field, value):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    doc = json.loads(obs.read_text())
    doc["views"][1]["intrinsics"][field] = value
    obs.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert solve(models, obs, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "observations.json: views[1]: image width and height must be >= 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_rejects_nan_min_score(tmp_path, capsys):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert solve(models, obs, out, "--min-score", "nan") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--min-score must be finite, got nan" in err
    assert "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------------------- eval


def run_eval(models, estimate, gt, out, *extra):
    return main([
        "eval",
        "--models", str(models),
        "--estimate", str(estimate),
        "--ground-truth", str(gt),
        "--out", str(out),
        *extra,
    ])


def test_eval_ground_truth_estimate_scores_perfectly(tmp_path):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "4",
                                    "--n-views", "3")
    db = load_models(models)
    scene, _ = load_ground_truth(gt_path, db)
    est = SceneEstimate(
        cameras=tuple(
            EstimatedCamera(view_id=v.view_id, pose_world=p)
            for v, p in zip(scene.views, scene.camera_poses)
        ),
        objects=tuple(
            EstimatedObject(object_id=f"P{i:03d}", label=label, pose_world=p,
                            score=1.0, members=())
            for i, (label, p) in enumerate(
                zip(scene.object_labels, scene.object_poses))
        ),
    )
    est_path = tmp_path / "gt_estimate.json"
    save_estimate(est, est_path)
    out = tmp_path / "report.json"
    assert run_eval(models, est_path, gt_path, out) == EXIT_OK
    doc = load_json(out)
    assert doc["aggregate"]["recall_0p1d"] == 1.0
    assert doc["aggregate"]["map_adds"] == 1.0
    assert doc["aggregate"]["adds"] < 1e-12


def test_eval_empty_predictions_zero_map(tmp_path):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "3",
                                    "--n-views", "2")
    est_path = tmp_path / "empty.json"
    save_estimate(SceneEstimate(cameras=(), objects=()), est_path)
    out = tmp_path / "report.json"
    assert run_eval(models, est_path, gt_path, out) == EXIT_OK
    doc = load_json(out)
    assert doc["aggregate"]["map_adds"] == 0.0
    assert doc["aggregate"]["recall_0p1d"] == 0.0


def test_eval_matches_library_recomputation_exactly(tmp_path):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "5",
                                    "--n-views", "4",
                                    "--rot-sigma-deg", "3",
                                    "--trans-sigma", "0.005")
    out_est = tmp_path / "estimate.json"
    assert solve(models, obs, out_est, "--inlier-threshold", "0.05") == EXIT_OK
    out = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, out) == EXIT_OK

    db = load_models(models)
    est = load_estimate(out_est)
    scene, _ = load_ground_truth(gt_path, db)
    preds = []
    for cam in est.cameras:
        inv = cam.pose_world.inverse()
        for o in est.objects:
            preds.append(PosePrediction(view_id=cam.view_id, label=o.label,
                                        score=o.score,
                                        pose=inv.compose(o.pose_world)))
    gts = []
    for vi, view in enumerate(scene.views):
        for oi, label in enumerate(scene.object_labels):
            gts.append(PosePrediction(view_id=view.view_id, label=label,
                                      score=1.0,
                                      pose=scene.camera_frame_pose(vi, oi)))
    want = evaluate(preds, gts, db)
    doc = load_json(out)
    assert doc["aggregate"]["auc_adds"] == want.auc_adds
    assert doc["aggregate"]["recall_0p1d"] == want.recall_0p1d
    assert doc["aggregate"]["map_adds"] == want.map_adds
    assert doc["aggregate"]["adds"] == want.adds


def test_eval_before_after_table(tmp_path):
    models, obs, gt_path = simulate(
        tmp_path, "--n-objects", "8", "--n-views", "6",
        "--rot-sigma-deg", "5", "--trans-sigma", "0.01",
        "--depth-sigma-extra", "0.08", seed=5)
    out_est = tmp_path / "estimate.json"
    init_est = tmp_path / "init.json"
    assert solve(models, obs, out_est, "--inlier-threshold", "0.2",
                 "--init-out", str(init_est), "--restarts", "6") == EXIT_OK
    out = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, out,
                    "--before", str(init_est)) == EXIT_OK
    doc = load_json(out)
    comp = doc["comparison"]
    assert comp["before_adds_mm"] is not None
    assert comp["after_adds_mm"] < comp["before_adds_mm"]
    assert comp["reduction_percent"] > 0
    # Every flag but the file paths.
    assert doc["config"] == {
        "command": "eval",
        "diameter_fraction": ev.DEFAULT_DIAMETER_FRACTION,
        "auc_max": ev.DEFAULT_AUC_MAX,
        "compare_fraction": 0.5,
    }


@pytest.mark.parametrize("flag, value", [
    ("--diameter-fraction", "0"),
    ("--diameter-fraction", "nan"),
    ("--diameter-fraction", "-1"),
    ("--compare-fraction", "0"),
    ("--compare-fraction", "nan"),
    ("--compare-fraction", "-1"),
    ("--auc-max", "0"),
    ("--auc-max", "nan"),
    ("--auc-max", "-1"),
    ("--auc-max", "inf"),
])
def test_eval_rejects_fraction_not_finite_and_positive(tmp_path, capsys, monkeypatch,
                                                        flag, value):
    # Each bad value is rejected before any file is read: the input paths
    # do not exist, and loading models would fail the test.
    def never_loaded(*args, **kwargs):
        raise AssertionError("eval read a file before checking its flags")

    monkeypatch.setattr(cli, "load_models", never_loaded)
    missing = tmp_path / "missing.json"
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run_eval(missing, missing, missing, out, flag, value) == EXIT_CONFIG
    shown = capsys.readouterr()
    assert f"{flag} must be finite and > 0" in shown.err
    assert "Traceback" not in shown.err
    assert shown.out == ""
    assert not out.exists()


def test_eval_schema_mismatch_is_config_error(tmp_path):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "3",
                                    "--n-views", "2")
    bad = tmp_path / "bad.json"
    bad.write_text('{"cameras": "wrong"}')
    assert run_eval(models, bad, gt_path, tmp_path / "r.json") == EXIT_CONFIG


@pytest.mark.parametrize("before", [False, True])
def test_eval_writes_identical_bytes_twice(tmp_path, before):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "5",
                                    "--n-views", "4", "--n-labels", "3",
                                    "--symmetric-labels", "obj_00",
                                    "--rot-sigma-deg", "3",
                                    "--trans-sigma", "0.005")
    out_est, init_est = tmp_path / "estimate.json", tmp_path / "init.json"
    assert solve(models, obs, out_est, "--init-out", str(init_est)) == EXIT_OK
    extra = ("--before", str(init_est)) if before else ()
    outs = [tmp_path / "report_a.json", tmp_path / "report_b.json"]
    for out in outs:
        assert run_eval(models, out_est, gt_path, out, *extra) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert ("comparison" in load_json(outs[0])) == before


def test_eval_poses_each_record_and_scores_each_pair_once(tmp_path, monkeypatch):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "5",
                                    "--n-views", "4", "--n-labels", "3",
                                    "--symmetric-labels", "obj_00",
                                    "--rot-sigma-deg", "3",
                                    "--trans-sigma", "0.005")
    out_est, init_est = tmp_path / "estimate.json", tmp_path / "init.json"
    assert solve(models, obs, out_est, "--init-out", str(init_est)) == EXIT_OK

    db = load_models(models)
    scene, _ = load_ground_truth(gt_path, db)
    gts = cli._per_view_records(
        [(v.view_id, p) for v, p in zip(scene.views, scene.camera_poses)],
        [(label, 1.0, p) for label, p in zip(scene.object_labels, scene.object_poses)],
    )
    compare_fraction = cli.build_parser().parse_args(
        ["eval", "--models", "m", "--estimate", "e", "--ground-truth", "g", "--out", "o"]
    ).compare_fraction

    def examined(preds, fraction):
        pairs = set()
        for label in {g.label for g in gts}:
            lp = [i for i, p in enumerate(preds) if p.label == label]
            lg = [i for i, g in enumerate(gts) if g.label == label]
            scored = []
            oracles.greedy_adds_matches(
                [preds[i] for i in lp], [gts[i] for i in lg], db[label].points,
                fraction * db[label].diameter, scored)
            pairs |= {(lp[a], lg[b]) for a, b in scored}
        return pairs

    preds = cli._estimate_records(load_estimate(out_est))
    before_preds = cli._estimate_records(load_estimate(init_est))
    after = examined(preds, ev.DEFAULT_DIAMETER_FRACTION)
    after |= examined(preds, compare_fraction)
    before = examined(before_preds, compare_fraction)
    assert after and before
    # Each record of a ground-truth label is posed once per record set.
    gt_labels = {g.label for g in gts}
    n_posed = sum(p.label in gt_labels for p in preds + before_preds) + 2 * len(gts)

    pairs, posed = [], []
    real_adds, real_apply = ev.adds_error, ev.apply_matrices

    def counting_adds(model, t_pred, t_gt):
        pairs.append((id(t_pred), id(t_gt)))
        return real_adds(model, t_pred, t_gt)

    def counting_apply(matrices, pts):
        posed.append(len(matrices))
        return real_apply(matrices, pts)

    monkeypatch.setattr(ev, "adds_error", counting_adds)
    monkeypatch.setattr(ev, "apply_matrices", counting_apply)
    monkeypatch.setattr(ev, "apply_matrix", None)  # no per-pair posing
    out = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, out, "--before", str(init_est)) == EXIT_OK
    assert load_json(out)["comparison"]["after_matched"] > 0
    assert len(pairs) == len(set(pairs)) == len(after) + len(before)
    assert sum(posed) == n_posed


def _break_estimate_member(doc):
    doc["objects"][0]["members"] = [5]


def _break_ground_truth_intrinsics(doc):
    doc["views"][1]["intrinsics"] = 7


def _drop_box_size(doc):
    del doc["box_size"]


def _reorder_ground_truth_cameras(doc):
    doc["cameras"].reverse()


def _nan_box_size(doc):
    doc["box_size"] = math.nan


def _infinite_box_size(doc):
    doc["box_size"] = math.inf


def _zero_box_size(doc):
    doc["box_size"] = 0


def _negative_box_size(doc):
    doc["box_size"] = -0.5


def _unknown_ground_truth_label(doc):
    doc["objects"][1]["label"] = "obj_99"


def _object_outside_the_box(doc):
    doc["objects"][0]["pose_world"][3] = doc["box_size"]


def _repeat_estimate_camera(doc):
    doc["cameras"].append(doc["cameras"][0])


def _repeat_estimate_object(doc):
    doc["objects"][1]["object_id"] = doc["objects"][0]["object_id"]


def _unknown_estimate_camera_view(doc):
    doc["cameras"][0]["view_id"] = "view_999"


def _repeat_ground_truth_view(doc):
    for key in ("views", "cameras"):
        doc[key][2]["view_id"] = doc[key][1]["view_id"]


# (break an estimate, the message that names its file's field after
# "<file>: ")
_BAD_ESTIMATE_IDS = {
    "repeated-camera": (_repeat_estimate_camera, "cameras[{n}].view_id: "
                        "duplicate view_id 'view_000'"),
    "repeated-object": (_repeat_estimate_object, "objects[1].object_id: "
                        "duplicate object_id 'P000'"),
    "unknown-view": (_unknown_estimate_camera_view, "cameras[0].view_id: unknown "
                     "view_id 'view_999', not in the ground truth"),
}


@pytest.mark.parametrize("name, break_doc, message", [
    ("estimate.json", _break_estimate_member,
     "objects[0].members[0]: must be an object, got int"),
    ("ground_truth.json", _break_ground_truth_intrinsics,
     "views[1].intrinsics: must be an object, got int"),
    ("ground_truth.json", _drop_box_size, "missing field 'box_size'"),
    ("ground_truth.json", _reorder_ground_truth_cameras,
     "ground_truth.json: cameras must list the views' view_ids"),
    ("ground_truth.json", _nan_box_size,
     "ground_truth.json: box_size must be finite and > 0, got nan"),
    ("ground_truth.json", _infinite_box_size,
     "ground_truth.json: box_size must be finite and > 0, got inf"),
    ("ground_truth.json", _zero_box_size,
     "ground_truth.json: box_size must be finite and > 0, got 0.0"),
    ("ground_truth.json", _negative_box_size,
     "ground_truth.json: box_size must be finite and > 0, got -0.5"),
    ("ground_truth.json", _unknown_ground_truth_label,
     "ground_truth.json: objects[1].label: unknown label 'obj_99'"),
    ("ground_truth.json", _object_outside_the_box,
     "ground_truth.json: objects[0] outside the scene box"),
    ("ground_truth.json", _repeat_ground_truth_view,
     "ground_truth.json: views[2].view_id: duplicate view_id 'view_001'"),
    ("estimate.json", _repeat_estimate_camera,
     "estimate.json: cameras[3].view_id: duplicate view_id 'view_000'"),
    ("estimate.json", _repeat_estimate_object,
     "estimate.json: objects[1].object_id: duplicate object_id 'P000'"),
    ("estimate.json", _unknown_estimate_camera_view,
     "estimate.json: cameras[0].view_id: unknown view_id 'view_999'"),
])
def test_eval_malformed_input_exits_2_naming_the_field(
        tmp_path, capsys, name, break_doc, message):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "3",
                                    "--n-views", "3")
    out_est = tmp_path / "estimate.json"
    assert solve(models, obs, out_est) == EXIT_OK
    doc = json.loads((tmp_path / name).read_text())
    break_doc(doc)
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--estimate", "--before"])
def test_eval_rejects_an_estimate_label_absent_from_the_models(
        tmp_path, capsys, flag):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "3",
                                    "--n-views", "3")
    out_est = tmp_path / "estimate.json"
    assert solve(models, obs, out_est) == EXIT_OK
    broken = tmp_path / "broken.json"
    doc = json.loads(out_est.read_text())
    doc["objects"][0]["label"] = "zzz"
    broken.write_text(json.dumps(doc))
    estimate, before = (broken, out_est) if flag == "--estimate" else (out_est, broken)
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert run_eval(models, estimate, gt_path, out, "--before", str(before)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{broken}: objects[0].label: unknown label 'zzz'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_BAD_ESTIMATE_IDS))
def test_eval_rejects_repeated_or_unknown_ids_in_before(tmp_path, capsys, case):
    # Each would otherwise score with exit 0: a repeated camera duplicates
    # its view's records, a repeated object changes mAP, and an unknown
    # view's records are all false positives. The --estimate cases are in
    # test_eval_malformed_input_exits_2_naming_the_field.
    break_doc, message = _BAD_ESTIMATE_IDS[case]
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "4",
                                    "--n-views", "3")
    out_est = tmp_path / "estimate.json"
    assert solve(models, obs, out_est) == EXIT_OK
    broken = tmp_path / "broken.json"
    doc = json.loads(out_est.read_text())
    n_cameras = len(doc["cameras"])
    break_doc(doc)
    broken.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, out, "--before", str(broken)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{broken}: {message.format(n=n_cameras)}" in err
    assert "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------------- report


def test_report_renders_eval_output(tmp_path, capsys):
    models, obs, gt_path = simulate(tmp_path, "--n-objects", "4",
                                    "--n-views", "3")
    out_est = tmp_path / "estimate.json"
    assert solve(models, obs, out_est) == EXIT_OK
    report_json = tmp_path / "report.json"
    assert run_eval(models, out_est, gt_path, report_json) == EXIT_OK
    capsys.readouterr()
    text_out = tmp_path / "report.txt"
    assert main(["report", "--input", str(report_json),
                 "--out", str(text_out)]) == EXIT_OK
    shown = capsys.readouterr().out
    assert "aggregate metrics" in shown
    assert "obj_00" in shown
    assert text_out.read_text() in shown


def test_report_rejects_non_report_json(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"not": "a report"}')
    assert main(["report", "--input", str(path)]) == EXIT_CONFIG
    # A well-formed report renders; each broken copy exits 2 naming the key.
    counts = {"n_gt": 2, "n_matched": 1, "n_predictions": 3}
    good = {
        "aggregate": {"add": 0.01, "adds": None, "auc_adds": 0.5,
                      "recall_0p1d": 1, "map_adds": 0.5, **counts},
        "per_label": {"obj_00": {"adds": 0.002, "auc_adds": 0.5,
                                 "recall_0p1d": 1.0, "ap_adds": None, "n_gt": 2}},
        "comparison": {"before_adds_mm": 4.0, "after_adds_mm": 2.0,
                       "before_matched": 1, "after_matched": 1,
                       "reduction_percent": 50.0},
    }
    path.write_text(json.dumps(good))
    assert main(["report", "--input", str(path)]) == EXIT_OK
    broken = [
        ({"aggregate": []}, "aggregate: must be an object, got list"),
        ({"per_label": {"obj_00": {}}},
         "per_label.obj_00.n_gt: must be an integer, got None"),
        ({"per_label": {"obj_00": 7}}, "per_label.obj_00: must be an object, got int"),
        ({"per_label": []}, "per_label: must be an object, got list"),
        ({"comparison": 3}, "comparison: must be an object, got int"),
        ({"aggregate": {**good["aggregate"], "adds": "x"}},
         "aggregate.adds: must be a number or null, got 'x'"),
        ({"aggregate": {**good["aggregate"], "n_gt": 2.5}},
         "aggregate.n_gt: must be an integer, got 2.5"),
        ({"comparison": {**good["comparison"], "after_adds_mm": True}},
         "comparison.after_adds_mm: must be a number or null, got True"),
    ]
    for change, message in broken:
        path.write_text(json.dumps({**good, **change}))
        capsys.readouterr()
        assert main(["report", "--input", str(path)]) == EXIT_CONFIG, message
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err


# -------------------------------------------------------------------- misc


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_help_exits_zero():
    assert main(["--help"]) == EXIT_OK
