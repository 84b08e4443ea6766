import json
import math

import numpy as np
import pytest

from cosy import scene_io as sio
from cosy import simulation as sim
from cosy import evaluation as ev
from cosy.geometry import Pose
from cosy.scene_io import SchemaError, UnknownLabelError


def _db(n_labels=3, symmetric=False):
    labels = [f"obj_{i}" for i in range(n_labels)]
    return sim.make_models(
        labels, seed=7, symmetric=("obj_1",) if symmetric else ()
    )


def _cfg(n_objects=3, n_views=4, seed=0, labels=None):
    return sim.ScenarioConfig(
        n_objects=n_objects,
        n_views=n_views,
        model_labels=tuple(labels or ("obj_0", "obj_1", "obj_2")),
        seed=seed,
    )


class TestConfig:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig(n_objects=0, n_views=1, model_labels=("a",))
        with pytest.raises(ValueError):
            sim.ScenarioConfig(n_objects=1, n_views=0, model_labels=("a",))

    def test_box_size_validated(self):
        with pytest.raises(ValueError):
            sim.ScenarioConfig(n_objects=1, n_views=1, model_labels=("a",), box_size=0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="box_size must be finite and > 0"):
                sim.ScenarioConfig(
                    n_objects=1, n_views=1, model_labels=("a",), box_size=value
                )

    @pytest.mark.parametrize("bounds", [
        (0.0, 1.0), (1.5, 1.0), (math.nan, math.nan), (math.inf, math.inf),
        (1.0, math.inf), (-math.inf, 1.0),
    ])
    def test_camera_distance_range_validated(self, bounds):
        with pytest.raises(
            ValueError, match=r"camera_distance_range must be finite with 0 < min <= max"
        ):
            sim.ScenarioConfig(n_objects=1, n_views=1, model_labels=("a",),
                               camera_distance_range=bounds)

    def test_noise_rates_validated(self):
        with pytest.raises(ValueError):
            sim.NoiseModel(miss_prob=1.5)
        with pytest.raises(ValueError):
            sim.NoiseModel(rot_sigma_deg=-1)
        for name in ("rot_sigma_deg", "trans_sigma", "depth_sigma_extra"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    sim.NoiseModel(**{name: value})


class TestMakeModels:
    def test_labels_and_matchability(self):
        db = _db()
        assert sorted(db.models) == ["obj_0", "obj_1", "obj_2"]
        for m in db.models.values():
            m.require_matchable()

    @pytest.mark.parametrize("bounds", [
        (0.07, 0.03), (0.0, 0.05), (math.nan, math.nan), (math.inf, math.inf),
        (0.03, math.inf),
    ])
    def test_radius_range_validated(self, bounds):
        with pytest.raises(
            ValueError, match=r"radius_range must be finite with 0 < min <= max"
        ):
            sim.make_models(["obj_0"], radius_range=bounds)

    def test_symmetric_annotation(self):
        db = _db(symmetric=True)
        assert db["obj_1"].symmetries.continuous_axes
        assert not db["obj_0"].symmetries.continuous_axes


class TestGenerateScene:
    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            sim.generate_scene(_cfg(labels=("ghost",)), _db())

    def test_single_object_single_view(self):
        scene = sim.generate_scene(_cfg(1, 1), _db())
        assert len(scene.object_poses) == 1
        assert len(scene.camera_poses) == 1
        t = scene.object_poses[0].translation
        assert np.all(np.abs(t) <= 0.25 + 1e-12)
        # Optical axis passes through the box center.
        cam = scene.camera_poses[0]
        to_center = -cam.translation / np.linalg.norm(cam.translation)
        forward = cam.rotation[:, 2]
        assert np.max(np.abs(forward - to_center)) < 1e-9

    def test_determinism(self):
        a = sim.generate_scene(_cfg(seed=42), _db())
        b = sim.generate_scene(_cfg(seed=42), _db())
        for pa, pb in zip(a.object_poses, b.object_poses):
            assert np.array_equal(pa.matrix, pb.matrix)
        for pa, pb in zip(a.camera_poses, b.camera_poses):
            assert np.array_equal(pa.matrix, pb.matrix)

    def test_seed_changes_scene(self):
        a = sim.generate_scene(_cfg(seed=1), _db())
        b = sim.generate_scene(_cfg(seed=2), _db())
        assert not np.array_equal(a.object_poses[0].matrix, b.object_poses[0].matrix)

    def test_bulk_statistics(self):
        # Centers stay in the box; mean rotation matrix of a uniform
        # distribution over rotations is the zero matrix.
        db = _db()
        acc = np.zeros((3, 3))
        n = 0
        for seed in range(1000):
            scene = sim.generate_scene(_cfg(1, 1, seed=seed), db)
            t = scene.object_poses[0].translation
            assert np.all(np.abs(t) <= 0.25 + 1e-12)
            acc += scene.object_poses[0].rotation
            n += 1
        assert np.max(np.abs(acc / n)) < 0.08

    def test_cameras_above_ground(self):
        scene = sim.generate_scene(_cfg(2, 12, seed=3), _db())
        for cam, (lo, hi) in zip(
            scene.camera_poses, [(1.0, 1.5)] * len(scene.camera_poses)
        ):
            assert cam.translation[2] >= 0.0
            assert lo - 1e-9 <= np.linalg.norm(cam.translation) <= hi + 1e-9


class TestGenerateObservations:
    def test_zero_noise_exact(self):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 4, seed=5), db)
        obs, prov = sim.generate_observations(
            scene, sim.NoiseModel.none(), np.random.default_rng(0)
        )
        assert len(prov) == len(obs.candidates)
        assert len(obs.candidates) > 0
        view_index = {v.view_id: i for i, v in enumerate(scene.views)}
        for cand, oi in zip(obs.candidates, prov):
            assert oi != sim.OUTLIER
            want = scene.camera_frame_pose(view_index[cand.view_id], oi)
            assert np.array_equal(cand.pose.matrix, want.matrix)
            assert cand.label == scene.object_labels[oi]

    def test_miss_prob_one(self):
        db = _db()
        scene = sim.generate_scene(_cfg(2, 2, seed=6), db)
        obs, prov = sim.generate_observations(
            scene, sim.NoiseModel(miss_prob=1.0), np.random.default_rng(0)
        )
        assert obs.candidates == ()
        assert prov == ()

    def test_determinism(self):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 3, seed=7), db)
        noise = sim.NoiseModel(
            rot_sigma_deg=4, trans_sigma=0.004, miss_prob=0.2, outlier_prob=0.2
        )
        a, pa = sim.generate_observations(scene, noise, np.random.default_rng(9))
        b, pb = sim.generate_observations(scene, noise, np.random.default_rng(9))
        assert pa == pb
        assert len(a.candidates) == len(b.candidates)
        for ca, cb in zip(a.candidates, b.candidates):
            assert ca.view_id == cb.view_id
            assert ca.label == cb.label
            assert ca.score == cb.score
            assert np.array_equal(ca.pose.matrix, cb.pose.matrix)

    def test_noise_magnitude_first_order(self):
        # Mean ADD-S of noisy candidates should sit near the first-order
        # prediction: E[angle]*radius + E[|dt|].
        db = _db(1)
        model = db["obj_0"]
        scene = sim.generate_scene(_cfg(1, 30, seed=8, labels=("obj_0",)), db)
        noise = sim.NoiseModel(rot_sigma_deg=5.0, trans_sigma=0.005)
        obs, prov = sim.generate_observations(scene, noise, np.random.default_rng(10))
        view_index = {v.view_id: i for i, v in enumerate(scene.views)}
        errs = [
            ev.adds_error(
                model, c.pose, scene.camera_frame_pose(view_index[c.view_id], oi)
            )
            for c, oi in zip(obs.candidates, prov)
        ]
        assert len(errs) >= 10
        sigma_r = np.deg2rad(5.0)
        rho_max = float(np.linalg.norm(model.points, axis=1).max())
        bound = sigma_r * np.sqrt(2 / np.pi) * rho_max + 1.6 * 0.005
        mean = float(np.mean(errs))
        assert mean < 3.0 * bound
        assert mean > bound / 10.0

    def test_outliers_marked(self):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 5, seed=11), db)
        obs, prov = sim.generate_observations(
            scene, sim.NoiseModel(outlier_prob=1.0), np.random.default_rng(12)
        )
        n_outliers = sum(1 for p in prov if p == sim.OUTLIER)
        assert n_outliers == 3 * 5  # one injected per view-object pair
        for c, p in zip(obs.candidates, prov):
            if p == sim.OUTLIER:
                assert c.pose.translation[2] > 0

    def test_label_confusion(self):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 3, seed=13), db)
        obs, prov = sim.generate_observations(
            scene, sim.NoiseModel(label_confusion_prob=1.0), np.random.default_rng(14)
        )
        assert len(obs.candidates) > 0
        for c, oi in zip(obs.candidates, prov):
            assert c.label != scene.object_labels[oi]

    def test_scores_in_configured_ranges(self, monkeypatch):
        db = _db()
        scene = sim.generate_scene(_cfg(2, 4, seed=15), db)
        monkeypatch.setattr(sim, "TRUE_SCORE_RANGE", (0.8, 0.9))
        monkeypatch.setattr(sim, "OUTLIER_SCORE_RANGE", (0.4, 0.5))
        noise = sim.NoiseModel(outlier_prob=0.5)
        obs, prov = sim.generate_observations(scene, noise, np.random.default_rng(16))
        for c, p in zip(obs.candidates, prov):
            lo, hi = (0.4, 0.5) if p == sim.OUTLIER else (0.8, 0.9)
            assert lo <= c.score <= hi


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 4, seed=17), db)
        obs, prov = sim.generate_observations(
            scene,
            sim.NoiseModel(trans_sigma=0.003, outlier_prob=0.3),
            np.random.default_rng(18),
        )
        path = tmp_path / "gt.json"
        sio.save_ground_truth(scene, prov, path)
        back, prov2 = sio.load_ground_truth(path, db)
        assert prov2 == prov
        assert back.box_size == scene.box_size
        assert back.object_labels == scene.object_labels
        for a, b in zip(scene.camera_poses, back.camera_poses):
            assert np.array_equal(a.matrix, b.matrix)
        for a, b in zip(scene.object_poses, back.object_poses):
            assert np.array_equal(a.matrix, b.matrix)
        for a, b in zip(scene.views, back.views):
            assert a.view_id == b.view_id
            assert a.intrinsics == b.intrinsics

    @pytest.mark.parametrize("edit", ["swap", "drop", "rename"])
    def test_cameras_must_follow_the_views(self, tmp_path, edit):
        # Camera poses are matched to views by position, so the cameras
        # must name the views' ids in the views' order.
        db = _db()
        scene = sim.generate_scene(_cfg(3, 4, seed=17), db)
        path = tmp_path / "gt.json"
        sio.save_ground_truth(scene, (), path)
        doc = json.loads(path.read_text())
        cams = doc["cameras"]
        if edit == "swap":
            cams[0], cams[2] = cams[2], cams[0]
        elif edit == "drop":
            del cams[-1]
        else:
            cams[1]["view_id"] = "view_999"
        path.write_text(json.dumps(doc))
        with pytest.raises(
            SchemaError, match=r"gt\.json: cameras must list the views' view_ids"
        ):
            sio.load_ground_truth(path, db)

    @pytest.mark.parametrize("key", ["cameras", "objects"])
    def test_non_rigid_pose_rejected(self, tmp_path, key):
        db = _db()
        scene = sim.generate_scene(_cfg(3, 4, seed=17), db)
        path = tmp_path / "gt.json"
        sio.save_ground_truth(scene, (), path)
        doc = json.loads(path.read_text())
        doc[key][1]["pose_world"][0] *= 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"{key}\[1\]: pose rotation"):
            sio.load_ground_truth(path, db)
