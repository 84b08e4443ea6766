import math

import numpy as np
import pytest

from cosy import singleview as sv
from cosy.geometry import (
    CameraIntrinsics, Pose, BehindCameraError, apply_matrix, project,
)
from cosy.scene_io import ObjectModel
from cosy.symmetry import SymmetrySpec, discretize, symmetric_distance_l1

import oracles

K = CameraIntrinsics(fx=600.0, fy=580.0, cx=320.0, cy=240.0, width=640, height=480)


def _model(seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.04, 0.04, size=(30, 3))
    sym = SymmetrySpec()
    if symmetric:
        sym = SymmetrySpec(continuous_axes=(([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),))
    return ObjectModel(label="m", points=pts, diameter=0.15, symmetries=sym)


def _pose(seed=1, z=(0.6, 1.8)):
    rng = np.random.default_rng(seed)
    t = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1), rng.uniform(*z)])
    return Pose.from_rt(oracles.random_rotation(rng), t)


def _update_oracle(t_k, vx, vy, vz, R, fxc, fyc):
    # Independent evaluation of the update equations.
    x, y, z = t_k.translation
    z1 = vz * z
    x1 = (vx / fxc + x / z) * z1
    y1 = (vy / fyc + y / z) * z1
    return Pose.from_rt(np.asarray(R) @ t_k.rotation, [x1, y1, z1])


class TestCropFromPose:
    def test_centered_object_crop_centered(self):
        model = _model()
        pose = Pose.from_rt(np.eye(3), [0.0, 0.0, 1.0])
        crop = sv.crop_from_pose(pose, model, K)
        x0, y0, x1, y1 = crop.box
        assert abs(0.5 * (x0 + x1) - K.cx) < 1.0
        assert abs(0.5 * (y0 + y1) - K.cy) < 1.0

    def test_aspect_ratio(self):
        crop = sv.crop_from_pose(_pose(2), _model(), K)
        x0, y0, x1, y1 = crop.box
        assert abs((x1 - x0) / (y1 - y0) - 320.0 / 240.0) < 1e-9

    def test_halving_depth_doubles_bbox(self):
        # Exact pinhole scaling needs all points at one depth: planar model.
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.04, 0.04, size=(20, 3))
        pts[:, 2] = 0.0
        model = ObjectModel(label="flat", points=pts, diameter=0.2)
        near = Pose.from_rt(np.eye(3), [0.0, 0.0, 0.75])
        far = Pose.from_rt(np.eye(3), [0.0, 0.0, 1.5])
        w = []
        for pose in (near, far):
            px = project(K, apply_matrix(pose.matrix, model.points))
            w.append(px[:, 0].max() - px[:, 0].min())
        assert abs(w[0] / w[1] - 2.0) < 1e-6

    def test_crop_intrinsics_match_crop_resize_mapping(self):
        # Projecting through the fictive camera == project then crop-resize.
        model = _model(3)
        pose = _pose(4)
        crop = sv.crop_from_pose(pose, model, K)
        cam_pts = apply_matrix(pose.matrix, model.points)
        direct = project(crop.intrinsics, cam_pts)
        mapped = crop.map_to_crop(project(K, cam_pts))
        assert np.max(np.abs(direct - mapped)) < 1e-9

    def test_behind_camera(self):
        pose = Pose.from_rt(np.eye(3), [0.0, 0.0, -1.0])
        model = _model()
        with pytest.raises(BehindCameraError):
            sv.crop_from_pose(pose, model, K)

    def test_padding_grows_box(self):
        model = _model()
        pose = Pose.from_rt(np.eye(3), [0.0, 0.0, 1.0])
        tight = sv.crop_from_pose(pose, model, K, padding=1.0)
        padded = sv.crop_from_pose(pose, model, K, padding=1.4)
        assert (padded.box[2] - padded.box[0]) > (tight.box[2] - tight.box[0])


class TestApplyUpdate:
    def _crop(self, pose, model=None):
        return sv.crop_from_pose(pose, model or _model(), K)

    def test_zero_motion_fixed_point(self):
        pose = _pose(5)
        crop = self._crop(pose)
        out = sv.apply_update(pose, sv.UpdateParams.zero_motion(), crop)
        assert np.max(np.abs(out.matrix - pose.matrix)) < 1e-12

    def test_depth_doubling(self):
        pose = _pose(6)
        crop = self._crop(pose)
        p = sv.UpdateParams(vx=0.0, vy=0.0, vz=2.0, e1=[1, 0, 0], e2=[0, 1, 0])
        out = sv.apply_update(pose, p, crop)
        assert np.max(np.abs(out.translation - 2.0 * pose.translation)) < 1e-12
        assert np.max(np.abs(out.rotation - pose.rotation)) < 1e-12

    def test_matches_symbolic_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            pose = _pose(100 + trial)
            crop = self._crop(pose)
            R = oracles.random_rotation(rng)
            vx, vy = rng.uniform(-30, 30, 2)
            vz = rng.uniform(0.5, 2.0)
            p = sv.UpdateParams(vx=vx, vy=vy, vz=vz, e1=R[:, 0], e2=R[:, 1])
            got = sv.apply_update(pose, p, crop)
            want = _update_oracle(pose, vx, vy, vz, R, crop.fx_c, crop.fy_c)
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-9

    def test_depth_linearity(self):
        pose = _pose(8)
        crop = self._crop(pose)
        z0 = pose.translation[2]
        for vz in (0.25, 0.5, 1.0, 1.75, 3.0):
            p = sv.UpdateParams(vx=3.0, vy=-2.0, vz=vz, e1=[1, 0, 0], e2=[0, 1, 0])
            out = sv.apply_update(pose, p, crop)
            assert out.translation[2] == vz * z0

    def test_vz_must_be_positive(self):
        with pytest.raises(ValueError):
            sv.UpdateParams(vx=0, vy=0, vz=0.0, e1=[1, 0, 0], e2=[0, 1, 0])


class TestTargetUpdate:
    def test_identity_target(self):
        pose = _pose(9)
        crop = sv.crop_from_pose(pose, _model(), K)
        p = sv.target_update(pose, pose, crop)
        assert abs(p.vx) < 1e-9 and abs(p.vy) < 1e-9
        assert abs(p.vz - 1.0) < 1e-12
        assert np.allclose(sv.rotation_from_6d(p.e1, p.e2), np.eye(3), atol=1e-12)

    def test_pure_depth_change(self):
        pose = Pose.from_rt(np.eye(3), [0.05, -0.02, 0.8])
        t_gt = Pose.from_rt(
            pose.rotation, [0.05 / 0.8 * 1.6, -0.02 / 0.8 * 1.6, 1.6]
        )
        crop = sv.crop_from_pose(pose, _model(), K)
        p = sv.target_update(pose, t_gt, crop)
        assert abs(p.vz - 2.0) < 1e-12
        assert abs(p.vx) < 1e-9 and abs(p.vy) < 1e-9

    def test_round_trip_1000(self):
        # Acceptance-grade invariant: apply(target) reproduces the goal pose.
        rng = np.random.default_rng(10)
        model = _model()
        worst = 0.0
        for trial in range(1000):
            t_k = _pose(2000 + trial)
            t_gt = _pose(3000 + trial)
            crop = sv.crop_from_pose(t_k, model, K)
            p = sv.target_update(t_k, t_gt, crop)
            back = sv.apply_update(t_k, p, crop)
            worst = max(worst, float(np.max(np.abs(back.matrix - t_gt.matrix))))
        assert worst < 1e-9


class TestCanonicalInit:
    def test_centered_bbox(self):
        pose = sv.canonical_init((300, 220, 340, 260), K)
        assert np.allclose(pose.translation, [0, 0, 1.0], atol=1e-12)
        assert np.array_equal(pose.rotation, np.eye(3))

    def test_offset_bbox(self):
        u = K.cx + K.fx * 0.1
        pose = sv.canonical_init((u - 10, K.cy - 10, u + 10, K.cy + 10), K)
        assert np.allclose(pose.translation, [0.1, 0, 1.0], atol=1e-12)

    def test_projects_back_to_center(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x0, y0 = rng.uniform(0, 500), rng.uniform(0, 380)
            bbox = (x0, y0, x0 + rng.uniform(5, 100), y0 + rng.uniform(5, 80))
            pose = sv.canonical_init(bbox, K)
            px = project(K, pose.translation.reshape(1, 3))[0]
            want = [0.5 * (bbox[0] + bbox[2]), 0.5 * (bbox[1] + bbox[3])]
            assert np.max(np.abs(px - want)) < 1e-9

    def test_empty_bbox(self):
        with pytest.raises(ValueError):
            sv.canonical_init((10, 10, 10, 20), K)


class TestDisentangledLoss:
    def _setup(self, seed=12, symmetric=False):
        model = _model(seed, symmetric=symmetric)
        t_k = _pose(seed + 1)
        t_gt = _pose(seed + 2)
        crop = sv.crop_from_pose(t_k, model, K)
        return model, t_k, t_gt, crop

    def test_zero_at_target(self):
        model, t_k, t_gt, crop = self._setup()
        p = sv.target_update(t_k, t_gt, crop)
        group = discretize(model.symmetries)
        assert sv.disentangled_loss(t_k, p, t_gt, model, crop, group) < 1e-9

    def test_only_vz_wrong_isolates_depth_term(self):
        model, t_k, t_gt, crop = self._setup(13)
        hat = sv.target_update(t_k, t_gt, crop)
        p = sv.UpdateParams(vx=hat.vx, vy=hat.vy, vz=hat.vz * 1.3, e1=hat.e1, e2=hat.e2)
        group = discretize(model.symmetries)
        xy, depth, rot = sv.loss_terms(t_k, p, t_gt, model, crop, group)
        assert xy < 1e-9
        assert rot < 1e-9
        assert depth > 1e-3

    def test_only_xy_wrong_isolates_xy_term(self):
        model, t_k, t_gt, crop = self._setup(14)
        hat = sv.target_update(t_k, t_gt, crop)
        p = sv.UpdateParams(vx=hat.vx + 15.0, vy=hat.vy, vz=hat.vz, e1=hat.e1, e2=hat.e2)
        group = discretize(model.symmetries)
        xy, depth, rot = sv.loss_terms(t_k, p, t_gt, model, crop, group)
        assert xy > 1e-4
        assert depth < 1e-9
        assert rot < 1e-9

    def test_only_rotation_wrong_isolates_rotation_term(self):
        model, t_k, t_gt, crop = self._setup(15)
        hat = sv.target_update(t_k, t_gt, crop)
        bump = oracles.rotation_about_axis([0, 1, 0], 0.3)
        R = bump @ sv.rotation_from_6d(hat.e1, hat.e2)
        p = sv.UpdateParams(vx=hat.vx, vy=hat.vy, vz=hat.vz, e1=R[:, 0], e2=R[:, 1])
        group = discretize(model.symmetries)
        xy, depth, rot = sv.loss_terms(t_k, p, t_gt, model, crop, group)
        assert xy < 1e-9
        assert depth < 1e-9
        assert rot > 1e-3

    def test_symmetry_absorbs_rotation_error(self):
        # Rotation off by an exact symmetry of the object costs nothing.
        model, t_k, t_gt, crop = self._setup(16, symmetric=True)
        group = discretize(model.symmetries, angles_per_axis=16)
        hat = sv.target_update(t_k, t_gt, crop)
        R_hat = sv.rotation_from_6d(hat.e1, hat.e2)
        sym_rot = group.matrices[5][:3, :3]
        # Apply the symmetry on the object side of the target rotation.
        R = R_hat @ t_k.rotation @ sym_rot @ t_k.rotation.T
        p = sv.UpdateParams(vx=hat.vx, vy=hat.vy, vz=hat.vz, e1=R[:, 0], e2=R[:, 1])
        _, _, rot = sv.loss_terms(t_k, p, t_gt, model, crop, group)
        assert rot < 1e-9
        # The same perturbation on an asymmetric model does cost.
        plain = ObjectModel(label="p", points=model.points, diameter=model.diameter)
        plain_group = discretize(plain.symmetries)
        _, _, rot_plain = sv.loss_terms(t_k, p, t_gt, plain, crop, plain_group)
        assert rot_plain > 1e-4

    def test_builds_the_group_images_once(self, monkeypatch):
        model, t_k, t_gt, crop = self._setup(19, symmetric=True)
        group = discretize(model.symmetries, angles_per_axis=16)
        hat = sv.target_update(t_k, t_gt, crop)
        R = oracles.rotation_about_axis([1, 0, 0], 0.2)
        p = sv.UpdateParams(vx=hat.vx + 3.0, vy=hat.vy, vz=hat.vz * 1.1,
                            e1=R[:, 0], e2=R[:, 1])
        real = sv.apply_matrices
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sv, "apply_matrices", counting)
        terms = sv.loss_terms(t_k, p, t_gt, model, crop, group)
        assert len(calls) == 1
        # The same bits as building the images once per term.
        R_hat = sv.rotation_from_6d(hat.e1, hat.e2)
        poses = (
            sv._update_with_rotation(t_k, p.vx, p.vy, hat.vz, R_hat, crop),
            sv._update_with_rotation(t_k, hat.vx, hat.vy, p.vz, R_hat, crop),
            sv._update_with_rotation(t_k, hat.vx, hat.vy, hat.vz, p.rotation(), crop),
        )
        want = tuple(
            symmetric_distance_l1(
                model.points, real(group.matrices, model.points), pose, t_gt
            )
            for pose in poses
        )
        assert terms == want
        assert min(terms) > 1e-4

    def test_nonnegative_and_zero_iff_symmetry(self):
        model, t_k, t_gt, crop = self._setup(17)
        group = discretize(model.symmetries)
        rng = np.random.default_rng(18)
        for _ in range(10):
            R = oracles.random_rotation(rng)
            p = sv.UpdateParams(
                vx=rng.uniform(-20, 20),
                vy=rng.uniform(-20, 20),
                vz=rng.uniform(0.5, 2.0),
                e1=R[:, 0],
                e2=R[:, 1],
            )
            loss = sv.disentangled_loss(t_k, p, t_gt, model, crop, group)
            assert loss >= 0.0
            decoded = sv.apply_update(t_k, p, crop)
            matches = np.max(np.abs(decoded.matrix - t_gt.matrix)) < 1e-6
            if loss < 1e-6:
                assert matches
