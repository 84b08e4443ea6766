import math

import numpy as np
import pytest

from cosy import geometry as geo

import oracles


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestPose:
    def test_identity(self):
        p = geo.Pose.identity()
        assert np.array_equal(p.matrix, np.eye(4))

    def test_from_rt(self):
        R = oracles.rotation_about_axis([0, 0, 1], 0.3)
        t = np.array([1.0, 2.0, 3.0])
        p = geo.Pose.from_rt(R, t)
        assert np.array_equal(p.rotation, R)
        assert np.array_equal(p.translation, t)
        assert np.array_equal(p.matrix[3], [0, 0, 0, 1])

    def test_from_matrix_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 0.5
        with pytest.raises(ValueError):
            geo.Pose.from_matrix(m)

    def test_from_matrix_rejects_non_orthonormal(self):
        m = np.eye(4)
        m[0, 0] = 2.0
        with pytest.raises(ValueError):
            geo.Pose.from_matrix(m)

    def test_from_matrix_rejects_reflection(self):
        m = np.eye(4)
        m[0, 0] = -1.0
        with pytest.raises(ValueError):
            geo.Pose.from_matrix(m)

    @pytest.mark.parametrize("entry", [(0, 3), (1, 2), (3, 3)])
    def test_from_matrix_rejects_non_finite(self, entry):
        for value in (np.nan, np.inf):
            m = np.eye(4)
            m[entry] = value
            with pytest.raises(ValueError, match="non-finite"):
                geo.Pose.from_matrix(m)

    def test_matrix_is_immutable(self):
        p = geo.Pose.identity()
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2.0

    def test_compose_matches_matrix_product(self):
        rng = _rng(1)
        a = geo.Pose(oracles.random_pose_matrix(rng))
        b = geo.Pose(oracles.random_pose_matrix(rng))
        assert np.allclose(a.compose(b).matrix, a.matrix @ b.matrix)

    def test_group_axioms_random(self):
        # Associativity, identity, inverse; 1000 random poses.
        rng = _rng(2)
        eye = np.eye(4)
        for _ in range(1000):
            a = geo.Pose(oracles.random_pose_matrix(rng))
            b = geo.Pose(oracles.random_pose_matrix(rng))
            c = geo.Pose(oracles.random_pose_matrix(rng))
            lhs = a.compose(b).compose(c).matrix
            rhs = a.compose(b.compose(c)).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            assert np.max(np.abs(a.compose(a.inverse()).matrix - eye)) < 1e-9
            assert np.max(np.abs(a.inverse().compose(a).matrix - eye)) < 1e-9

    def test_inverse_transform_round_trip(self):
        rng = _rng(3)
        p = geo.Pose(oracles.random_pose_matrix(rng))
        pts = rng.normal(size=(50, 3))
        back = geo.apply_matrix(
            p.inverse().matrix, geo.apply_matrix(p.matrix, pts)
        )
        assert np.max(np.abs(back - pts)) < 1e-12


class TestTransformPoints:
    def test_matches_scalar_oracle_exactly(self):
        rng = _rng(4)
        m = oracles.random_pose_matrix(rng)
        pts = rng.normal(size=(37, 3))
        got = geo.apply_matrix(m, pts)
        want = np.array([oracles.transform_point(m, p) for p in pts])
        assert np.array_equal(got, want)

    def test_batch_matches_single(self):
        rng = _rng(5)
        mats = np.stack([oracles.random_pose_matrix(rng) for _ in range(7)])
        pts = rng.normal(size=(11, 3))
        got = geo.apply_matrices(mats, pts)
        for g, m in zip(got, mats):
            assert np.array_equal(g, geo.apply_matrix(m, pts))

    def test_single_point_shape(self):
        out = geo.apply_matrix(np.eye(4), [1.0, 2.0, 3.0])
        assert out.shape == (1, 3)


class TestProjection:
    K = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_known_point(self):
        # x/z = 1/6, so u = 600/6 + 320 = 420; y = 0 keeps v at the principal row.
        px = geo.project(self.K, [[0.1, 0.0, 0.6]])
        assert np.allclose(px, [[420.0, 240.0]])

    def test_principal_axis(self):
        px = geo.project(self.K, [[0.0, 0.0, 2.5]])
        assert np.allclose(px, [[320.0, 240.0]])

    def test_behind_camera_raises(self):
        with pytest.raises(geo.BehindCameraError):
            geo.project(self.K, [[0.0, 0.0, -1.0]])
        with pytest.raises(geo.BehindCameraError):
            geo.project(self.K, [[0.0, 0.0, 1e-4]])

    def test_masked_flags_invalid(self):
        px, valid = geo.project_masked(
            self.K, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        )
        assert valid.tolist() == [True, False]
        assert np.all(np.isfinite(px))

    def test_rejects_bad_intrinsics(self):
        with pytest.raises(ValueError):
            geo.CameraIntrinsics(fx=-1.0, fy=600.0, cx=0, cy=0, width=10, height=10)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_rejects_non_finite_intrinsics(self, field):
        good = dict(fx=600.0, fy=600.0, cx=0.0, cy=0.0, width=10, height=10)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite|positive"):
                geo.CameraIntrinsics(**(good | {field: value}))

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [0, -640])
    def test_rejects_non_positive_image_size(self, field, value):
        good = dict(fx=600.0, fy=600.0, cx=0.0, cy=0.0, width=10, height=10)
        geo.CameraIntrinsics(**(good | {field: 1}))
        with pytest.raises(ValueError, match="width and height must be >= 1"):
            geo.CameraIntrinsics(**(good | {field: value}))


class TestRotation6d:
    def test_fixed_point_on_rotations(self):
        # Feeding the first two columns of a rotation must return it unchanged.
        rng = _rng(7)
        for _ in range(200):
            R = oracles.random_rotation(rng)
            R2 = geo.rotation_from_6d(R[:, 0], R[:, 1])
            assert np.max(np.abs(R2 - R)) < 1e-9

    def test_output_is_rotation_for_generic_input(self):
        rng = _rng(8)
        for _ in range(200):
            e1 = rng.normal(size=3)
            e2 = rng.normal(size=3)
            R = geo.rotation_from_6d(e1, e2)
            assert geo.is_rotation(R, tol=1e-9)
            # First column is the normalized first input.
            assert np.allclose(R[:, 0], e1 / np.linalg.norm(e1))

    def test_scale_invariance_of_first_column(self):
        R1 = geo.rotation_from_6d([2.0, 0, 0], [0, 3.0, 0])
        assert np.allclose(R1, np.eye(3))

    def test_degenerate_zero(self):
        with pytest.raises(geo.DegenerateBasisError):
            geo.rotation_from_6d([0, 0, 0], [1, 0, 0])

    def test_degenerate_parallel(self):
        with pytest.raises(geo.DegenerateBasisError):
            geo.rotation_from_6d([1, 0, 0], [2.0, 1e-12, 0])


def _retract(matrix, delta):
    return geo.retract_matrices(np.asarray(matrix)[None], delta)[0]


class TestRetract:
    def test_zero_is_identity_update(self):
        rng = _rng(9)
        m = oracles.random_pose_matrix(rng)
        assert np.array_equal(_retract(m, np.zeros(6)), m)

    def test_pure_translation(self):
        q = _retract(np.eye(4), [0, 0, 0, 0.1, -0.2, 0.3])
        assert np.allclose(q[:3, 3], [0.1, -0.2, 0.3])
        assert np.allclose(q[:3, :3], np.eye(3))

    def test_rotation_matches_rodrigues_oracle(self):
        axis = np.array([1.0, 2.0, -1.0])
        axis /= np.linalg.norm(axis)
        angle = 0.7
        q = _retract(np.eye(4), np.concatenate([axis * angle, np.zeros(3)]))
        want = oracles.rotation_about_axis(axis, angle)
        assert np.max(np.abs(q[:3, :3] - want)) < 1e-12

    def test_left_multiplicative(self):
        # The increment acts on the world side: the result is D(d) @ T.
        rng = _rng(10)
        m = oracles.random_pose_matrix(rng)
        delta = rng.normal(size=6) * 0.1
        inc = _retract(np.eye(4), delta)
        assert np.allclose(_retract(m, delta), inc @ m)

    def test_small_angle_series(self):
        omega = np.array([1e-14, -2e-14, 1e-14])
        R = _retract(np.eye(4), np.concatenate([omega, np.zeros(3)]))[:3, :3]
        assert geo.is_rotation(R, tol=1e-9)
        assert np.max(np.abs(R - (np.eye(3) + geo.skew(omega)))) < 1e-20

    def test_stacked_retraction_matches_per_pose_oracle_bit_for_bit(self):
        rng = _rng(12)
        n = 400
        mats = np.stack([oracles.random_pose_matrix(rng) for _ in range(n)])
        deltas = np.concatenate(
            [oracles.hard_rotation_increments(rng, n), rng.normal(size=(n, 3))],
            axis=1,
        )
        got = geo.retract_matrices(mats, deltas)
        for i in range(n):
            want = oracles.retract_matrix(mats[i], deltas[i])
            assert np.array_equal(got[i], want), deltas[i]

    def test_stacked_inverse_matches_per_pose_oracle_bit_for_bit(self):
        rng = _rng(13)
        mats = np.stack(
            [oracles.random_pose_matrix(rng, t_scale=3.0) for _ in range(200)]
        )
        got = geo.inverse_matrices(mats)
        for m, inv in zip(mats, got):
            want = oracles.inverse_matrix(m)
            assert np.array_equal(inv, want)
            assert np.array_equal(geo.Pose(m).inverse().matrix, want)

    def test_local_injectivity(self):
        # Distinct small increments give distinct poses.
        a = _retract(np.eye(4), [1e-4, 0, 0, 0, 0, 0])
        b = _retract(np.eye(4), [0, 1e-4, 0, 0, 0, 0])
        assert np.max(np.abs(a - b)) > 1e-6


class TestRotationHelpers:
    def test_rotation_about_axis_oracle(self):
        rng = _rng(11)
        axes = rng.normal(size=(50, 3))
        angles = rng.uniform(-math.pi, math.pi, size=50)
        got = geo.rotations_about_axes(axes, angles)
        for axis, angle, rot in zip(axes, angles, got):
            want = oracles.rotation_about_axis(axis, angle)
            assert np.max(np.abs(rot - want)) < 1e-12

    def test_rotation_about_axis_matches_rodrigues_bit_for_bit(self):
        # Every row of a stacked call carries the bits of the per-axis
        # formula, whatever the axis scale.
        rng = _rng(14)
        axes = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-4, 4, size=(200, 1))
        angles = rng.uniform(-10.0, 10.0, size=200)
        got = geo.rotations_about_axes(axes, angles)
        for axis, angle, rot in zip(axes, angles, got):
            assert np.array_equal(rot, oracles.rodrigues(axis, angle))

    def test_zero_axis_raises(self):
        with pytest.raises(ValueError):
            geo.rotations_about_axes([[1, 0, 0], [0, 0, 0]], [0.1, 0.5])

    def test_is_rotation_rejects_reflection(self):
        assert not geo.is_rotation(np.diag([1.0, 1.0, -1.0]))
