import json
import math
import re

import numpy as np
import pytest

from cosy import symmetry as sym
from cosy.cli import EXIT_CONFIG
from cosy.geometry import Pose, apply_matrices, apply_matrix

import oracles
from test_cli import simulate, solve


def _pose_rz(angle, t=(0, 0, 0)):
    return Pose.from_rt(oracles.rotation_about_axis([0, 0, 1], angle), t)


def _points(n=40, seed=0, centered=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.05, 0.05, size=(n, 3))
    if centered:
        pts = pts - pts.mean(axis=0)
    return pts


def _square_points():
    # 4-fold symmetric about z, centered.
    return np.array(
        [
            [0.05, 0.0, 0.0],
            [0.0, 0.05, 0.0],
            [-0.05, 0.0, 0.0],
            [0.0, -0.05, 0.0],
            [0.0, 0.0, 0.02],
            [0.0, 0.0, -0.02],
        ]
    )


class TestSpec:
    def test_requires_identity(self):
        with pytest.raises(ValueError):
            sym.SymmetrySpec(discrete=(_pose_rz(0.5),))

    def test_requires_unit_axis(self):
        with pytest.raises(ValueError):
            sym.SymmetrySpec(continuous_axes=(([0, 0, 2.0], [0, 0, 0]),))

    @pytest.mark.parametrize("field, value", [
        ("axis", [0.0, 0.0, math.nan]),
        ("offset", [0.0, math.inf, 0.0]),
    ])
    def test_solve_rejects_non_finite_axis(self, tmp_path, capsys, field, value):
        models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3",
                                  "--symmetric-labels", "obj_00")
        doc = json.loads(models.read_text())
        doc["models"][0]["symmetries"]["axes"][0][field] = value
        models.write_text(json.dumps(doc))
        capsys.readouterr()
        assert solve(models, obs, tmp_path / "out.json") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"models[0]: symmetry axis {'offset ' * (field == 'offset')}must" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_none(self):
        s = sym.SymmetrySpec()
        assert len(s.discrete) == 1
        assert not s.continuous_axes


class TestSymmetryGroup:
    @pytest.mark.parametrize(
        "matrices, message",
        [
            (np.zeros((0, 4, 4)), "non-empty"),
            (np.eye(4), "(G, 4, 4) stack"),
            (np.zeros((2, 3, 4)), "(G, 4, 4) stack"),
            (np.stack([_pose_rz(0.5).matrix, np.eye(4)]), "identity"),
        ],
    )
    def test_rejects(self, matrices, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sym.SymmetryGroup(matrices)

    def test_stack_is_read_only_copy(self):
        mats = np.stack([np.eye(4), _pose_rz(0.5).matrix])
        g = sym.SymmetryGroup(mats)
        mats[1] = np.eye(4)
        assert len(g) == 2
        assert np.array_equal(g.matrices[1], _pose_rz(0.5).matrix)
        with pytest.raises(ValueError):
            g.matrices[1, 0, 3] = 1.0


class TestDiscretize:
    def test_identity_only(self):
        g = sym.discretize(sym.SymmetrySpec())
        assert len(g) == 1
        assert np.array_equal(g.matrices[0], np.eye(4))

    def test_single_axis_64(self):
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=64)
        assert len(g) == 64

    def test_flip_plus_axis_128(self):
        # Flip about x combined with a z rotation axis: no overlaps.
        flip = Pose.from_rt(oracles.rotation_about_axis([1, 0, 0], math.pi), [0, 0, 0])
        spec = sym.SymmetrySpec(
            discrete=(Pose.identity(), flip),
            continuous_axes=(([0, 0, 1.0], [0, 0, 0]),),
        )
        g = sym.discretize(spec, angles_per_axis=64)
        assert len(g) == 128

    def test_flip_about_same_axis_dedups(self):
        # A 2-fold flip about the continuous axis itself is already one of the
        # 64 sampled rotations, so the product collapses back to 64.
        flip = Pose.from_rt(oracles.rotation_about_axis([0, 0, 1], math.pi), [0, 0, 0])
        spec = sym.SymmetrySpec(
            discrete=(Pose.identity(), flip),
            continuous_axes=(([0, 0, 1.0], [0, 0, 0]),),
        )
        g = sym.discretize(spec, angles_per_axis=64)
        assert len(g) == 64

    def test_identity_is_first(self):
        spec = sym.SymmetrySpec(continuous_axes=(([0, 1.0, 0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=8)
        assert np.array_equal(g.matrices[0], np.eye(4))

    def test_too_large(self):
        axes = tuple(
            (np.array(a) / np.linalg.norm(a), np.zeros(3))
            for a in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0])
        )
        spec = sym.SymmetrySpec(continuous_axes=axes)
        with pytest.raises(sym.GroupTooLargeError):
            sym.discretize(spec, angles_per_axis=64, max_elements=128)

    def test_cap_is_checked_before_any_rotation_is_built(self, monkeypatch):
        # A request over the cap must fail before it allocates its group:
        # no axis rotation may be built.
        built = []
        real = sym.rotations_about_axes

        def spy(axes, angles):
            built.append(len(angles))
            return real(axes, angles)

        monkeypatch.setattr(sym, "rotations_about_axes", spy)
        cap = sym.MAX_GROUP_ELEMENTS
        axis = (([0, 0, 1.0], [0, 0, 0]),)
        flip = Pose.from_rt(oracles.rotation_about_axis([1, 0, 0], math.pi), [0, 0, 0])
        for spec, angles, total in [
            (sym.SymmetrySpec(continuous_axes=axis), cap + 1, cap + 1),
            (sym.SymmetrySpec(discrete=(Pose.identity(), flip), continuous_axes=axis),
             cap // 2 + 1, cap + 2),
        ]:
            with pytest.raises(sym.GroupTooLargeError,
                               match=f"^discretization yields {total} elements, "
                                     f"cap is {cap}$"):
                sym.discretize(spec, angles_per_axis=angles)
        assert built == []
        # Under the cap the rotations are built through the spy.
        assert len(sym.discretize(sym.SymmetrySpec(continuous_axes=axis),
                                  angles_per_axis=8)) == 8
        assert built == [8]

    def test_angle_values(self):
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=4)
        want = oracles.rotation_about_axis([0, 0, 1], math.pi / 2)
        assert any(np.max(np.abs(m[:3, :3] - want)) < 1e-12 for m in g.matrices)

    def test_offset_axis_fixes_offset_point(self):
        offset = np.array([0.1, -0.2, 0.05])
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], offset),))
        g = sym.discretize(spec, angles_per_axis=16)
        for m in g.matrices:
            moved = apply_matrix(m, offset)
            assert np.max(np.abs(moved - offset)) < 1e-12

    @staticmethod
    def _oracle_specs():
        flip_x = Pose.from_rt(oracles.rotation_about_axis([1, 0, 0], math.pi), [0, 0, 0])
        flip_z = Pose.from_rt(oracles.rotation_about_axis([0, 0, 1], math.pi), [0, 0, 0])
        rng = np.random.default_rng(5)
        tilted = Pose.from_rt(oracles.random_rotation(rng), [0.01, -0.02, 0.005])
        z_axis = (([0, 0, 1.0], [0.01, 0.02, 0.0]),)

        def shifted(pose, dx):
            m = pose.matrix.copy()
            m[0, 3] += dx
            return Pose(m)

        return {
            "identity-only": (sym.SymmetrySpec(), 64),
            # Copies within _DEDUP_TOL of the identity, and no axis: the
            # group is the identity alone.
            "near-identity-only": (
                sym.SymmetrySpec(discrete=(shifted(Pose.identity(), 1e-9),
                                           Pose.identity(),
                                           shifted(Pose.identity(), -0.5e-9))),
                64,
            ),
            "discrete-x-continuous": (
                sym.SymmetrySpec(discrete=(Pose.identity(), flip_x, flip_z, tilted),
                                 continuous_axes=z_axis),
                64,
            ),
            # Within _DEDUP_TOL of the identity (0.8e-9, exactly 1e-9) or of a
            # dropped element only (1.6e-9 is 0.8e-9 from the dropped 0.8e-9
            # copy but 1.6e-9 from the kept identity, so it stays), and near
            # copies of a kept element.
            "near-duplicates": (
                sym.SymmetrySpec(
                    discrete=(
                        Pose.identity(),
                        shifted(Pose.identity(), 0.8e-9),
                        shifted(Pose.identity(), 1e-9),
                        shifted(Pose.identity(), 1.6e-9),
                        flip_x,
                        shifted(flip_x, 0.5e-9),
                        shifted(flip_x, 2e-9),
                    ),
                    continuous_axes=z_axis,
                ),
                16,
            ),
            "two-axes": (
                sym.SymmetrySpec(
                    discrete=(Pose.identity(), flip_x),
                    continuous_axes=(([0, 0, 1.0], [0, 0, 0]), ([1.0, 0, 0], [0, 0.01, 0])),
                ),
                12,
            ),
        }

    @pytest.mark.parametrize("block", [None, 1, 100])
    @pytest.mark.parametrize(
        "case", ["identity-only", "discrete-x-continuous", "near-duplicates", "two-axes",
                 "near-identity-only"]
    )
    def test_equals_sequential_scan_oracle(self, monkeypatch, case, block):
        if block is not None:  # several row blocks of the pairwise table
            monkeypatch.setattr(sym, "_DEDUP_BLOCK", block)
        spec, angles = self._oracle_specs()[case]
        want = oracles.discretize_matrices(spec, angles)
        got = sym.discretize(spec, angles_per_axis=angles)
        assert len(got) == len(want)
        for e, m in zip(got.matrices, want):
            assert np.array_equal(e, m)
        if case == "near-duplicates":
            # the identity, the 1.6e-9 copy and flip_x with its 2e-9 copy
            assert len(want) == 4 * angles
        if case.endswith("identity-only"):
            assert len(want) == 1


class TestSymmetricDistance:
    def test_equal_poses_zero(self):
        pts = _points()
        t = Pose.from_rt(oracles.rotation_about_axis([1, 1, 0], 0.4), [0.1, 0, 0.5])
        assert sym.symmetric_distance(pts, pts[None], t, t) == 0.0

    def test_group_member_attains_zero(self):
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=16)
        t1 = Pose.from_rt(oracles.rotation_about_axis([0, 1, 0], 0.3), [0, 0, 1.0])
        t2 = t1.compose(Pose(g.matrices[5]))
        pts = _points()
        d = sym.symmetric_distance(pts, apply_matrices(g.matrices, pts), t1, t2)
        assert d < 1e-12

    def test_translation_lower_bound(self):
        # Centered points, pure-rotation group: mean error can't drop below
        # the translation distance, and identity attains it.
        pts = _square_points()
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=64)
        t1 = Pose.identity()
        t2 = Pose.from_rt(np.eye(3), [0.01, 0, 0])
        d = sym.symmetric_distance(pts, apply_matrices(g.matrices, pts), t1, t2)
        assert abs(d - 0.01) < 1e-12

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(21)
        flip = Pose.from_rt(oracles.rotation_about_axis([1, 0, 0], math.pi), [0, 0, 0])
        spec = sym.SymmetrySpec(
            discrete=(Pose.identity(), flip),
            continuous_axes=(([0, 0, 1.0], [0, 0, 0]),),
        )
        g = sym.discretize(spec, angles_per_axis=16)
        pts = _points(n=33, seed=22)
        images = apply_matrices(g.matrices, pts)
        for _ in range(10):
            t1 = Pose(oracles.random_pose_matrix(rng))
            t2 = Pose(oracles.random_pose_matrix(rng))
            got = sym.symmetric_distance(pts, images, t1, t2)
            want = oracles.symmetric_distance(t1.matrix, t2.matrix, g.matrices, pts)
            assert got == want

    def test_l1_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(23)
        spec = sym.SymmetrySpec(continuous_axes=(([0, 1.0, 0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=8)
        pts = _points(n=17, seed=24)
        images = apply_matrices(g.matrices, pts)
        for _ in range(10):
            t1 = Pose(oracles.random_pose_matrix(rng))
            t2 = Pose(oracles.random_pose_matrix(rng))
            got = sym.symmetric_distance_l1(pts, images, t1, t2)
            want = oracles.symmetric_distance_l1(t1.matrix, t2.matrix, g.matrices, pts)
            assert got == want

    def test_group_invariance(self):
        # Right-composing t1 with a group element permutes a closed group.
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=8)
        pts = _points(n=25, seed=25)
        rng = np.random.default_rng(26)
        t1 = Pose(oracles.random_pose_matrix(rng))
        t2 = Pose(oracles.random_pose_matrix(rng))
        images = apply_matrices(g.matrices, pts)
        base = sym.symmetric_distance(pts, images, t1, t2)
        for s in g.matrices:
            d = sym.symmetric_distance(pts, images, t1.compose(Pose(s)), t2)
            assert abs(d - base) <= 1e-9 * max(1.0, base)

    def test_argument_symmetry_for_rotation_group(self):
        # Holds when the point set is itself invariant under the group
        # (swap arguments, substitute x -> S^-1 x over the orbit).
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=8)
        rng = np.random.default_rng(28)
        seeds = rng.uniform(-0.05, 0.05, size=(3, 3))
        pts = apply_matrices(g.matrices, seeds).reshape(-1, 3)
        images = apply_matrices(g.matrices, pts)
        for _ in range(5):
            t1 = Pose(oracles.random_pose_matrix(rng))
            t2 = Pose(oracles.random_pose_matrix(rng))
            d12 = sym.symmetric_distance(pts, images, t1, t2)
            d21 = sym.symmetric_distance(pts, images, t2, t1)
            assert abs(d12 - d21) <= 1e-9 * max(1.0, d12)

    def test_zero_iff_relative_pose_in_group(self):
        spec = sym.SymmetrySpec(continuous_axes=(([0, 0, 1.0], [0, 0, 0]),))
        g = sym.discretize(spec, angles_per_axis=8)
        pts = _points(n=30, seed=29)  # full-rank
        rng = np.random.default_rng(30)
        t1 = Pose(oracles.random_pose_matrix(rng))
        images = apply_matrices(g.matrices, pts)
        # Relative pose in the group -> zero.
        in_group = t1.compose(Pose(g.matrices[3]))
        assert sym.symmetric_distance(pts, images, t1, in_group) < 1e-6
        # Relative pose off the group -> bounded away from zero.
        off = t1.compose(_pose_rz(2.0 * math.pi / 16))  # halfway between samples
        assert sym.symmetric_distance(pts, images, t1, off) > 1e-4

    def test_empty_points_rejected(self):
        empty = np.zeros((0, 3))
        with pytest.raises(ValueError):
            sym.symmetric_distance(empty, empty[None], Pose.identity(), Pose.identity())
