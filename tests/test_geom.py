import itertools
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation as ScipyRotation

from scenekin.errors import ArtifactError, ValidationError
from scenekin.geom import (
    ORTHO_TOL,
    PointCloud,
    RigidTransform,
    check_rotation,
    estimate_normals,
    line_to_line_distance,
    load_cloud_binary,
    point_to_line_distance,
    rotation_from_angle_axis,
    rotation_to_angle_axis,
    save_cloud_binary,
)

from conftest import identity


def random_rotation(rng):
    return ScipyRotation.random(random_state=np.random.RandomState(
        rng.integers(0, 2**31 - 1))).as_matrix()


class TestRigidTransform:
    def test_identity_keeps_cloud(self):
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(identity().apply(pts), pts)

    def test_pure_translation(self):
        T = RigidTransform.from_translation([1.0, 0.0, 0.0])
        np.testing.assert_allclose(T.apply(np.zeros((1, 3))), [[1.0, 0.0, 0.0]])

    def test_quarter_turn_about_z(self):
        R = rotation_from_angle_axis([0.0, 0.0, 1.0], np.pi / 2)
        out = RigidTransform(R, np.zeros(3)).apply(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            T = RigidTransform(random_rotation(rng), rng.normal(size=3))
            pts = rng.normal(size=(40, 3))
            np.testing.assert_allclose(T.inverse().apply(T.apply(pts)), pts,
                                       atol=1e-9)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValidationError):
            RigidTransform(R, np.zeros(3))


class TestPointCloud:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3)))

    def test_duplicate_point_ids_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((2, 3)), point_ids=np.array([5, 5]))

    def test_subset_by_mask(self):
        cloud = PointCloud(np.arange(12, dtype=float).reshape(4, 3),
                           point_ids=np.array([0, 1, 2, 3]))
        sub = cloud.subset(np.array([True, False, True, False]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.point_ids, [0, 2])

    def test_subset_by_indices_equals_subset_by_mask(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.normal(size=(50, 3)),
                           colors=rng.uniform(size=(50, 3)),
                           point_ids=np.arange(0, 100, 2))
        mask = rng.uniform(size=50) < 0.4
        by_mask, by_index = (cloud.subset(mask),
                             cloud.subset(np.flatnonzero(mask)))
        for field in ("positions", "colors", "point_ids"):
            a, b = getattr(by_mask, field), getattr(by_index, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_tree_and_normals_built_once(self):
        pts = np.random.default_rng(5).normal(size=(40, 3))
        cloud = PointCloud(pts)
        assert cloud.tree is cloud.tree
        np.testing.assert_array_equal(cloud.tree.data, pts)
        every = np.arange(40)
        for got, expect in zip(cloud.normals(8, every),
                               estimate_normals(PointCloud(pts), 8, every)):
            np.testing.assert_array_equal(got, expect)
        assert cloud.subset(np.arange(10)).tree is not cloud.tree

    def test_normals_clamp_k_to_the_cloud_size(self):
        pts = np.random.default_rng(6).normal(size=(6, 3))
        every = np.arange(6)
        for got, expect in zip(PointCloud(pts).normals(10, every),
                               estimate_normals(PointCloud(pts), 6, every)):
            np.testing.assert_array_equal(got, expect)
        normals, valid = PointCloud(pts[:2]).normals(10, [0, 1])
        assert normals.shape == (2, 3) and not normals.any()
        assert valid.shape == (2,) and not valid.any()


class TestEstimateNormals:
    def test_planar_patch(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(-1, 1, size=(200, 2))
        pts = np.column_stack([xy, np.zeros(200)])
        normals, valid = estimate_normals(PointCloud(pts), 8,
                                          np.arange(len(pts)))
        assert valid.all()
        dots = np.abs(normals[:, 2])
        assert np.all(dots > np.cos(np.deg2rad(1.0)))

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(3000, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
        normals, valid = estimate_normals(PointCloud(pts), 8,
                                          np.arange(len(pts)))
        radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cosang = np.abs(np.einsum("ni,ni->n", normals[valid], radial[valid]))
        frac = np.mean(cosang > np.cos(np.deg2rad(5.0)))
        assert frac >= 0.99

    def test_collinear_points_flagged(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        _, valid = estimate_normals(PointCloud(pts), 3, np.arange(3))
        assert not valid.any()


class TestAngleAxis:
    def test_identity(self):
        axis, angle = rotation_to_angle_axis(np.eye(3))
        assert angle == 0.0
        np.testing.assert_array_equal(axis, [0.0, 0.0, 1.0])

    def test_constructed_30_degrees(self):
        R = rotation_from_angle_axis([0.0, 1.0, 0.0], np.pi / 6)
        axis, angle = rotation_to_angle_axis(R)
        np.testing.assert_allclose(axis, [0.0, 1.0, 0.0], atol=1e-9)
        assert angle == pytest.approx(np.pi / 6, abs=1e-9)

    def test_round_trip_500_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            R = random_rotation(rng)
            axis, angle = rotation_to_angle_axis(R)
            back = rotation_from_angle_axis(axis, angle)
            worst = max(worst, float(np.abs(back - R).max()))
        assert worst < 1e-9

    def test_near_pi_stable(self):
        for ax in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]):
            R = rotation_from_angle_axis(ax, np.pi - 1e-9)
            axis, angle = rotation_to_angle_axis(R)
            back = rotation_from_angle_axis(axis, angle)
            assert np.abs(back - R).max() < 1e-9

    def test_scipy_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            R = random_rotation(rng)
            axis, angle = rotation_to_angle_axis(R)
            rotvec = ScipyRotation.from_matrix(R).as_rotvec()
            ref_angle = np.linalg.norm(rotvec)
            assert angle == pytest.approx(ref_angle, abs=1e-9)
            if ref_angle > 1e-6:
                ref_axis = rotvec / ref_angle
                assert np.abs(axis - ref_axis).max() < 1e-8

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            rotation_to_angle_axis(np.eye(3) * 2.0)


def _fails_orthonormality(M) -> bool:
    try:
        check_rotation(M)
    except ValidationError as err:
        return "not orthonormal" in str(err)
    return False


class TestCheckRotation:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from(["perturb", "scale", "reflect", "random"]),
           st.sampled_from([0.0, 1e-12, 4e-10, 5e-10, 6e-10, 1e-9, 4.9e-6,
                            5e-6, 5.1e-6, 1e-3]),
           st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_orthonormality_is_allclose(self, seed, how, size, special):
        # sizes straddle the off-diagonal (1e-9) and diagonal (~1e-5) bounds
        rng = np.random.default_rng(seed)
        R = random_rotation(rng)
        M = {"perturb": R + size * rng.normal(size=(3, 3)),
             "scale": R * (1.0 + size * rng.uniform(-1.0, 1.0)),
             "reflect": -R,
             "random": rng.normal(size=(3, 3))}[how]
        if special is not None:
            M[rng.integers(3), rng.integers(3)] = special
        with np.errstate(invalid="ignore"):
            want = not np.allclose(M @ M.T, np.eye(3), atol=ORTHO_TOL)
            assert _fails_orthonormality(M) == want


class TestLineDistances:
    def test_point_to_line(self):
        d = point_to_line_distance(np.array([[0.0, 1.0, 0.0]]),
                                   [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert d[0] == pytest.approx(1.0)

    def test_identical_lines(self):
        assert line_to_line_distance([0, 0, 0], [0, 0, 1],
                                     [0, 0, 5], [0, 0, 1]) == pytest.approx(0.0)

    def test_parallel_offset(self):
        d = line_to_line_distance([0, 0, 0], [0, 0, 1], [0.1, 0, 0], [0, 0, 1])
        assert d == pytest.approx(0.1)

    def test_skew_pair(self):
        d = line_to_line_distance([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0])
        assert d == pytest.approx(1.0)


class TestCloudSerialization:
    def _cloud(self):
        rng = np.random.default_rng(9)
        return PointCloud(
            rng.normal(size=(17, 3)),
            colors=rng.uniform(0, 1, size=(17, 3)),
            point_ids=np.arange(17) * 3 + 1,
        )

    def test_binary_round_trip(self, tmp_path):
        cloud = self._cloud()
        p = tmp_path / "cloud.xyzb"
        save_cloud_binary(cloud, p)
        back = load_cloud_binary(p)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.colors, cloud.colors)
        np.testing.assert_array_equal(back.point_ids, cloud.point_ids)

    # The ids keep each case's place in the product over (colors, part ids,
    # point ids) that covered the layout with the part-id flag bit; the
    # cases with part ids (2, 3, 6 and 7) left with that field.
    @pytest.mark.parametrize("fields",
                             itertools.product([False, True], repeat=2),
                             ids=["fields0", "fields1", "fields4", "fields5"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_binary_round_trip_is_exact(self, fields, data):
        n = data.draw(st.integers(0, 12))
        with_colors, with_ids = fields
        cloud = PointCloud(
            data.draw(hnp.arrays(np.float64, (n, 3))),
            colors=data.draw(hnp.arrays(np.float64, (n, 3)))
            if with_colors else None,
            point_ids=data.draw(hnp.arrays(np.int64, n, unique=True))
            if with_ids else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.xyzb")
            save_cloud_binary(cloud, path)
            back = load_cloud_binary(path)
        for name in ("positions", "colors", "point_ids"):
            a, b = getattr(cloud, name), getattr(back, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("size", [0, 3, 10, 20, 653, 657, 700])
    def test_binary_length_must_match_header(self, tmp_path, size):
        # 20 points with positions and ids take 16 + 20 * 32 = 656 bytes
        p = tmp_path / "cloud.xyzb"
        save_cloud_binary(PointCloud(np.zeros((20, 3)),
                                     point_ids=np.arange(20)), p)
        data = p.read_bytes()
        assert len(data) == 656
        p.write_bytes((data + bytes(100))[:size])
        with pytest.raises(ArtifactError, match=re.escape(f"cloud file {p} ")):
            load_cloud_binary(p)

    def test_binary_refuses_part_ids(self, tmp_path):
        """A file in the layout that carried per-point part ids (flag bit
        1, between the colours and the point ids) is refused with its path
        and the advice to re-run collect."""
        cloud = self._cloud()
        p = tmp_path / "parts.xyzb"
        p.write_bytes(b"SKPC" + struct.pack("<HHQ", 1, 7, len(cloud))
                      + cloud.positions.tobytes() + cloud.colors.tobytes()
                      + np.arange(len(cloud)).tobytes()
                      + cloud.point_ids.tobytes())
        with pytest.raises(ArtifactError, match=re.escape(
                f"cloud file {p} holds part ids")) as err:
            load_cloud_binary(p)
        assert "re-run collect" in str(err.value)

    def test_binary_rejects_unknown_flags(self, tmp_path):
        p = tmp_path / "cloud.xyzb"
        save_cloud_binary(PointCloud(np.eye(3)), p)
        data = bytearray(p.read_bytes())
        data[6] |= 8
        p.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match=re.escape(
                f"cloud file {p} has unknown flags 0x8")):
            load_cloud_binary(p)

    def test_binary_without_aux(self, tmp_path):
        cloud = PointCloud(np.eye(3))
        p = tmp_path / "bare.xyzb"
        save_cloud_binary(cloud, p)
        back = load_cloud_binary(p)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        assert back.colors is None and back.point_ids is None
