import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from scenekin import artinfer
from scenekin.artinfer import (
    InferenceConfig,
    JointModel,
    ObservationPair,
    PartSegmentation,
    change_candidates,
    contact_heatmap,
    detect_change,
    estimate_motion,
    infer_articulation,
    kabsch,
    screw_decompose,
)
from scenekin.errors import (
    DegenerateMotionError,
    InferenceError,
    MotionEstimationError,
    NoMotionError,
)
from scenekin.geom import (
    PointCloud,
    RigidTransform,
    line_to_line_distance,
    normalize,
    rotation_from_angle_axis,
)
from scenekin.sensing import id_parts
from scenekin.simworld import GenerationConfig, generate_scene, surface_normal

from conftest import identity, observe_interaction


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """`a` applied after `b`: compose(a, b).apply(p) == a.apply(b.apply(p))."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def axis_angle_deg(u, v):
    # atan2 form: well conditioned near 0, unlike acos of the dot product
    cross = np.linalg.norm(np.cross(u, v))
    dot = abs(float(np.dot(u, v)))
    return math.degrees(math.atan2(cross, dot))


def revolute_transform(axis, pivot, angle):
    return RigidTransform.from_rotation_about_line(axis, angle, pivot)


def _bfs_labels(points, radius):
    """Brute-force components of the graph linking points within `radius`,
    numbered in order of their lowest index."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    adj = d2 <= radius * radius
    labels = np.full(len(points), -1)
    n_found = 0
    for s in range(len(points)):
        if labels[s] >= 0:
            continue
        labels[s] = n_found
        queue = [s]
        while queue:
            k = queue.pop(0)
            for m in np.flatnonzero(adj[k] & (labels < 0)):
                labels[m] = n_found
                queue.append(m)
        n_found += 1
    return labels


class TestComponents:
    # integer coordinates and half-integer radii: no pair sits on the link
    # boundary, so rounding cannot decide an edge
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1,
                    max_size=40),
           st.sampled_from([0.5, 1.5, 2.5]))
    def test_matches_brute_force_bfs(self, coords, radius):
        points = np.array(coords, dtype=np.float64)
        labels = artinfer._connected_components(points, radius)
        np.testing.assert_array_equal(labels, _bfs_labels(points, radius))

    def test_size_tie_goes_to_lowest_index(self):
        # two 2-point components, {0, 3} and {1, 2}, plus a non-candidate
        positions = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0],
                              [5.0, 0.01, 0.0], [0.0, 0.01, 0.0],
                              [9.0, 0.0, 0.0]])
        candidates = np.array([True, True, True, True, False])
        mask = artinfer._select_component(positions, candidates,
                                          np.ones(5), 0.1)
        np.testing.assert_array_equal(mask, [True, False, False, True, False])


# Unbounded references for the bounded neighbour queries of the
# re-segmentation: every point is searched to its nearest neighbour.
def _explained_by_ref(points, target, fit_epsilon, far_cap):
    normals, valid = target.normals(artinfer._NORMAL_K,
                                    np.arange(len(target)))
    d, idx = target.tree.query(points)
    offset = points - target.positions[idx]
    plane = np.abs(np.einsum("ni,ni->n", offset, normals[idx]))
    by_plane = (d <= far_cap) & (plane <= fit_epsilon) & valid[idx]
    return (d <= fit_epsilon) | by_plane


def _competitive_labels_ref(positions, moved, explained, ambiguity_radius,
                            normals=None, normals_valid=None,
                            in_plane_tol=0.0):
    mobile_seeds = moved & explained
    static_seeds = ~moved
    ambiguous = moved & ~explained
    mask = mobile_seeds.copy()
    if not ambiguous.any() or not mobile_seeds.any():
        return mask
    amb_pts = positions[ambiguous]
    seed_idx = np.flatnonzero(mobile_seeds)
    d_mob, nn = cKDTree(positions[mobile_seeds]).query(amb_pts)
    if static_seeds.any():
        d_sta, _ = cKDTree(positions[static_seeds]).query(amb_pts)
    else:
        d_sta = np.full(len(amb_pts), np.inf)
    take = (d_mob < d_sta) & (d_mob <= ambiguity_radius)
    if in_plane_tol > 0.0 and normals is not None:
        seeds = seed_idx[nn]
        offset = amb_pts - positions[seeds]
        along = np.abs(np.einsum("ni,ni->n", offset, normals[seeds]))
        take &= (along <= in_plane_tol) & normals_valid[seeds]
    mask[np.flatnonzero(ambiguous)[take]] = True
    return mask


def _attached_ref(positions, seeds, attach_radius):
    near, _ = cKDTree(positions[seeds]).query(positions)
    return near <= attach_radius


# Integer coordinates and radii put points at exactly a radius from each
# other, on the boundary of every bounded query. The radii of
# `_competitive_labels` and `_attached` are module constants, so their tests
# patch them to these radii.
_CELLS = st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1,
                  max_size=30)
_RADIUS = st.sampled_from([1.0, 2.0, 3.0])
_AXES = np.vstack([np.eye(3), -np.eye(3)])


class TestBoundedQueries:
    @settings(max_examples=200, deadline=None)
    @given(_CELLS, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5),
                                      st.integers(0, 3)), max_size=30),
           _RADIUS, _RADIUS)
    def test_explained_by(self, cells, shifts, fit_epsilon, far_cap):
        # queries sit on target points moved by 0..3 along an axis, so some
        # lie exactly at far_cap and at fit_epsilon
        target = PointCloud(np.array(cells, dtype=np.float64))
        points = np.array([target.positions[i % len(target)] + k * _AXES[a]
                           for i, a, k in shifts]).reshape(-1, 3)
        got = artinfer._explained_by(points, target, fit_epsilon, far_cap)
        want = _explained_by_ref(points, target, fit_epsilon, far_cap)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(_CELLS.flatmap(lambda cells: st.tuples(
               st.just(cells),
               st.lists(st.sampled_from("msa"), min_size=len(cells),
                        max_size=len(cells)),
               st.lists(st.integers(0, 6), min_size=len(cells),
                        max_size=len(cells)))),
           _RADIUS, st.sampled_from([0.0, 0.5, 1.0]))
    def test_competitive_labels(self, drawn, ambiguity_radius, in_plane_tol):
        # each point is a mobile seed (m), static (s) or ambiguous (a); the
        # normal index 6 marks an invalid normal
        cells, roles, normal_idx = drawn
        positions = np.array(cells, dtype=np.float64)
        roles = np.array(roles)
        moved, explained = roles != "s", roles == "m"
        normal_idx = np.array(normal_idx)
        normals = np.vstack([_AXES, np.zeros(3)])[normal_idx]
        valid = normal_idx < 6
        asked = []

        def seed_normals(rows):
            asked.append(rows)
            return normals[rows], valid[rows]

        for kw, ref_kw in (({}, {}),
                           (dict(normals=seed_normals,
                                 in_plane_tol=in_plane_tol),
                            dict(normals=normals, normals_valid=valid,
                                 in_plane_tol=in_plane_tol))):
            with mock.patch.object(artinfer, "AMBIGUITY_RADIUS",
                                   ambiguity_radius):
                got = artinfer._competitive_labels(positions, moved,
                                                   explained, **kw)
            want = _competitive_labels_ref(positions, moved, explained,
                                           ambiguity_radius, **ref_kw)
            np.testing.assert_array_equal(got, want)
        # only mobile seeds' normals are asked for
        assert all((roles[rows] == "m").all() for rows in asked)

    @settings(max_examples=200, deadline=None)
    @given(_CELLS.flatmap(lambda cells: st.tuples(
               st.just(cells),
               st.lists(st.booleans(), min_size=len(cells),
                        max_size=len(cells)).filter(any))),
           _RADIUS)
    def test_attached(self, drawn, attach_radius):
        cells, seeds = drawn
        positions = np.array(cells, dtype=np.float64)
        seeds = np.array(seeds)
        with mock.patch.object(artinfer, "ATTACH_RADIUS", attach_radius):
            got = artinfer._attached(positions, seeds)
        np.testing.assert_array_equal(
            got, _attached_ref(positions, seeds, attach_radius))


class TestContactHeatmap:
    def test_at_contact(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        heat = contact_heatmap(cloud, [1.0, 2.0, 3.0], sigma=0.05)
        assert heat[0] == pytest.approx(1.0)

    def test_one_sigma(self):
        cloud = PointCloud(np.array([[0.05, 0.0, 0.0]]))
        heat = contact_heatmap(cloud, [0.0, 0.0, 0.0], sigma=0.05)
        assert heat[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.normal(size=(60, 3))
            c = rng.normal(size=3)
            heat = contact_heatmap(PointCloud(pts), c, sigma=0.1)
            d = np.linalg.norm(pts - c, axis=1)
            order = np.argsort(d)
            assert np.all(np.diff(heat[order]) <= 1e-15)


class TestDetectChange:
    def _pair(self, before, after, c, c_after):
        return ObservationPair(PointCloud(before), PointCloud(after), c,
                               c_after)

    def test_identical_clouds_raise(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        obs = self._pair(pts, pts.copy(), pts[0], pts[0])
        config = InferenceConfig()
        with pytest.raises(NoMotionError):
            detect_change(obs, change_candidates(obs, config), config)

    def test_heat_selects_touched_component(self):
        rng = np.random.default_rng(1)
        static = rng.uniform(0, 0.3, size=(80, 3))
        small = rng.uniform(0, 0.2, size=(40, 3)) + [2.0, 0.0, 0.0]
        big = rng.uniform(0, 0.4, size=(120, 3)) + [-3.0, 0.0, 0.0]
        before = np.vstack([static, small, big])
        after = np.vstack([static, small + [0.0, 0.5, 0.0],
                           big + [0.0, -0.5, 0.0]])
        contact = small[0]
        obs = self._pair(before, after, contact, contact + [0.0, 0.5, 0.0])
        config = InferenceConfig(epsilon=0.01, component_radius=0.3)
        seg = detect_change(obs, change_candidates(obs, config), config)
        picked = np.flatnonzero(seg.mobile_mask_before)
        assert set(picked) == set(range(80, 120))
        # without the contact prior the larger moved blob wins instead
        no_heat = replace(config, use_contact_heat=False)
        seg2 = detect_change(obs, change_candidates(obs, no_heat), no_heat)
        assert set(np.flatnonzero(seg2.mobile_mask_before)) == set(range(120, 240))

    def test_heat_sigma_sets_the_reach_of_the_contact(self):
        # a small moved blob 0.1 m from the contact and a large one 0.3 m
        # away: a tight heat kernel keeps the near blob, a wide one weighs
        # every moved point about alike and keeps the large blob
        rng = np.random.default_rng(3)
        near = rng.uniform(-0.02, 0.02, size=(10, 3)) + [0.1, 0.0, 0.0]
        far = rng.uniform(-0.05, 0.05, size=(100, 3)) + [-0.3, 0.0, 0.0]
        before = np.vstack([near, far])
        lift = np.array([0.0, 0.0, 0.5])
        obs = self._pair(before, before + lift, np.zeros(3), lift)
        picked = {}
        for sigma in (0.05, 1.0):
            config = InferenceConfig(heat_sigma=sigma, component_radius=0.1)
            seg = detect_change(obs, change_candidates(obs, config), config)
            picked[sigma] = (set(np.flatnonzero(seg.mobile_mask_before)),
                             set(np.flatnonzero(seg.mobile_mask_after)))
        assert picked[0.05] == (set(range(10)), set(range(10)))
        assert picked[1.0] == (set(range(10, 110)), set(range(10, 110)))

    def test_candidates_monotone_in_epsilon(self):
        rng = np.random.default_rng(2)
        before = rng.normal(size=(100, 3))
        after = before + rng.normal(scale=0.05, size=(100, 3))
        obs = self._pair(before, after, before[0], after[0])
        prev_b = prev_a = None
        for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
            cb, ca = change_candidates(obs, InferenceConfig(epsilon=eps))
            if prev_b is not None:
                assert np.all(cb | ~prev_b)   # prev_b implies cb
                assert np.all(ca | ~prev_a)
            prev_b, prev_a = cb, ca

    def test_drawer_capture_iou(self):
        scene = generate_scene(13, GenerationConfig(0, 1, 0))
        part_idx, joint = scene.joints[0]
        panel = scene.world_parts()[part_idx]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        normal = surface_normal(scene, contact)
        obs, outcome, _ = observe_interaction(scene, contact, normal)
        assert outcome.success and abs(outcome.delta_state) >= 0.2
        joint_est, seg = infer_articulation(obs, InferenceConfig(mode="oracle"))
        for mask, cloud in ((seg.mobile_mask_before, obs.before),
                            (seg.mobile_mask_after, obs.after)):
            gt = id_parts(cloud.point_ids) == part_idx
            iou = np.logical_and(mask, gt).sum() / np.logical_or(mask, gt).sum()
            assert iou >= 0.95


class TestEstimateMotion:
    def _synthetic_pair(self, T, n=300, seed=3, noise=0.0):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.4, 0.4, size=(n, 3))
        ids = np.arange(n)
        before = PointCloud(pts, point_ids=ids)
        moved = T.apply(pts)
        if noise > 0:
            moved = moved + rng.normal(scale=noise, size=moved.shape)
        after = PointCloud(moved, point_ids=ids.copy())
        obs = ObservationPair(before, after, pts[0], T.apply(pts[0]))
        seg = PartSegmentation(np.ones(n, dtype=bool), np.ones(n, dtype=bool))
        return obs, seg

    def test_oracle_exact_recovery(self):
        T = revolute_transform([0.0, 0.0, 1.0], [0.5, -0.2, 0.0],
                               math.radians(37.0))
        obs, seg = self._synthetic_pair(T)
        est = estimate_motion(obs, seg, InferenceConfig(mode="oracle"))
        assert np.abs(est.rotation - T.rotation).max() < 1e-9
        assert np.abs(est.translation - T.translation).max() < 1e-9

    def test_identity_motion(self):
        obs, seg = self._synthetic_pair(identity())
        est = estimate_motion(obs, seg, InferenceConfig(mode="oracle"))
        assert np.abs(est.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(est.translation).max() < 1e-9

    def test_too_few_correspondences(self):
        obs, seg = self._synthetic_pair(identity(), n=5)
        seg = PartSegmentation(np.array([True, True, False, False, False]),
                               np.array([False, False, False, True, True]))
        with pytest.raises(MotionEstimationError):
            estimate_motion(obs, seg, InferenceConfig(mode="oracle"))

    def test_kabsch_reflection_guard(self):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(30, 3))
        R = rotation_from_angle_axis(normalize([1.0, 2.0, 0.5]), 2.5)
        dst = src @ R.T + np.array([0.1, 0.2, -0.3])
        T = kabsch(src, dst, np.ones(len(src)))
        assert np.linalg.det(T.rotation) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(T.apply(src) - dst).max() < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1),
           st.floats(0.0, math.pi), st.tuples(*[st.floats(-5.0, 5.0)] * 3),
           st.integers(3, 40).flatmap(lambda n: st.lists(
               st.floats(0.1, 10.0), min_size=n, max_size=n)),
           st.one_of(st.none(), st.floats(1.0, 1e4)),
           st.integers(0, 2 ** 32 - 1))
    def test_kabsch_recovers_rigid_transform(self, axis, angle, shift,
                                             weights, anchor, seed):
        # noise-free pairs under positive weights; `anchor` appends one
        # heavy row, as estimate_motion appends the contact pair
        src = np.random.default_rng(seed).normal(size=(len(weights), 3))
        w = np.array(weights)
        if anchor is not None:
            src = np.vstack([src, src.mean(axis=0)])
            w = np.append(w, anchor * len(weights))
        R = rotation_from_angle_axis(normalize(axis), angle)
        dst = src @ R.T + np.array(shift)
        T = kabsch(src, dst, weights=w)
        assert np.abs(T.rotation - R).max() < 1e-9
        assert np.abs(T.translation - shift).max() < 1e-9

    def test_icp_door_rotation_with_noise(self):
        # seeded benchmark: moderate door rotations, 2 mm noise
        ok = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(100 + seed)
            # door-like slab: width x thin x height grid
            xs = np.linspace(0.0, 0.5, 26)
            zs = np.linspace(0.0, 0.9, 46)
            gx, gz = np.meshgrid(xs, zs)
            pts = np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])
            angle = math.radians(rng.uniform(25.0, 40.0))
            T = revolute_transform([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], angle)
            moved = T.apply(pts) + rng.normal(scale=0.002, size=pts.shape)
            noisy = pts + rng.normal(scale=0.002, size=pts.shape)
            before = PointCloud(noisy)
            after = PointCloud(moved)
            c = pts[len(pts) // 2]
            obs = ObservationPair(before, after, c, T.apply(c))
            seg = PartSegmentation(np.ones(len(pts), bool), np.ones(len(pts), bool))
            est = estimate_motion(obs, seg, InferenceConfig(mode="icp"))
            err = compose(est, T.inverse())
            _, rot_err = __import__("scenekin.geom", fromlist=["rotation_to_angle_axis"]
                                    ).rotation_to_angle_axis(err.rotation)
            if math.degrees(rot_err) < 2.0:
                ok += 1
        assert ok >= int(0.9 * trials)


class TestScrewDecompose:
    def test_pure_translation(self):
        T = RigidTransform.from_translation([0.3, 0.0, 0.0])
        joint = screw_decompose(T, InferenceConfig())
        assert joint.kind == "prismatic"
        np.testing.assert_allclose(joint.axis, [1.0, 0.0, 0.0], atol=1e-12)
        assert joint.state == pytest.approx(0.3, abs=1e-12)

    def test_rotation_about_offset_pivot(self):
        T = revolute_transform([0.0, 0.0, 1.0], [1.0, 1.0, 0.0],
                               math.radians(40.0))
        joint = screw_decompose(T, InferenceConfig())
        assert joint.kind == "revolute"
        assert math.degrees(joint.state) == pytest.approx(40.0, abs=1e-9)
        # recovered pivot must lie on the line {(1, 1, z)}
        assert abs(joint.pivot[0] - 1.0) < 1e-9
        assert abs(joint.pivot[1] - 1.0) < 1e-9
        np.testing.assert_allclose(np.abs(joint.axis), [0, 0, 1], atol=1e-12)

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateMotionError):
            screw_decompose(identity(), InferenceConfig())

    def test_pivot_defining_equation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = normalize(rng.normal(size=3))
            q = rng.uniform(-2, 2, size=3)
            theta = rng.uniform(math.radians(2.0), math.radians(170.0))
            T = revolute_transform(u, q, theta)
            joint = screw_decompose(T, InferenceConfig())
            t_perp = T.translation - np.dot(joint.axis, T.translation) * joint.axis
            resid = (np.eye(3) - T.rotation) @ joint.pivot - t_perp
            assert np.linalg.norm(resid) < 1e-9

    def test_round_trip_random_joints(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            if rng.uniform() < 0.5:
                u = normalize(rng.normal(size=3))
                q = rng.uniform(-2, 2, size=3)
                theta = rng.uniform(math.radians(2.0), math.radians(170.0))
                T = revolute_transform(u, q, theta)
                joint = screw_decompose(T, InferenceConfig())
                assert joint.kind == "revolute"
                assert axis_angle_deg(joint.axis, u) < 1e-7
                assert line_to_line_distance(joint.pivot, joint.axis, q, u) < 1e-9
                assert abs(joint.state - theta) < 1e-9
                assert abs(joint.pitch) < 1e-9
            else:
                u = normalize(rng.normal(size=3))
                s = rng.uniform(1e-3, 0.5)
                joint = screw_decompose(RigidTransform.from_translation(u * s),
                                        InferenceConfig(motion_epsilon=0.5e-3))
                assert joint.kind == "prismatic"
                assert axis_angle_deg(joint.axis, u) < 1e-7
                assert abs(joint.state - s) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1),
           st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           st.one_of(
               st.tuples(st.just("revolute"), st.floats(
                   artinfer.THETA_MIN + 1e-6, math.pi)),
               st.tuples(st.just("prismatic"), st.floats(
                   2 * InferenceConfig().motion_epsilon, 1.0))))
    def test_round_trip_property(self, axis, pivot, motion):
        # a rotation about the line through `pivot`, or a slide along `axis`
        # (pivot unused), decomposes back to its kind, axis up to sign
        # (1e-6 deg), angle or distance (1e-9) and, for a rotation, a pivot
        # on the drawn line (1e-9 m) with no pitch (1e-9 m)
        kind, amount = motion
        u, q = normalize(axis), np.array(pivot)
        if kind == "revolute":
            T = revolute_transform(u, q, amount)
        else:
            T = RigidTransform.from_translation(u * amount)
        joint = screw_decompose(T, InferenceConfig())
        assert joint.kind == kind
        assert axis_angle_deg(joint.axis, u) < 1e-6
        assert abs(joint.state - amount) < 1e-9
        if kind == "revolute":
            assert np.linalg.norm(np.cross(joint.pivot - q, u)) < 1e-9
            assert abs(joint.pitch) < 1e-9

    def test_screw_with_pitch(self):
        u = np.array([0.0, 0.0, 1.0])
        R = rotation_from_angle_axis(u, math.radians(30.0))
        T = RigidTransform(R, np.array([0.0, 0.0, 0.05]))
        joint = screw_decompose(T, InferenceConfig())
        assert joint.kind == "revolute"
        assert joint.pitch == pytest.approx(0.05, abs=1e-12)

    def test_frame_equivariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            u = normalize(rng.normal(size=3))
            q = rng.uniform(-1, 1, size=3)
            theta = rng.uniform(math.radians(5.0), math.radians(120.0))
            T = revolute_transform(u, q, theta)
            G = RigidTransform(
                rotation_from_angle_axis(normalize(rng.normal(size=3)),
                                         rng.uniform(0, math.pi)),
                rng.uniform(-1, 1, size=3))
            conj = compose(compose(G, T), G.inverse())
            a = screw_decompose(T, InferenceConfig())
            b = screw_decompose(conj, InferenceConfig())
            assert abs(a.state - b.state) < 1e-6
            assert axis_angle_deg(b.axis, G.rotation @ a.axis) < 1e-6
            assert line_to_line_distance(b.pivot, b.axis,
                                         G.apply(a.pivot), G.rotation @ a.axis) < 1e-6


class TestInferArticulation:
    def test_drawer_end_to_end(self):
        scene = generate_scene(17, GenerationConfig(0, 1, 0))
        part_idx, gt = scene.joints[0]
        panel = scene.world_parts()[part_idx]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        normal = surface_normal(scene, contact)
        obs, outcome, _ = observe_interaction(scene, contact, normal,
                                              total=0.25)
        assert outcome.delta_state == pytest.approx(0.25, abs=1e-9)
        joint, _ = infer_articulation(obs, InferenceConfig(mode="oracle"))
        assert joint.kind == "prismatic"
        assert axis_angle_deg(joint.axis, gt.axis) < 1.0
        assert joint.state == pytest.approx(0.25, abs=0.005)

    def test_door_end_to_end_oracle(self):
        scene = generate_scene(19, GenerationConfig(1, 0, 0))
        part_idx, gt = scene.joints[0]
        panel = scene.world_parts()[part_idx]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        normal = surface_normal(scene, contact)
        obs, outcome, scene_after = observe_interaction(scene, contact, normal)
        assert outcome.success
        opened = abs(outcome.delta_state)
        assert math.degrees(opened) > 20.0
        joint, seg = infer_articulation(obs, InferenceConfig(mode="oracle"))
        assert joint.kind == "revolute"
        assert axis_angle_deg(joint.axis, gt.axis) < 2.0
        assert line_to_line_distance(joint.pivot, joint.axis,
                                     gt.pivot, gt.axis) < 0.01
        assert joint.state == pytest.approx(opened, abs=math.radians(1.0))

    def test_configured_far_cap_reaches_every_stage(self, monkeypatch):
        calls, caps = [], []
        real = artinfer.change_candidates
        real_explained = artinfer._explained_by

        def spy(obs, config):
            calls.append(config.fit_far_cap)
            return real(obs, config)

        def spy_explained(points, target, fit_epsilon, far_cap):
            caps.append(far_cap)
            return real_explained(points, target, fit_epsilon, far_cap)

        monkeypatch.setattr(artinfer, "change_candidates", spy)
        monkeypatch.setattr(artinfer, "_explained_by", spy_explained)
        xs = np.linspace(-0.25, 0.25, 26)
        zs = np.linspace(0.0, 0.8, 41)
        gx, gz = np.meshgrid(xs, zs)
        pts = np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])
        ids = np.arange(len(pts))
        T = revolute_transform([0, 0, 1], [0.4, 0.1, 0.0], math.radians(35.0))
        contact = pts[len(pts) // 2]
        obs = ObservationPair(PointCloud(pts, point_ids=ids),
                              PointCloud(T.apply(pts), point_ids=ids),
                              contact, T.apply(contact))
        infer_articulation(obs, InferenceConfig(mode="oracle",
                                                fit_far_cap=0.08))
        # the candidates are computed once and shared by change detection
        # and re-segmentation; every surface test of both uses the cap
        assert calls == [0.08]
        assert caps == [0.08] * 4

    def test_no_motion_is_inference_error(self):
        scene = generate_scene(23, GenerationConfig(0, 0, 2))
        part = scene.world_parts()[5]
        contact = part.center + part.rotation[:, 1] * part.half_extents[1]
        normal = surface_normal(scene, contact)
        obs, outcome, _ = observe_interaction(scene, contact, normal)
        assert not outcome.success
        with pytest.raises(InferenceError, match="change_detection"):
            infer_articulation(obs, InferenceConfig(mode="oracle"))

    def test_cloud_level_frame_equivariance(self):
        xs = np.linspace(-0.25, 0.25, 26)
        zs = np.linspace(0.0, 0.8, 41)
        gx, gz = np.meshgrid(xs, zs)
        pts = np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])
        ids = np.arange(len(pts))
        theta = math.radians(35.0)
        T = revolute_transform([0, 0, 1], [0.4, 0.1, 0.0], theta)
        before = PointCloud(pts, point_ids=ids)
        after = PointCloud(T.apply(pts), point_ids=ids.copy())
        contact = pts[len(pts) // 2]
        obs = ObservationPair(before, after, contact, T.apply(contact))
        joint, _ = infer_articulation(obs, InferenceConfig(mode="oracle"))

        G = RigidTransform(rotation_from_angle_axis(normalize([1, 1, 0.3]), 1.1),
                           np.array([0.3, -0.2, 0.5]))
        obs_g = ObservationPair(
            PointCloud(G.apply(pts), point_ids=ids.copy()),
            PointCloud(G.apply(T.apply(pts)), point_ids=ids.copy()),
            G.apply(contact), G.apply(T.apply(contact)))
        joint_g, _ = infer_articulation(obs_g, InferenceConfig(mode="oracle"))
        assert abs(joint.state - joint_g.state) < 1e-6
        assert axis_angle_deg(joint_g.axis, G.rotation @ joint.axis) < 1e-6
        assert line_to_line_distance(joint_g.pivot, joint_g.axis,
                                     G.apply(joint.pivot),
                                     G.rotation @ joint.axis) < 1e-6
