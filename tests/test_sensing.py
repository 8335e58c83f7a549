import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenekin import geom, sensing
from scenekin.errors import CaptureError, ValidationError
from scenekin.geom import (
    PointCloud,
    as_vec3,
    normalize,
    rotation_from_angle_axis,
)
from scenekin.sensing import (
    CROP_RADIUS,
    MAX_RANGE,
    VFOV_DEG,
    VOXEL,
    CameraPose,
    CaptureConfig,
    capture_interaction_after,
    capture_object_views,
    capture_scene_cloud,
    object_view_poses,
    range_image,
    raycast_capture,
    ring_poses,
    fuse_clouds,
    id_parts,
    _nearest_hits,
    _voxel_downsample,
)
from scenekin.simworld import (
    GenerationConfig,
    GroundTruthJoint,
    PartGeometry,
    SceneSpec,
    generate_scene,
    surface_normal,
)

from conftest import observe_interaction

BIG_BOUNDS = (np.array([-10.0, -10.0, -10.0]), np.array([10.0, 10.0, 10.0]))
NOISE = CaptureConfig().noise_sigma


def single_box_scene(center, half, kind="static_body"):
    part = PartGeometry(center, half, np.eye(3), [0.3, 0.6, 0.9], kind)
    return SceneSpec((part,), (), BIG_BOUNDS, 0)


def _ray_box_hits(origins, dirs, box):
    """Slab test of rays against one oriented box.

    origins: (3,) shared origin; dirs: (N, 3). Returns (t (N,), hit (N,) bool,
    local points (N, 3)) where t is the entry distance.
    """
    R = box.rotation
    o = (origins - box.center) @ R
    d = dirs @ R
    h = box.half_extents
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        t1 = (-h - o) * inv
        t2 = (h - o) * inv
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    # rays parallel to a slab: inside it -> no constraint, outside -> miss
    par = np.abs(d) < 1e-12
    inside = np.abs(o) <= h
    near = np.where(par, np.where(inside, -np.inf, np.inf), near)
    far = np.where(par, np.where(inside, np.inf, -np.inf), far)
    t_enter = near.max(axis=1)
    t_exit = far.min(axis=1)
    hit = (t_enter <= t_exit) & (t_enter > 1e-9)
    t_enter = np.where(hit, t_enter, np.inf)
    local_pts = o + np.where(np.isfinite(t_enter), t_enter, 0.0)[:, None] * d
    return t_enter, hit, local_pts


def sequential_hits(world, origin, dirs, max_range):
    """Reference for `_nearest_hits`: one box at a time, a later box taking a
    ray only when it is strictly closer."""
    n = len(dirs)
    best_t = np.full(n, np.inf)
    best_part = np.full(n, -1, dtype=np.int64)
    best_local = np.zeros((n, 3))
    for pi, box in enumerate(world):
        t, hit, local = _ray_box_hits(origin, dirs, box)
        closer = hit & (t < best_t) & (t <= max_range)
        best_t[closer] = t[closer]
        best_part[closer] = pi
        best_local[closer] = local[closer]
    ray = np.flatnonzero(best_part >= 0)
    return ray, best_part[ray], best_t[ray], best_local[ray]


def raycast_single(scene: SceneSpec, origin, direction,
                   max_range: float = 50.0) -> tuple[int, float] | None:
    """Nearest (part index, distance) hit by one ray, or None."""
    d = normalize(direction)[None, :]
    best = None
    for pi, box in enumerate(scene.world_parts()):
        t, hit, _ = _ray_box_hits(as_vec3(origin), d, box)
        if hit[0] and t[0] <= max_range:
            if best is None or t[0] < best[1]:
                best = (pi, float(t[0]))
    return best


class TestRaycast:
    def test_full_frustum_yields_all_pixels(self):
        scene = single_box_scene([2.1, 0.0, 0.0], [0.1, 8.0, 8.0])
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(10, 10))
        cloud = raycast_capture(scene, cam, MAX_RANGE, NOISE, None)
        assert len(cloud) == 100

    def test_facing_away_gives_empty_cloud(self):
        scene = single_box_scene([-5.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(8, 8))
        cloud = raycast_capture(scene, cam, MAX_RANGE, NOISE, None)
        assert len(cloud) == 0

    def test_known_depth_exact(self):
        d = 2.5
        scene = single_box_scene([d + 0.5, 0.0, 0.0], [0.5, 9.0, 9.0])
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(12, 12))
        cloud = raycast_capture(scene, cam, MAX_RANGE, NOISE, None)
        assert len(cloud) == 144
        np.testing.assert_allclose(cloud.positions[:, 0], d, atol=1e-9)

    def test_points_lie_on_surfaces_and_labels_match(self):
        scene = generate_scene(5, GenerationConfig(1, 1, 1))
        config = CaptureConfig(resolution=(80, 60))
        cloud = capture_scene_cloud(scene, config, None)
        assert len(cloud) > 500
        dists = np.array([scene.boxes.surface_distance(q)[p]
                          for p, q in zip(id_parts(cloud.point_ids),
                                          cloud.positions)])
        assert dists.max() < 1e-9

    def test_noise_moves_points_along_ray(self):
        scene = single_box_scene([3.0, 0.0, 0.0], [0.5, 9.0, 9.0])
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(10, 10))
        clean = raycast_capture(scene, cam, MAX_RANGE, NOISE, None)
        noisy = raycast_capture(scene, cam, MAX_RANGE, 0.002,
                                rng=np.random.default_rng(1))
        assert len(clean) == len(noisy)
        offsets = np.linalg.norm(noisy.positions - clean.positions, axis=1)
        assert 0.0005 < offsets.mean() < 0.006

    def test_raycast_single_matches_capture(self):
        scene = single_box_scene([2.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        hit = raycast_single(scene, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert hit is not None
        part, dist = hit
        assert part == 0
        assert dist == pytest.approx(1.5, abs=1e-12)

    def test_rejects_bad_camera(self):
        with pytest.raises(ValidationError):
            CameraPose([0, 0, 0], [0, 0, 0], 60.0, (160, 120))
        with pytest.raises(ValidationError):
            CameraPose([0, 0, 0], [1, 0, 0], vfov_deg=0.5,
                       resolution=(160, 120))


# Boxes on a 0.25 m grid with axis-aligned or right-angle frames share face
# planes and slab directions with each other and with axis-aligned cameras
# (odd resolutions put a pixel center on the optical axis), so entry
# distances tie and rays run parallel to slabs.
_GRID = st.integers(-8, 8).map(lambda k: 0.25 * k)
_BOX = st.tuples(st.tuples(_GRID, _GRID, _GRID),
                 st.tuples(*[st.sampled_from([0.25, 0.5, 1.0])] * 3),
                 st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                  (1.0, 2.0, 3.0)]),
                 st.sampled_from([0.0, math.pi / 2, 0.4]))
_VIEW = st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0),
                         (1.0, 0.3, -0.2)])


# the top plane of a 70-degree camera at the origin looking along +x, and
# its upward normal
_TOP_DIR = np.array([math.cos(math.radians(35.0)), 0.0,
                     math.sin(math.radians(35.0))])
_TOP_NORMAL = np.array([-_TOP_DIR[2], 0.0, _TOP_DIR[0]])


def _box_scene(boxes, duplicate_first):
    parts = [PartGeometry(c, h,
                          rotation_from_angle_axis(normalize(axis), ang),
                          [0.3, 0.6, 0.9], "static_body")
             for c, h, axis, ang in boxes]
    if duplicate_first:
        parts.append(parts[0])
    return SceneSpec(tuple(parts), (), BIG_BOUNDS, 0)


class TestBatchedRaycast:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_BOX, min_size=1, max_size=5), st.booleans(),
           st.tuples(_GRID, _GRID, _GRID), _VIEW,
           st.sampled_from([(5, 3), (7, 5), (8, 6)]),
           st.sampled_from([0.6, 0.75, 1.3, 1.5, 2.5, 10.0]))
    # a doubled box whose near face lies exactly at max_range on the axis
    @example(boxes=[((1.0, 0.0, 0.0), (0.25, 0.25, 0.25), (0.0, 0.0, 1.0),
                     0.0)],
             duplicate_first=True, position=(0.0, 0.0, 0.0),
             view=(1.0, 0.0, 0.0), resolution=(5, 3), max_range=0.75)
    # the camera inside a box, with a box ahead of it
    @example(boxes=[((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 0.0, 1.0), 0.0),
                    ((2.0, 0.0, 0.0), (0.25, 1.0, 1.0), (0.0, 0.0, 1.0),
                     0.0)],
             duplicate_first=False, position=(0.0, 0.0, 0.25),
             view=(1.0, 0.0, 0.0), resolution=(7, 5), max_range=10.0)
    # boxes through the image plane, one in view and one beside it
    @example(boxes=[((0.0, 0.5, 0.0), (1.0, 0.25, 0.25), (0.0, 0.0, 1.0),
                     0.0),
                    ((0.0, 1.5, 0.0), (1.0, 0.25, 0.25), (0.0, 0.0, 1.0),
                     0.0)],
             duplicate_first=False, position=(0.0, 0.0, 0.0),
             view=(1.0, 0.0, 0.0), resolution=(5, 3), max_range=10.0)
    # a box only the outermost pixel column sees
    @example(boxes=[((2.0, -2.0, 0.0), (0.25, 0.25, 1.0), (0.0, 0.0, 1.0),
                     0.0)],
             duplicate_first=False, position=(0.0, 0.0, 0.0),
             view=(1.0, 0.0, 0.0), resolution=(5, 3), max_range=10.0)
    # a box whose bottom face lies in the top plane of the view pyramid,
    # z = tan(35 deg) x, doubled, beside a box in view
    @example(boxes=[(tuple(2.0 * _TOP_DIR + 0.25 * _TOP_NORMAL),
                     (0.5, 0.5, 0.25), (0.0, 1.0, 0.0),
                     -math.radians(35.0)),
                    ((2.0, 0.0, 0.0), (0.5, 0.5, 0.25), (0.0, 0.0, 1.0),
                     0.0)],
             duplicate_first=True, position=(0.0, 0.0, 0.0),
             view=(1.0, 0.0, 0.0), resolution=(5, 3), max_range=10.0)
    def test_matches_sequential_scan_bit_for_bit(self, boxes, duplicate_first,
                                                 position, view, resolution,
                                                 max_range):
        # max_range cuts through boxes, or (on the grid) ends exactly on a
        # face an axis-aligned ray enters; 7-ray blocks split every camera.
        # The reference scans every box of the room, so it checks the cull.
        scene = _box_scene(boxes, duplicate_first)
        cam = CameraPose(position, np.add(position, view), vfov_deg=70.0,
                         resolution=resolution)
        world, dirs = scene.world_parts(), cam.ray_directions()
        with mock.patch.object(geom, "BLOCK_ROWS", 7):
            got = _nearest_hits(scene.boxes, cam.position, dirs, max_range)
            cloud = raycast_capture(scene, cam, max_range, NOISE, None)
        want = sequential_hits(world, cam.position, dirs, max_range)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

        # every box of the room, scanned one at a time
        with mock.patch.object(sensing, "_nearest_hits",
                               lambda _, *args: sequential_hits(world, *args)), \
                mock.patch.object(sensing, "_visible_parts",
                                  lambda _, camera: np.arange(len(world))):
            ref = raycast_capture(scene, cam, max_range, NOISE, None)
        for field in ("positions", "point_ids"):
            a, b = getattr(cloud, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_empty_scene_gives_empty_cloud(self):
        scene = SceneSpec((), (), BIG_BOUNDS, 0)
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(4, 4))
        assert len(raycast_capture(scene, cam, MAX_RANGE, NOISE, None)) == 0
        cloud = capture_scene_cloud(scene, CaptureConfig(resolution=(4, 4)),
                                    None)
        assert len(cloud) == 0 and cloud.colors.shape == (0, 3)

    @pytest.mark.parametrize("resolution", [(64, 48), (160, 120)])
    def test_ring_matches_sequential_scan_bit_for_bit(self, resolution):
        """Every ring camera of a generated room, over every box of the room
        and over the boxes its view pyramid keeps, at the benchmark's and
        the default resolution."""
        scene = generate_scene(2, GenerationConfig())
        world = scene.world_parts()
        for cam in ring_poses(scene, CaptureConfig(resolution=resolution)):
            dirs = cam.ray_directions()
            want = sequential_hits(world, cam.position, dirs, MAX_RANGE)
            visible = sensing._visible_parts(scene.boxes, cam)
            ray, part, t, local = _nearest_hits(
                scene.boxes.take(visible), cam.position, dirs, MAX_RANGE)
            for got in (_nearest_hits(scene.boxes, cam.position, dirs,
                                      MAX_RANGE),
                        (ray, visible[part], t, local)):
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_capture_runs_on_the_calling_thread(self, monkeypatch):
        """Ray blocks never reach the block pool, even where `map_blocks`
        would share them with a second thread."""
        def no_pool():
            raise AssertionError("a capture submitted work to the pool")

        monkeypatch.setattr(geom, "_pool", no_pool)
        monkeypatch.setattr(geom, "_threads", lambda: 2)
        scene = generate_scene(2, GenerationConfig())
        config = CaptureConfig(resolution=(64, 48))
        panel = scene.world_parts()[scene.joints[0][0]]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        assert len(capture_scene_cloud(scene, config, None)) > 1000
        assert len(capture_object_views(scene, contact, config, None)) > 100
        with pytest.raises(AssertionError, match="submitted work"):
            geom.map_blocks(lambda rows: rows, 2 * geom.BLOCK_ROWS)


class TestCaptureConstants:
    """What a capture reads of its camera and room is computed once, kept
    read-only, and holds the bytes of the formula computed afresh."""

    @staticmethod
    def fresh_rays(cam):
        forward = normalize(cam.look_at - cam.position)
        up = np.array([0.0, 0.0, 1.0])
        if abs(float(np.dot(forward, up))) > 1.0 - 1e-9:
            up = np.array([1.0, 0.0, 0.0])
        right = normalize(np.cross(forward, up))
        cam_up = np.cross(right, forward)
        w, h = cam.resolution
        tan_v = math.tan(math.radians(cam.vfov_deg) / 2.0)
        tan_h = tan_v * w / h
        xs = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * tan_h
        ys = (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * tan_v
        gx, gy = np.meshgrid(xs, ys)
        dirs = (forward[None, :] + gx.reshape(-1, 1) * right[None, :]
                + gy.reshape(-1, 1) * cam_up[None, :])
        return ((forward, right, cam_up),
                dirs / np.linalg.norm(dirs, axis=1, keepdims=True))

    @pytest.mark.parametrize("look", [(2.0, 0.5, 0.7), (0.3, -0.2, -1.0),
                                      (0.3, -0.2, 3.0)])
    def test_basis_and_rays(self, look):
        # the last two cameras look straight down and up, so their bases
        # take the x axis for up
        cam = CameraPose([0.3, -0.2, 1.1], look, vfov_deg=50.0,
                         resolution=(16, 9))
        basis, dirs = self.fresh_rays(cam)
        for got, want in zip((*cam.basis(), cam.ray_directions()),
                             (*basis, dirs), strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert cam.ray_directions() is cam.ray_directions()
        assert cam.basis()[0] is cam.basis()[0]

    def test_pixel_grid_is_shared(self):
        a, b = (CameraPose(p, [2.0, 0.5, 0.7], vfov_deg=50.0,
                           resolution=(16, 9))
                for p in ([0.3, -0.2, 1.1], [0.0, 0.0, 0.0]))
        grids = [sensing._pixel_grid(c.resolution, c.vfov_deg)
                 for c in (a, b)]
        for g, h in zip(*grids, strict=True):
            assert g is h and not g.flags.writeable

    def test_box_corners(self):
        boxes = generate_scene(2, GenerationConfig()).boxes
        signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
        want = boxes.centers[:, None, :] + np.einsum(
            "pij,pcj->pci", boxes.rotations,
            signs[None] * boxes.half_extents[:, None, :])
        assert boxes.corners.tobytes() == want.tobytes()
        assert boxes.corners.shape == want.shape
        assert not boxes.corners.flags.writeable
        assert boxes.corners is boxes.corners


class TestProjection:
    def test_project_inverts_ray_directions(self):
        cam = CameraPose([0.3, -0.2, 1.1], [2.0, 0.5, 0.7], vfov_deg=50.0,
                         resolution=(16, 9))
        dirs = cam.ray_directions()
        col, row, rng = cam.project(cam.position + 2.0 * dirs)
        np.testing.assert_allclose(col, np.tile(np.arange(16), 9), atol=1e-9)
        np.testing.assert_allclose(row, np.repeat(np.arange(9), 16),
                                   atol=1e-9)
        np.testing.assert_allclose(rng, 2.0, atol=1e-12)

    def test_points_behind_camera_do_not_project(self):
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(8, 8))
        col, row, _ = cam.project(np.array([[-1.0, 0.0, 0.0]]))
        assert np.isnan(col[0]) and np.isnan(row[0])

    def test_range_image_holds_the_captured_surface(self):
        # the camera's own capture fills every pixel with its hit range;
        # a surface behind it, fused in, changes nothing
        scene = single_box_scene([2.5, 0.0, 0.0], [0.5, 9.0, 9.0])
        cam = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], vfov_deg=60.0,
                         resolution=(12, 12))
        cloud = raycast_capture(scene, cam, MAX_RANGE, NOISE, None)
        image = range_image(cloud, cam)
        dirs = cam.ray_directions()
        np.testing.assert_allclose(image.ravel(), 2.0 / dirs[:, 0], atol=1e-9)
        behind = PointCloud(np.vstack([cloud.positions,
                                       cloud.positions * 1.5]))
        np.testing.assert_array_equal(range_image(behind, cam), image)


def lexsort_fusion(captures):
    """Reference for `fuse_clouds`: sort every row by (id, x, y, z), equal
    rows in concatenation order, and keep the first row of each id."""
    pos = np.vstack([c.positions for c in captures])
    ids = np.concatenate([c.point_ids for c in captures])
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], ids))
    _, first = np.unique(ids[order], return_index=True)
    keep = order[first]
    return PointCloud(pos[keep], point_ids=ids[keep])


def lexsort_downsample(cloud, voxel):
    """Reference for `_voxel_downsample` on clouds in any id order: sort by
    (voxel key, id), keep each voxel's first row, order the kept rows by id."""
    grid = np.floor(cloud.positions / voxel).astype(np.int64)
    shift = 2 ** 19
    key = ((grid[:, 0] + shift) * (2 ** 20) + (grid[:, 1] + shift)) * (2 ** 20) \
        + (grid[:, 2] + shift)
    order = np.lexsort((cloud.point_ids, key))
    _, first = np.unique(key[order], return_index=True)
    keep = order[first]
    return cloud.subset(keep[np.argsort(cloud.point_ids[keep], kind="stable")])


def assert_empty(cloud):
    """`cloud` has no rows, an empty int64 id array and no colours."""
    assert cloud.positions.shape == (0, 3) and cloud.colors is None
    assert cloud.point_ids.dtype == np.int64 and cloud.point_ids.shape == (0,)


# captures over 12 ids and 8 positions, so ids repeat across captures, often
# at exactly equal positions
_CAPTURE = st.dictionaries(st.integers(0, 11),
                           st.tuples(*[st.sampled_from([0.0, 0.5])] * 3),
                           max_size=12)


class TestSceneCloud:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_CAPTURE, min_size=1, max_size=4))
    def test_fusion_matches_full_lexsort(self, rows_by_capture):
        captures = [PointCloud(np.array(list(rows.values())).reshape(-1, 3),
                               point_ids=np.array(list(rows), dtype=np.int64))
                    for rows in rows_by_capture]
        if not any(len(c) for c in captures):
            assert_empty(fuse_clouds(captures))
            return
        for ordered in (captures, captures[::-1]):
            got, want = fuse_clouds(ordered), lexsort_fusion(ordered)
            assert got.colors is None
            for field in ("positions", "point_ids"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1,
                    max_size=60),
           st.integers(0, 2 ** 32 - 1))
    def test_downsample_matches_lexsort(self, cells, seed):
        # points on a quarter-voxel lattice over 2x2x2 voxels, so most
        # voxels hold several points; ids ascend with gaps, as fused ids do
        n = len(cells)
        rng = np.random.default_rng(seed)
        cloud = PointCloud(
            0.005 * np.array(cells, dtype=float) + 1e-4,
            colors=rng.uniform(size=(n, 3)),
            point_ids=np.cumsum(rng.integers(1, 4, n)))
        got, want = _voxel_downsample(cloud, 0.02), lexsort_downsample(cloud, 0.02)
        assert len(got) < n or n < 9
        for field in ("positions", "colors", "point_ids"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_empty_room_only_shell_points(self):
        scene = generate_scene(3, GenerationConfig(0, 0, 0))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(60, 45)), None)
        kinds = {scene.parts[p].kind
                 for p in np.unique(id_parts(cloud.point_ids))}
        assert kinds <= {"wall", "floor"}
        assert len(cloud) > 200

    def test_voxel_uniqueness(self):
        scene = generate_scene(4, GenerationConfig(1, 1, 1))
        cloud = capture_scene_cloud(
            scene, CaptureConfig(resolution=(80, 60)), None)
        keys = np.floor(cloud.positions / VOXEL).astype(np.int64)
        assert len(np.unique(keys, axis=0)) == len(cloud)

    def test_fusion_order_independent(self):
        scene = generate_scene(6, GenerationConfig(1, 0, 1))
        config = CaptureConfig(resolution=(60, 45))
        poses = ring_poses(scene, config)
        captures = [raycast_capture(scene, p, MAX_RANGE, NOISE, None)
                    for p in poses]
        a = _voxel_downsample(fuse_clouds(captures), VOXEL)
        b = _voxel_downsample(fuse_clouds(captures[::-1]), VOXEL)
        np.testing.assert_array_equal(a.point_ids, b.point_ids)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_mobile_parts_visible_over_20_seeds(self):
        # visibility oracle: if a direct ray from some ring camera reaches the
        # panel front center, the fused cloud must sample that panel
        config = CaptureConfig(resolution=(120, 90))
        for seed in range(20):
            scene = generate_scene(seed, GenerationConfig(2, 2, 2))
            cloud = capture_scene_cloud(scene, config, None)
            seen = set(np.unique(id_parts(cloud.point_ids)))
            for part_idx, _ in scene.joints:
                box = scene.world_parts()[part_idx]
                front = box.center + box.rotation[:, 1] * box.half_extents[1]
                visible = False
                for pose in ring_poses(scene, config):
                    to = front - pose.position
                    dist = np.linalg.norm(to)
                    hit = raycast_single(scene, pose.position, to)
                    if hit is not None and hit[0] == part_idx \
                            and abs(hit[1] - dist) < 1e-6:
                        visible = True
                        break
                if visible:
                    assert part_idx in seen, (seed, part_idx)


class TestCapturedFields:
    """A capture holds positions and point ids; only the scene cloud holds
    colours, each its point's part's."""

    scene = generate_scene(13, GenerationConfig(1, 1, 1))
    config = CaptureConfig(resolution=(40, 30))

    def test_captures_carry_ids_and_no_colours(self):
        scene, config = self.scene, self.config
        panel = scene.world_parts()[scene.joints[0][0]]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        poses = object_view_poses(scene, contact, config)
        for cloud in (
                raycast_capture(scene, ring_poses(scene, config)[0], MAX_RANGE,
                                NOISE, None),
                capture_object_views(scene, contact, config, None),
                capture_interaction_after(scene, contact, poses, contact,
                                          config, None)):
            assert len(cloud) > 100 and cloud.colors is None
            assert cloud.point_ids.dtype == np.int64
            assert cloud.point_ids.shape == (len(cloud),)

    @pytest.mark.parametrize("noise", [0.0, 0.002])
    def test_scene_cloud_colours_are_its_parts(self, noise):
        # the door half open, so a part's colour follows it
        scene = self.scene.with_joint_state(
            0, 0.5 * sum(self.scene.joints[0][1].limits))
        cloud = capture_scene_cloud(scene, replace(self.config,
                                                   noise_sigma=noise),
                                    np.random.default_rng(3))
        want = np.array([scene.parts[i].color
                         for i in id_parts(cloud.point_ids)])
        assert len(cloud) > 500
        assert cloud.colors.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["culled", "out of range"])
    def test_zero_hit_capture_is_empty_with_ids(self, case):
        """A camera above the room looking up (every box culled), or one in
        the room whose range ends before any box, gives a capture with no
        rows and an empty id array; its noise draws nothing, and fusion,
        downsampling and the object-view crop keep the shape."""
        scene, config = self.scene, self.config
        lo, hi = scene.bounds
        if case == "culled":
            position = np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2,
                                 hi[2] + 2.0])
            cam = CameraPose(position, position + [0.0, 0.0, 1.0], VFOV_DEG,
                             config.resolution)
            max_range = MAX_RANGE
            assert len(sensing._visible_parts(scene.boxes, cam)) == 0
        else:
            cam = ring_poses(scene, config)[0]
            max_range = 1e-3
            assert len(sensing._visible_parts(scene.boxes, cam)) > 0
        rng = np.random.default_rng(7)
        cloud = raycast_capture(scene, cam, max_range, 0.002, rng)
        assert_empty(cloud)
        np.testing.assert_array_equal(rng.random(4),
                                      np.random.default_rng(7).random(4))
        for fused in (fuse_clouds([cloud, cloud]), fuse_clouds([])):
            assert_empty(fused)
            assert_empty(_voxel_downsample(fused, VOXEL))
        if case == "culled":
            assert_empty(capture_object_views(scene, position, config, None,
                                              poses=[cam]))


def recorded_captures(run):
    """(`run()`, [(scene, camera, max range, cloud)] of every
    `raycast_capture` that `run()` made)."""
    calls = []
    real = sensing.raycast_capture

    def spy(scene, camera, max_range, *args):
        calls.append((scene, camera, max_range,
                      real(scene, camera, max_range, *args)))
        return calls[-1][-1]

    with mock.patch.object(sensing, "raycast_capture", spy):
        return run(), calls


def _rows(cloud):
    return set(zip(cloud.point_ids.tolist(),
                   [p.tobytes() for p in cloud.positions]))


class TestIdParts:
    @pytest.mark.parametrize("case", ["ring", "noisy ring", "object views",
                                      "noisy after pull"])
    def test_decoded_part_is_the_box_the_ray_hit(self, case):
        """`id_parts` of every point of a capture is the box that the
        box-by-box reference scan hits along the point's pixel ray (noise
        moves a point along its ray, so it projects to the same pixel),
        and every point of the fused cloud is a point of one capture."""
        scene = generate_scene(13, GenerationConfig(1, 1, 1))
        config = CaptureConfig(resolution=(40, 30))
        noisy = replace(config, noise_sigma=0.002)
        panel = scene.world_parts()[scene.joints[0][0]]
        contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1]
        run = {
            "ring": lambda: capture_scene_cloud(scene, config, None),
            "noisy ring": lambda: capture_scene_cloud(
                scene, noisy, np.random.default_rng(1)),
            "object views": lambda: capture_object_views(
                scene, contact, config, None),
            "noisy after pull": lambda: observe_interaction(
                scene, contact, surface_normal(scene, contact), noisy,
                rng=np.random.default_rng(2))[0].after,
        }[case]
        cloud, calls = recorded_captures(run)
        rows = set()
        for world, camera, max_range, capture in calls:
            w, h = camera.resolution
            ray, part, _, _ = sequential_hits(
                world.world_parts(), camera.position,
                camera.ray_directions(), max_range)
            hit = np.full(w * h, -1)
            hit[ray] = part
            col, row, _ = camera.project(capture.positions)
            pixel = np.rint(row).astype(np.int64) * w + np.rint(col).astype(
                np.int64)
            np.testing.assert_array_equal(id_parts(capture.point_ids),
                                          hit[pixel])
            rows |= _rows(capture)
        assert len(cloud) > 100 and _rows(cloud) <= rows
        # the probed panel is in view
        assert scene.joints[0][0] in id_parts(cloud.point_ids)


class TestObjectViews:
    def _cabinet_scene(self, offset_y=0.0, blocker=None):
        body = PartGeometry([0.0, offset_y, 0.75], [0.4, 0.25, 0.75],
                            np.eye(3), [0.5, 0.4, 0.3], "static_body")
        panel = PartGeometry([0.0, offset_y + 0.27, 0.8], [0.3, 0.01, 0.5],
                             np.eye(3), [0.8, 0.2, 0.2], "mobile_part")
        joint = GroundTruthJoint("revolute", [0, 0, 1],
                                 [-0.3, offset_y + 0.27, 0.0], (0.0, 1.8),
                                 0.0, 0.05)
        parts = [body, panel]
        if blocker is not None:
            parts.append(blocker)
        return SceneSpec(tuple(parts), ((1, joint),),
                         (np.array([-3.0, -3.0, 0.0]), np.array([3.0, 3.0, 2.5])), 0)

    def test_isolated_object_three_views(self):
        scene = self._cabinet_scene()
        focus = np.array([0.0, 0.28, 0.8])
        poses = object_view_poses(scene, focus, CaptureConfig())
        assert len(poses) == 3

    def test_blocked_side_skipped(self):
        blocker = PartGeometry([-1.0, 0.28, 0.8], [0.3, 0.3, 0.8],
                               np.eye(3), [0.5] * 3, "distractor")
        scene = self._cabinet_scene(blocker=blocker)
        focus = np.array([0.0, 0.28, 0.8])
        poses = object_view_poses(scene, focus, CaptureConfig())
        assert 2 <= len(poses) < 3

    def test_all_blocked_raises(self):
        scene = self._cabinet_scene()
        config = CaptureConfig(object_view_distance=10.0)  # outside the room
        with pytest.raises(CaptureError):
            object_view_poses(scene, [0.0, 0.28, 0.8], config)

    def test_crop_radius_enforced(self):
        scene = self._cabinet_scene()
        focus = np.array([0.0, 0.28, 0.8])
        config = CaptureConfig(resolution=(80, 60))
        cloud = capture_object_views(scene, focus, config, None)
        assert len(cloud) > 100
        assert np.linalg.norm(cloud.positions - focus,
                              axis=1).max() <= CROP_RADIUS

    def test_pose_reuse_is_stable(self):
        scene = self._cabinet_scene()
        focus = np.array([0.0, 0.28, 0.8])
        config = CaptureConfig(resolution=(60, 45))
        poses = object_view_poses(scene, focus, config)
        cloud1 = capture_object_views(scene, focus, config, None)
        cloud2 = capture_object_views(scene, focus, config, None, poses=poses)
        np.testing.assert_array_equal(cloud1.positions, cloud2.positions)
        np.testing.assert_array_equal(cloud1.point_ids, cloud2.point_ids)
