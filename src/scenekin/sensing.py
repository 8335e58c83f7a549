"""Ray-cast depth capture: scene clouds from a viewpoint ring, object views
around a contact point.

Every returned point is an exact ray/box intersection (plus optional Gaussian
noise along the ray) and carries the hit part's color and index together with
a stable point id derived from the quantized surface coordinate in the part's
local frame. Because the id is local to the part, the same physical surface
patch keeps its identity when the part moves, which gives downstream code an
oracle correspondence channel that survives articulation.

A capture first drops every box that lies wholly outside one side plane of
the camera's view pyramid (Assarsson & Möller, "Optimized View Frustum
Culling Algorithms for Bounding Boxes", JGT 2000); no pixel ray can reach
it. It then tests every pixel ray against each remaining box in batched slab
tests (Kay & Kajiya, "Ray Tracing Complex Scenes", SIGGRAPH 1986), one per
fixed block of rays (`geom.map_blocks`). Each ray keeps its nearest entry
and, on a tie, the lowest-index box: bit for bit what a box-by-box scan over
every box of the room that replaces a hit only when strictly closer keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CaptureError, ValidationError
from .geom import (
    PointCloud,
    as_vec3,
    map_blocks,
    normalize,
    rotation_from_angle_axis,
)
from .simworld import WORLD_UP, BoxStack, SceneSpec, surface_normal

# point_id packing: ((part * 6 + face) * ID_RANGE + iu) * ID_RANGE + iv
_ID_RANGE = 100_000
_ID_CELL = 0.005  # surface-coordinate quantization, meters

VFOV_DEG = 60.0     # vertical field of view of every capture camera
MAX_RANGE = 10.0    # farthest hit a capture keeps, meters
VOXEL = 0.02        # scene-cloud downsampling cell, meters
CROP_RADIUS = 1.2   # object views keep points this near the focus, meters


@dataclass(frozen=True)
class CameraPose:
    """Pinhole camera: position, target, vertical field of view, pixel grid."""

    position: np.ndarray
    look_at: np.ndarray
    vfov_deg: float
    resolution: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "look_at", as_vec3(self.look_at))
        if np.allclose(self.position, self.look_at):
            raise ValidationError("camera position must differ from look_at")
        if not (1.0 < self.vfov_deg < 179.0):
            raise ValidationError("vertical fov must lie in (1, 179) degrees")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValidationError("resolution must be positive")

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        forward = normalize(self.look_at - self.position)
        up = WORLD_UP
        if abs(float(np.dot(forward, up))) > 1.0 - 1e-9:
            up = np.array([1.0, 0.0, 0.0])
        right = normalize(np.cross(forward, up))
        cam_up = np.cross(right, forward)
        return forward, right, cam_up

    def half_tangents(self) -> tuple[float, float]:
        """(tan_v, tan_h): tangents of the half vertical and horizontal
        fields of view."""
        w, h = self.resolution
        tan_v = math.tan(math.radians(self.vfov_deg) / 2.0)
        return tan_v, tan_v * w / h

    def ray_directions(self) -> np.ndarray:
        """(W*H, 3) unit directions through all pixel centers, row-major."""
        w, h = self.resolution
        forward, right, cam_up = self.basis()
        tan_v, tan_h = self.half_tangents()
        xs = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * tan_h
        ys = (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * tan_v
        gx, gy = np.meshgrid(xs, ys)
        dirs = (forward[None, :] + gx.reshape(-1, 1) * right[None, :]
                + gy.reshape(-1, 1) * cam_up[None, :])
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def project(self, points: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(col, row, range) of world points; inverse of ray_directions.

        Pixel centers sit at integer coordinates, so the ray through pixel
        (i, j) projects to (i, j). Points at or behind the image plane get
        NaN coordinates.
        """
        w, h = self.resolution
        forward, right, cam_up = self.basis()
        tan_v, tan_h = self.half_tangents()
        rel = np.asarray(points, dtype=np.float64) - self.position
        depth = rel @ forward
        depth = np.where(depth > 1e-12, depth, np.nan)
        col = ((rel @ right) / depth / tan_h + 1.0) * w / 2.0 - 0.5
        row = (1.0 - (rel @ cam_up) / depth / tan_v) * h / 2.0 - 0.5
        return col, row, np.linalg.norm(rel, axis=1)


@dataclass(frozen=True)
class CaptureConfig:
    """Capture settings for the scene ring and the per-object views."""

    resolution: tuple[int, int] = (160, 120)
    object_view_distance: float = 1.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be >= 0")


def _nearest_hits(boxes: BoxStack, origin: np.ndarray, dirs: np.ndarray,
                  max_range: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest box entry of each ray from `origin` along `dirs` (N, 3).

    One slab test (Kay & Kajiya 1986) of every ray of a block against every
    box, per `geom.map_blocks` block of rays. Returns (ray, part, t, local)
    for the rays that enter a box at 1e-9 < t <= `max_range`, in ray order:
    the entry distance, the box (on a tie, the lowest index) and the entry
    point in that box's frame.
    """
    if len(boxes.centers) == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0), np.zeros((0, 3)))
    o = (origin - boxes.centers)[:, None, :] @ boxes.rotations
    h = boxes.half_extents[:, None, :]

    def block(rows):
        d = np.empty((len(o), rows.stop - rows.start, 3))
        for pi, rotation in enumerate(boxes.rotations):
            d[pi] = dirs[rows] @ rotation
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d
            t1 = (-h - o) * inv
            t2 = np.multiply(h - o, inv, out=inv)
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2, out=t1)
        # rays parallel to a slab: inside it -> no constraint, outside -> miss
        par = np.abs(d) < 1e-12
        if par.any():
            inside = np.abs(o) <= h
            near = np.where(par, np.where(inside, -np.inf, np.inf), near)
            far = np.where(par, np.where(inside, np.inf, -np.inf), far)
        # chained over the three slabs: much faster than a 3-wide max/min
        t_enter = np.maximum(np.maximum(near[..., 0], near[..., 1]),
                             near[..., 2])
        t_exit = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
        hit = (t_enter <= t_exit) & (t_enter > 1e-9) & (t_enter <= max_range)
        t_enter = np.where(hit, t_enter, np.inf)
        part = np.argmin(t_enter, axis=0)  # the first of tied minima
        ray = np.flatnonzero(hit.any(axis=0))
        part = part[ray]
        t = t_enter[part, ray]
        local = o[part, 0] + t[:, None] * d[part, ray]
        return ray + rows.start, part, t, local

    return tuple(map(np.concatenate, zip(*map_blocks(block, len(dirs)))))


def _point_ids(part: np.ndarray, local_pts: np.ndarray, half: np.ndarray
               ) -> np.ndarray:
    """Point ids of hits on boxes `part` (N,) with half extents `half` (N, 3)
    at box-frame points `local_pts` (N, 3)."""
    rel = np.abs(local_pts) / np.maximum(half, 1e-12)
    axis = np.argmax(rel, axis=1)
    rows = np.arange(len(local_pts))
    face = axis * 2 + (local_pts[rows, axis] > 0).astype(np.int64)
    ua, va = np.array([[1, 2], [0, 2], [0, 1]])[axis].T
    u = local_pts[rows, ua] + half[rows, ua]
    v = local_pts[rows, va] + half[rows, va]
    iu = np.clip(np.floor(u / _ID_CELL).astype(np.int64), 0, _ID_RANGE - 1)
    iv = np.clip(np.floor(v / _ID_CELL).astype(np.int64), 0, _ID_RANGE - 1)
    return ((part * 6 + face) * _ID_RANGE + iu) * _ID_RANGE + iv


def _visible_parts(boxes: BoxStack, camera: CameraPose) -> np.ndarray:
    """Indices, ascending, of the boxes of `boxes` that do not lie wholly
    outside any one side plane of `camera`'s view pyramid.

    Every pixel ray lies strictly inside the pyramid (pixel centres sit half
    a pixel in from its edges), so no ray enters a dropped box.
    """
    if len(boxes.centers) == 0:
        return np.zeros(0, dtype=np.int64)
    forward, right, cam_up = camera.basis()
    tan_v, tan_h = camera.half_tangents()
    # outward normals of the right, left, top and bottom planes
    planes = np.array([right - tan_h * forward, -right - tan_h * forward,
                       cam_up - tan_v * forward, -cam_up - tan_v * forward])
    signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                      for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    corners = boxes.centers[:, None, :] + np.einsum(
        "pij,pcj->pci", boxes.rotations,
        signs[None] * boxes.half_extents[:, None, :])
    outside = (corners - camera.position) @ planes.T > 0.0   # (P, 8, 4)
    return np.flatnonzero(~outside.all(axis=1).any(axis=1))


def raycast_capture(scene: SceneSpec, camera: CameraPose, max_range: float,
                    noise_sigma: float,
                    rng: np.random.Generator | None) -> PointCloud:
    """One depth capture: nearest box hit per pixel within range.

    Points carry part color, part index, and quantized-surface point ids;
    pixels hitting the same 5 mm surface patch are deduplicated. Gaussian
    noise (if any) is drawn from `rng` and added along the ray after
    identification; `rng` may be None only when `noise_sigma` is 0. The
    returned cloud is sorted by point id.
    """
    dirs = camera.ray_directions()
    boxes = scene.boxes
    visible = _visible_parts(boxes, camera)
    ray, part, t, local = _nearest_hits(boxes.take(visible), camera.position,
                                        dirs, max_range)
    if len(ray) == 0:
        return PointCloud(np.zeros((0, 3)))
    part = visible[part]
    ids = _point_ids(part, local, boxes.half_extents[part])
    # one point per surface patch, in id order: the first pixel that saw it
    ids, first = np.unique(ids, return_index=True)
    keep, part = ray[first], part[first]

    pts = camera.position[None, :] + t[first, None] * dirs[keep]
    if noise_sigma > 0.0:
        # the noise is drawn in pixel order
        noise = np.empty(len(keep))
        noise[np.argsort(first)] = rng.normal(0.0, noise_sigma, len(keep))
        pts = pts + dirs[keep] * noise[:, None]
    return PointCloud(pts, colors=boxes.colors[part], part_ids=part,
                      point_ids=ids)


def range_image(cloud: PointCloud, camera: CameraPose) -> np.ndarray:
    """(H, W) range of the nearest cloud point per pixel of `camera`.

    Pixels no point projects onto hold inf. For a cloud fused from captures
    that include this camera, each pixel holds the surface the camera saw
    there: points seen only by other cameras lie behind it.
    """
    w, h = camera.resolution
    col, row, rng = camera.project(cloud.positions)
    ci, ri = np.rint(col), np.rint(row)
    ok = (ci >= 0) & (ci < w) & (ri >= 0) & (ri < h)
    image = np.full(w * h, np.inf)
    np.minimum.at(image, (ri[ok] * w + ci[ok]).astype(np.int64), rng[ok])
    return image.reshape(h, w)


def fuse_clouds(captures: list[PointCloud]) -> PointCloud:
    """Concatenate captures and deduplicate by point id.

    For duplicate ids the lexicographically smallest position wins, which
    makes the result independent of capture order; of equal positions the
    first in concatenation order wins. Only the rows whose id repeats are
    sorted by position.
    """
    captures = [c for c in captures if len(c) > 0]
    if not captures:
        return PointCloud(np.zeros((0, 3)))
    pos = np.vstack([c.positions for c in captures])
    col = np.vstack([c.colors for c in captures])
    part = np.concatenate([c.part_ids for c in captures])
    ids = np.concatenate([c.point_ids for c in captures])
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    start = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
    keep = order[start]
    sizes = np.diff(np.r_[start, len(ids)])
    repeated = sizes > 1
    if repeated.any():
        # `order` keeps concatenation order within an id, and so does lexsort
        rep = order[np.repeat(repeated, sizes)]
        rep = rep[np.lexsort((pos[rep, 2], pos[rep, 1], pos[rep, 0],
                              ids[rep]))]
        rep_ids = ids[rep]
        keep[repeated] = rep[np.r_[True, rep_ids[1:] != rep_ids[:-1]]]
    return PointCloud(pos[keep], colors=col[keep], part_ids=part[keep],
                      point_ids=ids_sorted[start])


def _voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Keep one point per voxel of a cloud whose point ids ascend, as
    `fuse_clouds` leaves them: the lowest point id in the voxel wins, which
    is the voxel's first row."""
    if len(cloud) == 0:
        return cloud
    grid = np.floor(cloud.positions / voxel).astype(np.int64)
    shift = 2 ** 19
    key = ((grid[:, 0] + shift) * (2 ** 20) + (grid[:, 1] + shift)) * (2 ** 20) \
        + (grid[:, 2] + shift)
    _, first = np.unique(key, return_index=True)
    return cloud.subset(np.sort(first))


def _in_free_space(scene: SceneSpec, position: np.ndarray) -> bool:
    """Whether a camera at `position` keeps 5 cm clear of every box."""
    return not (scene.boxes.solid_distance(position) < 0.05).any()


# (tilt in degrees, +1 facing outward or -1 across the room) per ring row
RING_ROWS = ((-30.0, 1.0), (-12.0, -1.0))
RING_CAMERAS = 8        # per row
RING_HEIGHT = 1.35
RING_RADIUS_FRAC = 0.3  # of the smaller room dimension


def ring_poses(scene: SceneSpec, config: CaptureConfig) -> list[CameraPose]:
    """Viewpoint ring inside the room, one circle of cameras per row.

    Outward-facing rows give closeups of the near walls and floor; inward
    rows see the opposite side of the room at full height, which covers
    wall-mounted objects the near outward cameras overshoot. Cameras whose
    position is not in free space are dropped.
    """
    lo, hi = scene.bounds
    center = (lo + hi) / 2.0
    radius = RING_RADIUS_FRAC * float(min(hi[0] - lo[0], hi[1] - lo[1]))
    poses = []
    for tilt, facing in RING_ROWS:
        tt = math.tan(math.radians(tilt))
        for k in range(RING_CAMERAS):
            ang = 2.0 * math.pi * k / RING_CAMERAS
            out = np.array([math.cos(ang), math.sin(ang), 0.0])
            pos = np.array([center[0], center[1], RING_HEIGHT]) + radius * out
            if not _in_free_space(scene, pos):
                continue
            look = pos + facing * out + np.array([0.0, 0.0, tt])
            poses.append(CameraPose(pos, look, vfov_deg=VFOV_DEG,
                                    resolution=config.resolution))
    return poses


def _fused_captures(scene: SceneSpec, poses, config: CaptureConfig,
                   rng: np.random.Generator | None) -> PointCloud:
    """Fused captures from `poses`; under noise each capture draws its own
    generator from `rng`, which may be None only without noise."""
    captures = []
    for pose in poses:
        sub = None
        if config.noise_sigma > 0.0:
            sub = np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
        captures.append(raycast_capture(scene, pose, MAX_RANGE,
                                        config.noise_sigma, sub))
    return fuse_clouds(captures)


def capture_scene_cloud(scene: SceneSpec, config: CaptureConfig,
                        rng: np.random.Generator | None) -> PointCloud:
    """Fused scene cloud from the viewpoint ring, one point per `VOXEL`."""
    fused = _fused_captures(scene, ring_poses(scene, config), config, rng)
    return _voxel_downsample(fused, VOXEL)


def object_view_poses(scene: SceneSpec, focus, config: CaptureConfig
                      ) -> list[CameraPose]:
    """Front/right/left cameras around `focus` at the configured distance.

    Front is the outward normal of the touched face (projected horizontal);
    cameras failing the free-space check are skipped. Raises CaptureError when
    no camera placement survives.
    """
    focus = as_vec3(focus)
    n = surface_normal(scene, focus)
    horiz = n - np.dot(n, WORLD_UP) * WORLD_UP
    if np.linalg.norm(horiz) < 1e-6:
        horiz = np.array([1.0, 0.0, 0.0])
    front = horiz / np.linalg.norm(horiz)
    lo, hi = scene.bounds
    poses = []
    for ang in (0.0, math.pi / 2, -math.pi / 2):
        d = rotation_from_angle_axis(WORLD_UP, ang) @ front
        pos = focus + d * config.object_view_distance
        if np.any(pos[:2] < lo[:2]) or np.any(pos[:2] > hi[:2]):
            continue
        if not _in_free_space(scene, pos):
            continue
        poses.append(CameraPose(pos, focus, vfov_deg=VFOV_DEG,
                                resolution=config.resolution))
    if not poses:
        raise CaptureError("all object-view cameras collide with the scene")
    return poses


def capture_object_views(scene: SceneSpec, focus, config: CaptureConfig,
                         rng: np.random.Generator | None,
                         poses: list[CameraPose] | None = None) -> PointCloud:
    """Object cloud: fused captures within `CROP_RADIUS` of `focus`.

    Pass `poses` to reuse a previous placement (e.g. the before-interaction
    cameras for the after capture); without them cameras are placed around
    `focus` (`object_view_poses`).
    """
    focus = as_vec3(focus)
    if poses is None:
        poses = object_view_poses(scene, focus, config)
    fused = _fused_captures(scene, poses, config, rng)
    if len(fused) == 0:
        return fused
    keep = np.linalg.norm(fused.positions - focus, axis=1) <= CROP_RADIUS
    return fused.subset(keep)


def capture_interaction_after(scene: SceneSpec, crop_center, poses,
                              focus_new, config: CaptureConfig,
                              rng: np.random.Generator | None) -> PointCloud:
    """After-interaction capture for one observation pair.

    Fuses the reused before-capture cameras (static surfaces keep identical
    samples) with fresh cameras aimed at the advected contact (frontal
    sampling of the moved part), cropped to the before capture's
    `CROP_RADIUS` sphere so both clouds share support. Falls back to the
    reused cameras alone when no fresh placement is collision-free.
    """
    crop_center = as_vec3(crop_center)
    after = capture_object_views(scene, crop_center, config, rng, poses=poses)
    try:
        fresh = capture_object_views(scene, focus_new, config, rng)
        after = fuse_clouds([after, fresh])
        keep = np.linalg.norm(after.positions - crop_center,
                              axis=1) <= CROP_RADIUS
        after = after.subset(keep)
    except CaptureError:
        pass
    return after
