"""Ray-cast depth capture: scene clouds from a viewpoint ring, object views
around a contact point.

Every returned point is an exact ray/box intersection (plus optional Gaussian
noise along the ray) and carries a stable point id that packs the hit
part's index and the quantized surface coordinate in the part's local frame
(`id_parts` reads the index back). Because the id is local to the part, the
same physical surface patch keeps its identity when the part moves, which
gives downstream code an oracle correspondence channel that survives
articulation. A capture holds positions and point ids only.

A capture first drops every box that lies wholly outside one side plane of
the camera's view pyramid (Assarsson & Möller, "Optimized View Frustum
Culling Algorithms for Bounding Boxes", JGT 2000); no pixel ray can reach
it. It then tests every pixel ray against each remaining box in batched slab
tests (Kay & Kajiya, "Ray Tracing Complex Scenes", SIGGRAPH 1986), one per
fixed block of rays (`geom.row_blocks`). Each ray keeps its nearest entry
and, on a tie, the lowest-index box: bit for bit what a box-by-box scan over
every box of the room that replaces a hit only when strictly closer keeps.

The blocks run on the calling thread, not on the `geom.map_blocks` pool: a
block is about 30 short numpy calls and a few 1,024x3 products, and on two
CPUs two threads sharing them cast a ring slower than one. What a capture
reads of its camera and its room is computed once: the pixel grid per
resolution and field of view, each `CameraPose`'s basis and ray directions,
and each `BoxStack`'s corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import CaptureError, ValidationError
from .geom import (
    PointCloud,
    as_vec3,
    cross3,
    normalize,
    rotation_from_angle_axis,
    row_blocks,
)
from .simworld import WORLD_UP, BoxStack, SceneSpec, surface_normal

# point_id packing: ((part * 6 + face) * ID_RANGE + iu) * ID_RANGE + iv
_ID_RANGE = 100_000
_ID_CELL = 0.005  # surface-coordinate quantization, meters

VFOV_DEG = 60.0     # vertical field of view of every capture camera
MAX_RANGE = 10.0    # farthest hit a capture keeps, meters
VOXEL = 0.02        # scene-cloud downsampling cell, meters
CROP_RADIUS = 1.2   # object views keep points this near the focus, meters


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _half_tangents(resolution, vfov_deg: float) -> tuple[float, float]:
    w, h = resolution
    tan_v = math.tan(math.radians(vfov_deg) / 2.0)
    return tan_v, tan_v * w / h


@lru_cache(maxsize=8)
def _pixel_grid(resolution: tuple[int, int], vfov_deg: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(W*H,) image-plane x and y of every pixel centre at unit depth,
    row-major, read-only; one pair per resolution and field of view."""
    w, h = resolution
    tan_v, tan_h = _half_tangents(resolution, vfov_deg)
    xs = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * tan_h
    ys = (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * tan_v
    gx, gy = np.meshgrid(xs, ys)
    return _read_only(gx.ravel()), _read_only(gy.ravel())


@dataclass(frozen=True)
class CameraPose:
    """Pinhole camera: position, target, vertical field of view, pixel grid.

    Its basis and ray directions are computed on first use and kept, as
    read-only arrays.
    """

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

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        forward = normalize(self.look_at - self.position)
        up = WORLD_UP
        if abs(float(np.dot(forward, up))) > 1.0 - 1e-9:
            up = np.array([1.0, 0.0, 0.0])
        right = normalize(cross3(forward, up))
        cam_up = cross3(right, forward)
        return tuple(map(_read_only, (forward, right, cam_up)))

    @cached_property
    def _ray_directions(self) -> np.ndarray:
        gx, gy = _pixel_grid(tuple(self.resolution), self.vfov_deg)
        # one axis at a time over every pixel: the bytes of the (W*H, 3)
        # broadcast and of `np.linalg.norm` along its rows, a third the cost
        dirs = np.array([f + gx * r + gy * u
                         for f, r, u in zip(*self.basis())])
        sq = dirs * dirs
        dirs /= np.sqrt(sq[0] + sq[1] + sq[2])
        return _read_only(np.ascontiguousarray(dirs.T))

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(forward, right, up) unit vectors of the camera frame."""
        return self._basis

    def half_tangents(self) -> tuple[float, float]:
        """(tan_v, tan_h): tangents of the half vertical and horizontal
        fields of view."""
        return _half_tangents(self.resolution, self.vfov_deg)

    def ray_directions(self) -> np.ndarray:
        """(W*H, 3) unit directions through all pixel centers, row-major."""
        return self._ray_directions

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
    box, per `geom.row_blocks` block of rays, on the calling thread. Returns
    (ray, part, t, local) for the rays that enter a box at 1e-9 < t <=
    `max_range`, in ray order: the entry distance, the box (on a tie, the
    lowest index) and the entry point in that box's frame.

    The slab arrays are axis-major, (3, boxes, rays), so that each step of
    the three-slab max/min chains reads whole contiguous planes.
    """
    if len(boxes.centers) == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0), np.zeros((0, 3)))
    o = ((origin - boxes.centers)[:, None, :] @ boxes.rotations)[:, 0].T
    h = boxes.half_extents.T
    lo, hi = (-h - o)[:, :, None], (h - o)[:, :, None]       # (3, P, 1)
    inside = (np.abs(o) <= h)[:, :, None]
    found = []
    for rows in row_blocks(len(dirs)):
        block_dirs = dirs[rows]
        n = len(block_dirs)
        d = np.empty((3, len(boxes.rotations), n))
        for pi, rotation in enumerate(boxes.rotations):
            d[:, pi] = (block_dirs @ rotation).T
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d
            t1 = lo * inv
            t2 = np.multiply(hi, inv, out=inv)
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2, out=t1)
        # rays parallel to a slab: inside it -> no constraint, outside -> miss
        par = np.abs(d) < 1e-12
        if par.any():
            near = np.where(par, np.where(inside, -np.inf, np.inf), near)
            far = np.where(par, np.where(inside, np.inf, -np.inf), far)
        t_enter = np.maximum(np.maximum(near[0], near[1]), near[2])
        t_exit = np.minimum(np.minimum(far[0], far[1]), far[2])
        hit = (t_enter <= t_exit) & (t_enter > 1e-9) & (t_enter <= max_range)
        t_enter = np.where(hit, t_enter, np.inf)
        part = np.argmin(t_enter, axis=0)  # the first of tied minima
        ray = np.flatnonzero(hit.any(axis=0))
        part = part[ray]
        at = part * n + ray           # flat index of (part, ray) in a plane
        t = t_enter.reshape(-1)[at]
        local = (np.take(o, part, axis=1)
                 + t * np.take(d.reshape(3, -1), at, axis=1)).T
        found.append((ray + rows.start, part, t, local))
    return tuple(map(np.concatenate, zip(*found)))


def _point_ids(part: np.ndarray, local_pts: np.ndarray, half: np.ndarray
               ) -> np.ndarray:
    """Point ids of hits on boxes `part` (N,) with half extents `half` (N, 3)
    at box-frame points `local_pts` (N, 3)."""
    p, h = local_pts.T, half.T
    rel = np.abs(p) / np.maximum(h, 1e-12)
    # the face's axis: the first of the largest relative coordinates
    axis = (rel[1] > rel[0]).astype(np.int64)
    axis[rel[2] > np.maximum(rel[0], rel[1])] = 2
    on_x, on_z = axis == 0, axis == 2
    face = axis * 2 + (np.where(on_x, p[0], np.where(on_z, p[2], p[1])) > 0)
    # (u, v) are the face's other two axes, in ascending order
    u = np.where(on_x, p[1], p[0]) + np.where(on_x, h[1], h[0])
    v = np.where(on_z, p[1], p[2]) + np.where(on_z, h[1], h[2])
    iu = np.clip(np.floor(u / _ID_CELL).astype(np.int64), 0, _ID_RANGE - 1)
    iv = np.clip(np.floor(v / _ID_CELL).astype(np.int64), 0, _ID_RANGE - 1)
    return ((part * 6 + face) * _ID_RANGE + iu) * _ID_RANGE + iv


def id_parts(point_ids: np.ndarray) -> np.ndarray:
    """Index of the box each point id of `_point_ids` lies on."""
    return np.asarray(point_ids) // (6 * _ID_RANGE * _ID_RANGE)


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
    outside = (boxes.corners - camera.position) @ planes.T > 0.0  # (P, 8, 4)
    return np.flatnonzero(~outside.all(axis=1).any(axis=1))


def raycast_capture(scene: SceneSpec, camera: CameraPose, max_range: float,
                    noise_sigma: float,
                    rng: np.random.Generator | None) -> PointCloud:
    """One depth capture: nearest box hit per pixel within range.

    Points carry quantized-surface point ids; pixels hitting the same 5 mm
    surface patch are deduplicated. Gaussian noise (if any) is drawn from
    `rng` and added along the ray after identification; `rng` may be None
    only when `noise_sigma` is 0. The returned cloud is sorted by point id.
    """
    dirs = camera.ray_directions()
    boxes = scene.boxes
    visible = _visible_parts(boxes, camera)
    ray, part, t, local = _nearest_hits(boxes.take(visible), camera.position,
                                        dirs, max_range)
    part = visible[part]
    ids = _point_ids(part, local, np.take(boxes.half_extents, part, axis=0))
    # one point per surface patch, in id order: the first pixel that saw it
    ids, first = np.unique(ids, return_index=True)
    keep = ray[first]

    pts = np.take(dirs, keep, axis=0)
    pts *= t[first, None]
    pts += camera.position
    if noise_sigma > 0.0:
        # the noise is drawn in pixel order
        noise = np.empty(len(keep))
        noise[np.argsort(first)] = rng.normal(0.0, noise_sigma, len(keep))
        pts = pts + dirs[keep] * noise[:, None]
    return PointCloud(pts, point_ids=ids)


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
    if not any(len(c) for c in captures):  # `order[start]` needs a row
        return PointCloud(np.zeros((0, 3)),
                          point_ids=np.zeros(0, dtype=np.int64))
    pos = np.vstack([c.positions for c in captures])
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
    return PointCloud(np.take(pos, keep, axis=0), point_ids=ids_sorted[start])


def _voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Keep one point per voxel of a cloud whose point ids ascend, as
    `fuse_clouds` leaves them: the lowest point id in the voxel wins, which
    is the voxel's first row."""
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
    """Fused scene cloud from the viewpoint ring, one point per `VOXEL`,
    each coloured as the part its id lies on."""
    fused = _fused_captures(scene, ring_poses(scene, config), config, rng)
    cloud = _voxel_downsample(fused, VOXEL)
    colours = np.array([p.color for p in scene.parts]).reshape(-1, 3)
    return replace(cloud, colors=np.take(colours, id_parts(cloud.point_ids),
                                         axis=0))


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
