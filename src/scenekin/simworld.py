"""Procedural articulated room scenes and a kinematic pull simulator.

Scenes are assemblies of oriented boxes: walls and a floor enclosing a room,
cabinet bodies with hinged door panels or sliding drawer fronts mounted along
the walls, and inert distractor boxes. Every mobile panel is driven by exactly
one prismatic or revolute joint with known world-frame parameters, which makes
the generator double as the ground-truth source for evaluation.

Interaction is kinematic, not dynamic. A pull at a contact point engages the
joint only if the pull direction has enough leverage (moment arm for hinges,
axis alignment for sliders), then advances the joint in small steps of pulled
length, each step converting the component of the pull along the contact
point's instantaneous trajectory tangent into joint motion. Stepping stops
when the tangent rotates too far away from the pull direction, a joint limit
is reached, or the pull budget runs out. This reproduces the qualitative
behaviors that matter downstream: grasps near a hinge fail outright, and a
fixed pull direction opens a door only until the alignment decays.

Geometry queries (nearest part, gripper clearance, box overlap) run as one
array operation over a scene's stacked boxes (`SceneSpec.boxes`), bit for
bit what a box-by-box scan gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .artinfer import PRISMATIC, REVOLUTE
from .artifacts import read_doc
from .errors import PreconditionError, SceneGenerationError, ValidationError
from .geom import (
    RigidTransform,
    as_vec3,
    cross3,
    normalize,
    rodrigues,
    rotation_from_angle_axis,
)

PART_KINDS = ("static_body", "mobile_part", "distractor", "wall", "floor")

WORLD_UP = np.array([0.0, 0.0, 1.0])

# farthest a pulled contact may lie off the nearest part surface, meters
CONTACT_TOL = 5e-3
GRIPPER_RADIUS = 0.04
SNAP_TOLERANCE = 0.03  # commanded contact -> surface projection, meters
PULL_STEP = 0.01       # pulled length per step of `interact`, meters
PULL_ALIGN_MIN = 0.5   # a pull stops when its tangent alignment decays to this
MOTION_EPSILON = 1e-3  # joint-state change that counts as motion


@dataclass(frozen=True)
class PartGeometry:
    """One oriented box: local frame axes are the columns of `rotation`."""

    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray
    color: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        he = as_vec3(self.half_extents)
        if np.any(he <= 0):
            raise ValidationError("half-extents must be strictly positive")
        object.__setattr__(self, "half_extents", he)
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "color", as_vec3(self.color))
        if self.kind not in PART_KINDS:
            raise ValidationError(f"unknown part kind {self.kind!r}")

    def to_local(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (pts - self.center) @ self.rotation

    def to_world(self, local: np.ndarray) -> np.ndarray:
        loc = np.atleast_2d(np.asarray(local, dtype=np.float64))
        out = loc @ self.rotation.T + self.center
        return out[0] if np.asarray(local).ndim == 1 else out

    def transformed(self, T: RigidTransform) -> "PartGeometry":
        return replace(self, center=T.apply(self.center),
                       rotation=T.rotation @ self.rotation)


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms along the last axis, bit for bit `np.linalg.norm` of each row."""
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class BoxStack:
    """Oriented boxes stacked along axis 0: centers (P, 3), rotations
    (P, 3, 3), half extents (P, 3) and colors (P, 3).

    A query answers for all P boxes at once, bit for bit what the same
    arithmetic on each `PartGeometry` alone gives.
    """

    centers: np.ndarray
    rotations: np.ndarray
    half_extents: np.ndarray
    colors: np.ndarray

    @staticmethod
    def of(boxes) -> "BoxStack":
        def stack(name, *shape):
            return np.array([getattr(b, name) for b in boxes],
                            dtype=np.float64).reshape(-1, *shape)
        return BoxStack(stack("center", 3), stack("rotation", 3, 3),
                        stack("half_extents", 3), stack("color", 3))

    def take(self, idx) -> "BoxStack":
        return BoxStack(self.centers[idx], self.rotations[idx],
                        self.half_extents[idx], self.colors[idx])

    @cached_property
    def corners(self) -> np.ndarray:
        """(P, 8, 3) world corners of each box, read-only; built on first
        use."""
        signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
        corners = self.centers[:, None, :] + np.einsum(
            "pij,pcj->pci", self.rotations,
            signs[None] * self.half_extents[:, None, :])
        corners.flags.writeable = False
        return corners

    def _gaps(self, points: np.ndarray) -> np.ndarray:
        """(..., P, 3) |coordinate| - half extent of `points` (..., 3) in
        each box's frame."""
        local = ((points[..., None, :] - self.centers)[..., None, :]
                 @ self.rotations)[..., 0, :]
        return np.abs(local) - self.half_extents

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """(..., P) distances from `points` (..., 3) to each box surface; 0
        only on it."""
        d = self._gaps(points)
        inside = np.abs(np.minimum(d.max(axis=-1), 0.0))
        return _norms(np.maximum(d, 0.0)) + inside

    def solid_distance(self, points: np.ndarray) -> np.ndarray:
        """(..., P) distances from `points` (..., 3) to each solid box; 0
        inside."""
        return _norms(np.maximum(self._gaps(points), 0.0))

    def nearest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(box index, surface distance) of the box nearest to each of the
        (N, 3) `points`; (-1, inf) with no boxes.

        Boxes are scanned in index order and a box wins only when it is
        nearer than the current winner by more than 1e-15, so a near tie
        goes to the lowest index. Where no other box lies within a few
        1e-15 of the nearest, that rule picks the nearest, so only the
        other rows are scanned box by box.
        """
        d = self.surface_distance(points)
        n = len(points)
        if d.shape[1] == 0:
            return np.full(n, -1), np.full(n, math.inf)
        best_i, best_d = d.argmin(axis=1), d.min(axis=1)
        window = best_d + (4e-15 + 4 * np.spacing(best_d))
        for row in np.flatnonzero((d <= window[:, None]).sum(axis=1) > 1):
            best_i[row], best_d[row] = -1, math.inf
            for i, di in enumerate(d[row].tolist()):
                if di < best_d[row] - 1e-15:
                    best_i[row], best_d[row] = i, di
        return best_i, best_d

    def face_normals(self, points: np.ndarray, boxes) -> np.ndarray:
        """(N, 3) outward normal of the face of box `boxes[k]` nearest to
        `points[k]`, world frame."""
        rotations = self.rotations[boxes]
        local = ((points - self.centers[boxes])[:, None, :]
                 @ rotations)[:, 0, :]
        axis = np.argmin(self.half_extents[boxes] - np.abs(local), axis=1)
        rows = np.arange(len(points))
        n_local = np.zeros((len(points), 3))
        n_local[rows, axis] = np.where(local[rows, axis] >= 0, 1.0, -1.0)
        return (rotations @ n_local[:, :, None])[:, :, 0]

    def clear(self, points: np.ndarray, normals: np.ndarray,
              radius: float) -> np.ndarray:
        """(N,) whether a gripper sphere of `radius` resting on each of the
        (N, 3) `points` fits: centred at point + radius * unit normal, it
        overlaps no box (tangency at the contact surface is allowed)."""
        norms = _norms(normals)
        if (norms < 1e-12).any():
            raise ValidationError("cannot normalize a zero vector")
        centers = points + radius * (normals / norms[:, None])
        return ~(self.solid_distance(centers) < radius - 1e-9).any(axis=1)


def boxes_interpenetrate(a: BoxStack, b: BoxStack) -> np.ndarray:
    """(K,) whether box a[k] overlaps box b[k] (touching does not): the
    separating-axis test (Gottschalk, Lin & Manocha, SIGGRAPH 1996) on 6 face
    normals and 9 edge crosses, skipping crosses of norm <= 1e-12."""
    ea, eb = a.rotations.transpose(0, 2, 1), b.rotations.transpose(0, 2, 1)
    cross = np.cross(ea[:, :, None, :], eb[:, None, :, :]).reshape(-1, 9, 3)
    norm = _norms(cross)
    skip = norm <= 1e-12
    axes = np.concatenate(
        [ea, eb, cross / np.where(skip, 1.0, norm)[..., None]], axis=1)
    pa = np.vecdot(np.abs(axes @ a.rotations), a.half_extents[:, None, :])
    pb = np.vecdot(np.abs(axes @ b.rotations), b.half_extents[:, None, :])
    t = (b.centers - a.centers)[:, None, :]
    separates = np.abs(np.vecdot(axes, t)) >= pa + pb - 1e-9
    separates[:, 6:] &= ~skip
    return ~separates.any(axis=1)


@dataclass(frozen=True)
class GroundTruthJoint:
    """World-frame joint driving one mobile part.

    `resistance` is the engagement threshold: minimum moment arm in meters for
    revolute joints, minimum pull/axis alignment (unitless) for prismatic.
    Joint state 0 is the closed, as-generated pose; limits satisfy lo <= 0 <= hi.
    """

    joint_type: str
    axis: np.ndarray
    pivot: np.ndarray | None
    limits: tuple[float, float]
    state: float
    resistance: float

    def __post_init__(self):
        if self.joint_type not in (PRISMATIC, REVOLUTE):
            raise ValidationError(f"unknown joint type {self.joint_type!r}")
        object.__setattr__(self, "axis", normalize(self.axis))
        if self.joint_type == REVOLUTE:
            if self.pivot is None:
                raise ValidationError("revolute joint needs a pivot")
            object.__setattr__(self, "pivot", as_vec3(self.pivot))
        lo, hi = float(self.limits[0]), float(self.limits[1])
        if not (lo <= 0.0 <= hi):
            raise ValidationError("joint limits must bracket the closed state 0")
        object.__setattr__(self, "limits", (lo, hi))
        if not (lo - 1e-12 <= self.state <= hi + 1e-12):
            raise ValidationError("joint state outside limits")

    def motion(self) -> RigidTransform:
        """Rigid motion from the closed pose to the current state."""
        if self.joint_type == PRISMATIC:
            return RigidTransform.from_translation(self.axis * self.state)
        return RigidTransform.from_rotation_about_line(self.axis, self.state,
                                                       self.pivot)


@dataclass(frozen=True)
class SceneSpec:
    """Immutable scene: parts at their closed pose plus joint states.

    The world pose of a mobile part is its closed-pose box mapped through its
    joint's current motion; all other parts are fixed.
    """

    parts: tuple[PartGeometry, ...]
    joints: tuple[tuple[int, GroundTruthJoint], ...]
    bounds: tuple[np.ndarray, np.ndarray]
    seed: int

    def __post_init__(self):
        lo, hi = as_vec3(self.bounds[0]), as_vec3(self.bounds[1])
        object.__setattr__(self, "bounds", (lo, hi))
        mobile = [i for i, p in enumerate(self.parts) if p.kind == "mobile_part"]
        referenced = [idx for idx, _ in self.joints]
        if sorted(referenced) != sorted(set(referenced)):
            raise ValidationError("a part is referenced by more than one joint")
        if set(referenced) != set(mobile):
            raise ValidationError("mobile parts and joints must match 1:1")

    def joint_for_part(self, part_index: int) -> tuple[int, GroundTruthJoint] | None:
        for j, (idx, joint) in enumerate(self.joints):
            if idx == part_index:
                return j, joint
        return None

    def part_world(self, part_index: int) -> PartGeometry:
        return self._world_parts[part_index]

    def world_parts(self) -> tuple[PartGeometry, ...]:
        """Every part at its current pose, computed once per scene."""
        return self._world_parts

    @cached_property
    def _world_parts(self) -> tuple[PartGeometry, ...]:
        motions = {idx: joint.motion() for idx, joint in self.joints}
        return tuple(part.transformed(motions[i]) if i in motions else part
                     for i, part in enumerate(self.parts))

    @cached_property
    def boxes(self) -> BoxStack:
        """`world_parts()` stacked, built on the scene's first query."""
        return BoxStack.of(self.world_parts())

    def with_joint_state(self, joint_index: int, state: float) -> "SceneSpec":
        joints = list(self.joints)
        part_idx, joint = joints[joint_index]
        joints[joint_index] = (part_idx, replace(joint, state=float(state)))
        return replace(self, joints=tuple(joints))


@dataclass(frozen=True)
class InteractionOutcome:
    success: bool
    moved_joint: int | None
    delta_state: float
    final_contact: np.ndarray
    engaged: bool  # leverage test passed, whether or not motion followed


@dataclass(frozen=True)
class PullBudget:
    """Length of one pull; `interact` steps it by `PULL_STEP`."""

    total: float = 0.4        # total pulled length, meters


@dataclass(frozen=True)
class InteractionConfig:
    """How far the agent pulls; `interact` fixes the rest of a pull."""

    pull: PullBudget = field(default_factory=PullBudget)


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the procedural generator. Lengths in meters, angles radians."""

    n_revolute: int = 2
    n_prismatic: int = 2
    n_distractor: int = 3
    room_width: tuple[float, float] = (4.0, 5.2)
    room_depth: tuple[float, float] = (4.0, 5.2)
    room_height: float = 2.5
    wall_thickness: float = 0.1
    # door carcases are tall with the door covering most of the front; the
    # wall strip above them then sits well away from the panel height band
    cabinet_height: tuple[float, float] = (1.6, 1.9)
    cabinet_width: tuple[float, float] = (0.55, 0.9)
    cabinet_depth: tuple[float, float] = (0.35, 0.5)
    drawer_cabinet_height: tuple[float, float] = (0.75, 1.05)
    door_margin: float = 0.035         # panel inset from carcase edge
    panel_thickness: float = 0.02
    panel_proud: float = 0.01          # standoff between carcase front and panel back
    door_max_angle: tuple[float, float] = (1.6, 2.0)
    drawer_travel: tuple[float, float] = (0.25, 0.38)
    drawer_front_height: tuple[float, float] = (0.45, 0.7)
    rho_min: float = 0.05              # revolute engagement moment arm
    a_min: float = 0.5                 # prismatic engagement alignment
    distractor_crate_height: tuple[float, float] = (0.25, 0.45)
    distractor_slab_height: tuple[float, float] = (0.95, 1.25)
    placement_gap: float = 0.02
    pack_probability: float = 0.85  # chance a new cabinet extends an existing run
    pack_gap: float = 0.015         # side gap between packed cabinets
    max_retries: int = 200

    def validate(self):
        for name in ("n_revolute", "n_prismatic", "n_distractor"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


def _room_shell(rng, config: GenerationConfig):
    w = rng.uniform(*config.room_width)
    d = rng.uniform(*config.room_depth)
    h = config.room_height
    t = config.wall_thickness
    gray = lambda: np.full(3, rng.uniform(0.55, 0.85))
    parts = [
        PartGeometry([w / 2, d / 2, -t / 2], [w / 2 + t, d / 2 + t, t / 2],
                     np.eye(3), gray(), "floor"),
        PartGeometry([-t / 2, d / 2, h / 2], [t / 2, d / 2 + t, h / 2],
                     np.eye(3), gray(), "wall"),
        PartGeometry([w + t / 2, d / 2, h / 2], [t / 2, d / 2 + t, h / 2],
                     np.eye(3), gray(), "wall"),
        PartGeometry([w / 2, -t / 2, h / 2], [w / 2 + t, t / 2, h / 2],
                     np.eye(3), gray(), "wall"),
        PartGeometry([w / 2, d + t / 2, h / 2], [w / 2 + t, t / 2, h / 2],
                     np.eye(3), gray(), "wall"),
    ]
    bounds = (np.array([0.0, 0.0, 0.0]), np.array([w, d, h]))
    return parts, bounds


# Wall index -> (inward normal, yaw of object local +y onto that normal).
_WALL_FRAMES = {
    0: (np.array([1.0, 0.0, 0.0]), -np.pi / 2),   # x = 0 wall, faces +x
    1: (np.array([-1.0, 0.0, 0.0]), np.pi / 2),   # x = W wall, faces -x
    2: (np.array([0.0, 1.0, 0.0]), 0.0),          # y = 0 wall, faces +y
    3: (np.array([0.0, -1.0, 0.0]), np.pi),       # y = D wall, faces -y
}


def _yaw_matrix(yaw: float) -> np.ndarray:
    return rotation_from_angle_axis(WORLD_UP, yaw)


def _wall_anchor(bounds, wall):
    lo, hi = bounds
    if wall == 0:
        return np.array([lo[0], lo[1], 0.0])
    if wall == 1:
        return np.array([hi[0], hi[1], 0.0])
    if wall == 2:
        return np.array([hi[0], lo[1], 0.0])
    return np.array([lo[0], hi[1], 0.0])


def _try_offset(bounds, wall, offset, footprint_w, footprint_d, existing_aabbs,
                gap):
    """Candidate placement; `existing_aabbs` hold raw (uninflated) extents and
    only the candidate is inflated by `gap`. Returns the raw aabb."""
    lo, hi = bounds
    normal, yaw = _WALL_FRAMES[wall]
    along = np.array([-normal[1], normal[0], 0.0])
    wall_len = hi[0] - lo[0] if abs(normal[0]) < 0.5 else hi[1] - lo[1]
    if offset < footprint_w / 2 or offset > wall_len - footprint_w / 2:
        return None
    center = _wall_anchor(bounds, wall) + along * offset \
        + normal * (footprint_d / 2 + 1e-4)
    half = np.where(np.abs(normal[:2]) > 0.5, footprint_d / 2, footprint_w / 2)
    raw = (center[:2] - half, center[:2] + half)
    inflated = (raw[0] - gap, raw[1] + gap)
    for a0, a1 in existing_aabbs:
        if np.all(inflated[1] > a0) and np.all(a1 > inflated[0]):
            return None
    return center[:2], yaw, normal, raw


def _place_against_wall(rng, bounds, footprint_w, footprint_d, existing_aabbs,
                        config: GenerationConfig, what, runs=None):
    """Place an object flush to a wall, local +y pointing into the room.

    Cabinets pass their `runs` and prefer to extend one (flush against a
    previously placed cabinet on the same wall, narrow side gap) so exposed
    side faces stay rare, like fitted furniture. Returns (center_xy, yaw,
    normal).
    """
    pack_gap = config.pack_gap
    if runs and rng.uniform() < config.pack_probability:
        order = rng.permutation(len(runs))
        for k in order:
            wall, lo_off, hi_off = runs[int(k)]
            for side in (rng.permutation([0, 1])):
                offset = (lo_off - pack_gap - footprint_w / 2 if side == 0
                          else hi_off + pack_gap + footprint_w / 2)
                # the pack gap itself is the separation; tiny inflation only
                got = _try_offset(bounds, wall, offset, footprint_w,
                                  footprint_d, existing_aabbs,
                                  min(pack_gap / 2, 0.005))
                if got is not None:
                    center, yaw, normal, aabb = got
                    existing_aabbs.append(aabb)
                    runs[int(k)] = (wall, min(lo_off, offset - footprint_w / 2),
                                    max(hi_off, offset + footprint_w / 2))
                    return center, yaw, normal
    lo, hi = bounds
    for _ in range(config.max_retries):
        wall = int(rng.integers(0, 4))
        normal, _ = _WALL_FRAMES[wall]
        wall_len = hi[0] - lo[0] if abs(normal[0]) < 0.5 else hi[1] - lo[1]
        if wall_len <= footprint_w:
            continue
        offset = rng.uniform(footprint_w / 2, wall_len - footprint_w / 2)
        got = _try_offset(bounds, wall, offset, footprint_w, footprint_d,
                          existing_aabbs, config.placement_gap)
        if got is not None:
            center, yaw, normal, aabb = got
            existing_aabbs.append(aabb)
            if runs is not None:
                runs.append((wall, offset - footprint_w / 2,
                             offset + footprint_w / 2))
            return center, yaw, normal
    raise SceneGenerationError(
        f"could not place {what} after {config.max_retries} retries")


def generate_scene(seed: int, config: GenerationConfig | None = None) -> SceneSpec:
    """Build a deterministic scene for (seed, config): a walled room with
    hinged-door cabinets, drawer cabinets, and distractor boxes along the walls.
    """
    config = config or GenerationConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    parts, bounds = _room_shell(rng, config)
    color = lambda: rng.uniform(0.15, 0.9, size=3)
    aabbs: list = []
    runs: list = []
    joints: list[tuple[int, GroundTruthJoint]] = []

    def add_cabinet(mobile_kind: str):
        cw = rng.uniform(*config.cabinet_width)
        cd = rng.uniform(*config.cabinet_depth)
        ch = rng.uniform(*config.cabinet_height) if mobile_kind == "door" \
            else rng.uniform(*config.drawer_cabinet_height)
        depth_total = cd + config.panel_proud + config.panel_thickness
        cxy, yaw, normal = _place_against_wall(
            rng, bounds, cw, depth_total, aabbs, config,
            f"{mobile_kind} cabinet", runs=runs)
        R = _yaw_matrix(yaw)
        # local frame: +x along wall, +y into the room, +z up
        body_center = np.array([cxy[0], cxy[1], ch / 2]) \
            - normal * (config.panel_proud + config.panel_thickness) / 2
        body = PartGeometry(body_center, [cw / 2, cd / 2, ch / 2], R,
                            color(), "static_body")
        parts.append(body)
        body_front = body_center + normal * (cd / 2)

        m = config.door_margin
        if mobile_kind == "door":
            pw = cw - 2 * m
            base = rng.uniform(0.1, 0.22)
            # the door covers the carcase front up to a 1.45 m panel band cap
            ph = min(1.45, ch - 0.12) - base
            pz = base + ph / 2
            panel_center = body_front + normal * (config.panel_proud
                                                  + config.panel_thickness / 2)
            panel_center = np.array([panel_center[0], panel_center[1], pz])
            panel = PartGeometry(panel_center,
                                 [pw / 2, config.panel_thickness / 2, ph / 2],
                                 R, color(), "mobile_part")
            parts.append(panel)
            along = R @ np.array([1.0, 0.0, 0.0])
            hinge_left = bool(rng.integers(0, 2))
            hinge_dir = -1.0 if hinge_left else 1.0
            pivot = panel_center + along * (hinge_dir * pw / 2)
            max_angle = rng.uniform(*config.door_max_angle)
            # positive rotation about +z swings a left-hinged door into the
            # room; mirror the limits for a right hinge
            limits = (0.0, max_angle) if hinge_left else (-max_angle, 0.0)
            joint = GroundTruthJoint(REVOLUTE, WORLD_UP.copy(), pivot,
                                     limits, 0.0, config.rho_min)
        else:
            pw = cw - 2 * m
            ph = min(rng.uniform(*config.drawer_front_height), ch - 0.2)
            pz = rng.uniform(0.08, max(0.1, ch - ph - 0.08))
            panel_center = body_front + normal * (config.panel_proud
                                                  + config.panel_thickness / 2)
            panel_center = np.array([panel_center[0], panel_center[1],
                                     pz + ph / 2])
            panel = PartGeometry(panel_center,
                                 [pw / 2, config.panel_thickness / 2, ph / 2],
                                 R, color(), "mobile_part")
            parts.append(panel)
            travel = rng.uniform(*config.drawer_travel)
            joint = GroundTruthJoint(PRISMATIC, normal.copy(), None,
                                     (0.0, travel), 0.0, config.a_min)
        joints.append((len(parts) - 1, joint))

    def add_distractor():
        if rng.uniform() < 0.5:
            h = rng.uniform(*config.distractor_crate_height)
            w = rng.uniform(0.4, 0.8)
        else:
            h = rng.uniform(*config.distractor_slab_height)
            w = rng.uniform(0.9, 1.3)
        d = rng.uniform(0.3, 0.5)
        cxy, yaw, _ = _place_against_wall(rng, bounds, w, d, aabbs, config,
                                          "distractor")
        parts.append(PartGeometry([cxy[0], cxy[1], h / 2],
                                  [w / 2, d / 2, h / 2],
                                  _yaw_matrix(yaw), color(), "distractor"))

    # fixed build order keeps generation deterministic for a given seed
    for _ in range(config.n_revolute):
        add_cabinet("door")
    for _ in range(config.n_prismatic):
        add_cabinet("drawer")
    for _ in range(config.n_distractor):
        add_distractor()

    scene = SceneSpec(tuple(parts), tuple(joints), bounds, seed)
    violations = find_interpenetrations(scene)
    if violations:
        raise SceneGenerationError(f"generated parts interpenetrate: {violations}")
    return scene


def find_interpenetrations(scene: SceneSpec) -> list[tuple[int, int]]:
    """All pairs (i < j, ascending) of non-room parts whose boxes overlap."""
    idxs = np.array([i for i, p in enumerate(scene.parts)
                     if p.kind not in ("wall", "floor")], dtype=np.int64)
    a, b = np.triu_indices(len(idxs), k=1)
    # not `scene.boxes`, which a scene builds on its first query (the
    # benchmark tracer counts that query's one `world_parts()` call)
    boxes = BoxStack.of(scene.world_parts()).take(idxs)
    hit = boxes_interpenetrate(boxes.take(a), boxes.take(b))
    return list(zip(idxs[a[hit]].tolist(), idxs[b[hit]].tolist()))


def nearest_part(scene: SceneSpec, point) -> tuple[int, float]:
    """Part whose surface is closest to `point` (current poses); ties -> lowest index."""
    parts, dists = scene.boxes.nearest(as_vec3(point)[None])
    return int(parts[0]), float(dists[0])


def surface_normal(scene: SceneSpec, point) -> np.ndarray:
    """Outward normal of the nearest part face at `point`."""
    i, _ = nearest_part(scene, point)
    return scene.boxes.face_normals(as_vec3(point)[None], [i])[0]


def project_to_surface(scene: SceneSpec, point) -> np.ndarray:
    """Snap a commanded contact onto the nearest part surface.

    Covers sensing noise between a cloud point and the true surface; raises
    when the point is farther than `SNAP_TOLERANCE` from all geometry.
    """
    p = as_vec3(point)
    idx, dist = nearest_part(scene, p)
    if dist > SNAP_TOLERANCE:
        raise PreconditionError(f"point is {dist:.4f} m from the nearest "
                                f"surface (> {SNAP_TOLERANCE})")
    box = scene.part_world(idx)
    local = box.to_local(p)[0]
    clamped = np.clip(local, -box.half_extents, box.half_extents)
    gap = box.half_extents - np.abs(clamped)
    axis = int(np.argmin(gap))
    # inside the box: push out through the closest face
    clamped[axis] = math.copysign(box.half_extents[axis],
                                  clamped[axis] if clamped[axis] != 0 else 1.0)
    return box.to_world(clamped)


def gripper_clearance(scene: SceneSpec, point, normal, radius: float) -> bool:
    """True iff a gripper sphere resting on the surface at `point` fits.

    The sphere of radius `radius` is centered at point + radius * normal; the
    check passes when it intersects no scene geometry (tangency at the contact
    surface itself is allowed).
    """
    return bool(scene.boxes.clear(as_vec3(point)[None], as_vec3(normal)[None],
                                  radius)[0])


def canonical_pull_directions(contact_normal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(backward, left, right) pull directions for a surface normal.

    Backward is the normal itself; the lateral pair is +-(normal x up),
    falling back to world +x as the lateral seed when the normal is vertical.
    """
    n = normalize(contact_normal)
    lateral = cross3(n, WORLD_UP)
    if np.linalg.norm(lateral) < 1e-9:
        lateral = cross3(n, np.array([1.0, 0.0, 0.0]))
    lateral = lateral / np.linalg.norm(lateral)
    return n, lateral, -lateral


def interact(scene: SceneSpec, contact, pull_direction, total: float
             ) -> tuple[InteractionOutcome, SceneSpec]:
    """Pull `total` meters at `contact` along `pull_direction`, in steps
    of `PULL_STEP`; returns (outcome, new scene).

    The contact must lie on a part surface (within `CONTACT_TOL`). The pull
    stops early once its alignment with the contact's path falls to
    `PULL_ALIGN_MIN`. Success means the touched joint moved by more than
    `MOTION_EPSILON`; the returned
    scene carries the updated joint state and the outcome's final contact is
    the contact point advected by the joint motion.
    """
    contact = as_vec3(contact)
    d = np.asarray(pull_direction, dtype=np.float64)
    if np.linalg.norm(d) < 1e-12:
        raise ValidationError("pull direction must be nonzero")
    d = d / np.linalg.norm(d)

    part_idx, dist = nearest_part(scene, contact)
    if dist > CONTACT_TOL:
        raise PreconditionError(f"contact is {dist:.4f} m off the nearest "
                                f"surface (> {CONTACT_TOL})")

    found = scene.joint_for_part(part_idx)
    fail = InteractionOutcome(False, None, 0.0, contact.copy(), False)
    if found is None:
        return fail, scene
    joint_idx, joint = found
    lo, hi = joint.limits
    theta = joint.state
    u = joint.axis

    if joint.joint_type == REVOLUTE:
        pivot = joint.pivot
        axis_pt = pivot + np.dot(contact - pivot, u) * u
        r_vec = contact - axis_pt
        r = float(np.linalg.norm(r_vec))
        if r < 1e-9:
            return fail, scene
        tangent = cross3(u, r_vec / r)
        a0 = float(np.dot(d, tangent))
        if r * abs(a0) < joint.resistance:
            return fail, scene
    else:
        a0 = float(np.dot(d, u))
        if abs(a0) < joint.resistance:
            return fail, scene

    sigma = 1.0 if a0 > 0 else -1.0
    p_cur = contact.copy()
    n_steps = int(math.floor(total / PULL_STEP + 1e-9))
    for _ in range(n_steps):
        if joint.joint_type == REVOLUTE:
            axis_pt = joint.pivot + np.dot(p_cur - joint.pivot, u) * u
            r_vec = p_cur - axis_pt
            tangent = cross3(u, r_vec / np.linalg.norm(r_vec))
            align = float(np.dot(d, tangent))
            if sigma * align <= PULL_ALIGN_MIN:
                break
            dtheta = PULL_STEP * align / r
        else:
            align = a0
            if sigma * align <= PULL_ALIGN_MIN:
                break
            dtheta = PULL_STEP * align
        new_theta = min(max(theta + dtheta, lo), hi)
        actual = new_theta - theta
        if abs(actual) < 1e-15:
            break  # pinned at a limit
        if joint.joint_type == REVOLUTE:
            # `RigidTransform.from_rotation_about_line`'s arithmetic without
            # its checks; the joint checked its axis when it was built
            R = rodrigues(u, actual)
            p_cur = R @ p_cur + (joint.pivot - R @ joint.pivot)
        else:
            p_cur = p_cur + u * actual
        theta = new_theta
        if theta in (lo, hi):
            break

    delta = theta - joint.state
    if abs(delta) <= MOTION_EPSILON:
        return (InteractionOutcome(False, None, delta, contact.copy(), True),
                scene)
    new_scene = scene.with_joint_state(joint_idx, theta)
    return (InteractionOutcome(True, joint_idx, delta, p_cur, True),
            new_scene)


def probe(scene: SceneSpec, contact, normal, interaction: InteractionConfig
          ) -> tuple[InteractionOutcome, SceneSpec]:
    """Canonical pulls at `contact` until one moves a part.

    Returns that pull's (outcome, new scene), or the last pull's when none
    moves. Errors of `interact` propagate.
    """
    for direction in canonical_pull_directions(normal):
        outcome, after = interact(scene, contact, direction,
                                  interaction.pull.total)
        if outcome.success:
            break
    return outcome, after


# ---------------------------------------------------------------------------
# Scene serialization (scene_spec.v1)
# ---------------------------------------------------------------------------

def scene_to_dict(scene: SceneSpec, config_hash: str) -> dict:
    return {
        "version": "scene_spec.v1",
        "config_hash": config_hash,
        "seed": int(scene.seed),
        "bounds": {"min": scene.bounds[0].tolist(),
                   "max": scene.bounds[1].tolist()},
        "parts": [
            {
                "center": p.center.tolist(),
                "half_extents": p.half_extents.tolist(),
                "rotation": p.rotation.reshape(-1).tolist(),
                "color": p.color.tolist(),
                "kind": p.kind,
            }
            for p in scene.parts
        ],
        "joints": [
            {
                "part_index": int(idx),
                "type": j.joint_type,
                "axis": j.axis.tolist(),
                "pivot": None if j.pivot is None else j.pivot.tolist(),
                "limits": [j.limits[0], j.limits[1]],
                "state": j.state,
                "resistance": j.resistance,
            }
            for idx, j in scene.joints
        ],
    }


def scene_from_dict(doc: dict) -> SceneSpec:
    parts = tuple(
        PartGeometry(p["center"], p["half_extents"],
                     np.array(p["rotation"], dtype=np.float64).reshape(3, 3),
                     p["color"], p["kind"])
        for p in doc["parts"]
    )
    joints = tuple(
        (int(j["part_index"]),
         GroundTruthJoint(j["type"], j["axis"], j["pivot"],
                          (j["limits"][0], j["limits"][1]),
                          j["state"], j["resistance"]))
        for j in doc["joints"]
    )
    return SceneSpec(parts, joints,
                     (np.array(doc["bounds"]["min"]), np.array(doc["bounds"]["max"])),
                     int(doc["seed"]))


def load_scene(path) -> SceneSpec:
    """The scene_spec.v1 file at `path`; each fault of the file is an
    ArtifactError naming it (`artifacts.read_doc`), and a scene the file
    describes but `SceneSpec` refuses is a ValidationError."""
    return read_doc(path, f"scene file {path}", "scene_spec.v1",
                    scene_from_dict)
