"""Iterative refinement: re-pull partially opened hinges for larger motion.

A coarse hinge estimate already says where force is effective: the mobile
point farthest from the axis gives the longest lever arm, and the moment
direction (axis cross lever) is the tangent the part can actually follow.
Re-interacting there opens the joint further, and re-running inference
against the original before cloud measures the accumulated opening, which is
what the coverage thresholds care about. Sliding joints pass through
untouched since a single pull already opens them fully.

A larger opening conditions the axis better, but only if the fit of the
accumulated pair is right. A wide opening shows surfaces the before capture
never saw (the back of a door panel), and ICP can lock onto them, landing the
panel one thickness off. Such a motion carries the part into space a camera
saw through, which the captures record. The re-estimated axis is therefore
kept only when it conflicts with observed free space no more than the current
axis does at its best-fitting opening; otherwise the current axis stays and
only the accumulated opening is taken over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import replace as dc_replace

import numpy as np

from .artinfer import (
    FIT_EPSILON,
    REVOLUTE,
    InferenceConfig,
    JointModel,
    ObservationPair,
    PartSegmentation,
    infer_articulation,
)
from .errors import (
    CaptureError,
    InferenceError,
    PreconditionError,
    RefinementUnavailable,
    ValidationError,
)
from .geom import RigidTransform, closest_point_on_line
from .sensing import (
    CameraPose,
    CaptureConfig,
    capture_interaction_after,
    range_image,
)
from .simworld import (
    GRIPPER_RADIUS,
    InteractionConfig,
    SceneSpec,
    gripper_clearance,
    interact,
    project_to_surface,
    surface_normal,
)


TARGET_STATE = math.radians(30.0)
MAX_ITERS = 2
# a re-estimate whose axis swings further than this from the current one is
# treated as a failed fit and rejected outright; within it, the free-space
# evidence decides which axis is kept
AXIS_CONSISTENCY_DEG = 15.0


# Openings tried for the current axis on the accumulated pair, around the
# re-estimated one. Its pivot was fitted on a short opening, and the pivot
# error shifts the angle that fits best by a few degrees.
_ANGLE_SCAN = np.radians(np.arange(-6.0, 6.0 + 1e-9, 0.25))


@dataclass(frozen=True)
class RefineResult:
    """Refined estimate, the loop's log, and one interaction record
    {"success", "moved_joint", "delta_state"} per pull it made."""

    joint: JointModel
    segmentation: PartSegmentation
    log: tuple[dict, ...]
    scene: SceneSpec
    observation: ObservationPair
    pulls: tuple[dict, ...]


def part_affordance(joint: JointModel, seg: PartSegmentation,
                    cloud, scene: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Plan the next pull from a hinge estimate and its mobile segmentation:
    (grasp point, force direction), the lever tip and the push along the
    moment direction there.

    `cloud` is the post-interaction observation; the mobile point farthest
    from the axis line wins (ties to the lowest index), falling back to the
    farthest point with clearance for a `GRIPPER_RADIUS` gripper. The force
    direction is the moment of the axis at that point, signed to continue
    the observed opening.
    """
    if joint.kind != REVOLUTE:
        raise ValidationError("part-level planning applies to revolute joints")
    mask = seg.mobile_mask_after
    if len(mask) != len(cloud):
        raise ValidationError("segmentation does not align with the cloud")
    if not mask.any():
        raise RefinementUnavailable("mobile mask is empty")
    pts = cloud.positions[mask]
    axis_pts = np.array([closest_point_on_line(p, joint.pivot, joint.axis)
                         for p in pts])
    dists = np.linalg.norm(pts - axis_pts, axis=1)
    order = np.lexsort((np.arange(len(pts)), -dists))
    sign = 1.0 if joint.state >= 0 else -1.0
    for k in order:
        p = pts[k]
        r_vec = p - axis_pts[k]
        r = float(np.linalg.norm(r_vec))
        if r < 1e-9:
            continue
        direction = sign * np.cross(joint.axis, r_vec / r)
        normal = surface_normal(scene, p)
        if gripper_clearance(scene, p, normal, GRIPPER_RADIUS):
            return p.copy(), direction
    raise RefinementUnavailable("no mobile point with gripper clearance")


def _seen_through(points: np.ndarray, camera: CameraPose,
                  image: np.ndarray, margin: float) -> np.ndarray:
    """Points more than `margin` in front of the surface `camera` recorded.

    The camera's ray went on past such a point to a farther surface, so no
    solid part can be there. Each point is compared with the nearest of the
    four pixels around it, so a point between two samples of one surface
    raises no conflict; pixels that recorded nothing give no evidence.
    """
    h, w = image.shape
    col, row, rng = camera.project(points)
    c = np.floor(np.nan_to_num(col, nan=-1.0)).astype(np.int64)
    r = np.floor(np.nan_to_num(row, nan=-1.0)).astype(np.int64)
    ok = (c >= 0) & (c < w - 1) & (r >= 0) & (r < h - 1)
    c, r = c[ok], r[ok]
    nearest = np.full(len(points), np.inf)
    nearest[ok] = np.minimum.reduce([image[r, c], image[r, c + 1],
                                     image[r + 1, c], image[r + 1, c + 1]])
    return np.isfinite(nearest) & (rng < nearest - margin)


def _free_space_conflicts(obs: ObservationPair, seg: PartSegmentation,
                          margin: float):
    """Scorer of rigid motions by the free space they violate on `obs`.

    The score of a motion is the fraction of before mobile points it carries
    into space the after capture saw through, plus the fraction of after
    mobile points its inverse carries into space the before capture saw
    through. Revealed surfaces cost nothing: they map behind what the other
    capture saw. Only the cameras in `obs.capture_poses` count, since they
    took part in both captures; without them every motion scores 0.
    """
    src = obs.before.positions[seg.mobile_mask_before]
    dst = obs.after.positions[seg.mobile_mask_after]
    views = [(cam, range_image(obs.before, cam), range_image(obs.after, cam))
             for cam in obs.capture_poses]

    def conflicts(T: RigidTransform) -> float:
        fwd, back = T.apply(src), T.inverse().apply(dst)
        into_after = np.zeros(len(src), dtype=bool)
        into_before = np.zeros(len(dst), dtype=bool)
        for cam, before_image, after_image in views:
            into_after |= _seen_through(fwd, cam, after_image, margin)
            into_before |= _seen_through(back, cam, before_image, margin)
        return float(into_after.mean() + into_before.mean())

    return conflicts


def _better_supported(current: JointModel, new: JointModel,
                      obs: ObservationPair, seg: PartSegmentation,
                      margin: float) -> tuple[JointModel, bool, float, float]:
    """Joint to keep after re-estimating the accumulated pair `obs`.

    Scores the re-estimate as fitted and the current axis and pivot at the
    least conflicting opening of `_ANGLE_SCAN`; the re-estimate wins ties.
    When the current axis wins it comes back with the re-estimated opening,
    sign-matched to its axis, since measuring that opening is what the pull
    was for. Returns (joint, re-estimate kept, its score, current's score).
    """
    conflicts = _free_space_conflicts(obs, seg, margin)
    new_score = conflicts(new.motion())
    sign = 1.0 if float(np.dot(new.axis, current.axis)) >= 0.0 else -1.0
    current_score = min(
        conflicts(RigidTransform.from_rotation_about_line(
            current.axis, sign * (new.state + d), current.pivot))
        for d in _ANGLE_SCAN)
    if new_score <= current_score:
        return new, True, new_score, current_score
    return (dc_replace(current, state=sign * new.state), False, new_score,
            current_score)


def refine_loop(scene: SceneSpec, obs: ObservationPair, joint: JointModel,
                seg: PartSegmentation, infer_config: InferenceConfig,
                capture_config: CaptureConfig, interaction: InteractionConfig,
                rng: np.random.Generator | None) -> RefineResult:
    """Open a partially moved hinge further and re-estimate it.

    While the hinge's |state| is below `TARGET_STATE`, for at most
    `MAX_ITERS` iterations, each iteration plans with part_affordance, pulls
    with the `interaction` settings of the initial probes, recaptures the
    after cloud (noise drawn from `rng`), carries the contact through the
    pull with the motion of the step pair's estimate (one
    `infer_articulation` of the previous and the new after cloud), and
    re-infers against the ORIGINAL before cloud so the state tracks total
    opening. A re-estimate is rejected when it is not revolute, its |state|
    did not increase, or its axis swings more than `AXIS_CONSISTENCY_DEG`.
    Otherwise its opening is taken, and its axis and pivot too when
    free-space evidence supports them at least as well as the current ones
    (see `_better_supported`); the log entry records both scores. Interaction,
    capture, tracking or inference failures end the loop with the best
    estimate so far; prismatic inputs pass through unchanged.
    """
    log: list[dict] = []
    pulls: list[dict] = []
    iters = 0
    while (joint.kind == REVOLUTE and abs(joint.state) < TARGET_STATE
           and iters < MAX_ITERS):
        iters += 1
        entry: dict = {"iteration": iters}
        try:
            grasp, direction = part_affordance(joint, seg, obs.after, scene)
        except RefinementUnavailable as e:
            entry["status"] = f"unavailable: {e}"
            log.append(entry)
            break
        entry["hotspot"] = grasp.tolist()
        entry["direction"] = direction.tolist()
        try:
            contact = project_to_surface(scene, grasp)
            outcome, scene = interact(scene, contact, direction,
                                      interaction.pull.total)
        except (PreconditionError, ValidationError) as e:
            entry["status"] = f"interaction error: {e}"
            log.append(entry)
            break
        entry["delta_state"] = outcome.delta_state
        pulls.append({"success": bool(outcome.success),
                      "moved_joint": outcome.moved_joint,
                      "delta_state": float(outcome.delta_state)})
        if not outcome.success:
            entry["status"] = "pull did not move the part"
            log.append(entry)
            break
        try:
            after = capture_interaction_after(
                scene, obs.contact_before, list(obs.capture_poses),
                outcome.final_contact, capture_config, rng)
        except CaptureError as e:
            entry["status"] = f"capture error: {e}"
            log.append(entry)
            break
        # the original grasp point must be tracked through this pull before
        # the accumulated pair can be inferred: infer the step pair (whose
        # contact pair p* -> final IS valid) and advect with its motion
        try:
            step_obs = ObservationPair(obs.after, after, grasp,
                                       outcome.final_contact)
            step, _ = infer_articulation(step_obs, infer_config)
            contact_now = step.motion().apply(obs.contact_after)
        except (InferenceError, ValidationError) as e:
            entry["status"] = f"step tracking error: {e}"
            log.append(entry)
            break
        new_obs = dc_replace(obs, after=after, contact_after=contact_now)
        # the dead-reckoned contact carries the step-estimation error, so it
        # serves as initialization only; the accumulated rotation is large
        # enough to pin the fit by itself
        accum_config = dc_replace(infer_config, anchor_weight=0.02)
        try:
            new_joint, new_seg = infer_articulation(new_obs, accum_config)
        except InferenceError as e:
            entry["status"] = f"inference error: {e}"
            log.append(entry)
            break
        axis_swing = math.degrees(math.atan2(
            float(np.linalg.norm(np.cross(new_joint.axis, joint.axis))),
            abs(float(np.dot(new_joint.axis, joint.axis)))))
        if new_joint.kind != REVOLUTE:
            entry["status"] = f"rejected (re-estimate is {new_joint.kind})"
        elif abs(new_joint.state) <= abs(joint.state):
            entry["status"] = "rejected (no |state| increase)"
        elif axis_swing > AXIS_CONSISTENCY_DEG:
            entry["status"] = f"rejected (axis swing {axis_swing:.1f} deg)"
        else:
            joint, kept_new, new_score, current_score = _better_supported(
                joint, new_joint, new_obs, new_seg, FIT_EPSILON)
            seg, obs = new_seg, new_obs
            entry["status"] = ("accepted" if kept_new else
                               "accepted opening, kept axis (re-estimate "
                               "conflicts with observed free space)")
            entry["free_space_conflicts"] = {"re-estimate": new_score,
                                             "current axis": current_score}
            entry["state"] = joint.state
        log.append(entry)
    return RefineResult(joint, seg, tuple(log), scene, obs, tuple(pulls))
