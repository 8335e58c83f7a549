import hashlib
import json
import math

import numpy as np
import pytest

from scenekin.artinfer import (
    InferenceConfig,
    JointModel,
    PartSegmentation,
    infer_articulation,
)
from scenekin.errors import RefinementUnavailable, ValidationError
from scenekin.geom import PointCloud, RigidTransform, rotation_from_angle_axis
from scenekin.refine import (
    _free_space_conflicts,
    part_affordance,
    refine_loop,
)
from scenekin.sensing import (
    MAX_RANGE,
    CameraPose,
    CaptureConfig,
    raycast_capture,
)
from scenekin.simworld import (
    GenerationConfig,
    InteractionConfig,
    generate_scene,
    surface_normal,
)

from conftest import identity, observe_interaction

BIG_BOUNDS = (np.array([-5.0, -5.0, 0.0]), np.array([5.0, 5.0, 3.0]))
INTERACTION = InteractionConfig()
CAPTURE = CaptureConfig()


def free_space_scene():
    from scenekin.simworld import PartGeometry, SceneSpec

    panel = PartGeometry([0.3, 0.0, 1.0], [0.3, 0.01, 0.5], np.eye(3),
                         [0.5, 0.5, 0.5], "mobile_part")
    from scenekin.simworld import GroundTruthJoint
    joint = GroundTruthJoint("revolute", [0, 0, 1], [0.0, 0.0, 0.0],
                             (0.0, 2.0), 0.0, 0.05)
    return SceneSpec((panel,), ((0, joint),), BIG_BOUNDS, 0)


class TestPartAffordance:
    def test_farthest_point_matches_brute_force(self):
        rng = np.random.default_rng(0)
        scene = free_space_scene()
        joint = JointModel("revolute", [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.5)
        pts = np.column_stack([rng.uniform(0.05, 0.6, 60),
                               np.full(60, 0.011),
                               rng.uniform(0.6, 1.4, 60)])
        cloud = PointCloud(pts)
        seg = PartSegmentation(np.ones(60, bool), np.ones(60, bool))
        plan = part_affordance(joint, seg, cloud, scene)
        dists = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        assert np.allclose(plan.hotspot, pts[np.argmax(dists)])

    def test_moment_direction_by_hand(self):
        # axis +z through origin, lever (1, 0, 0), prior state > 0 -> (0, 1, 0)
        scene = free_space_scene()
        joint = JointModel("revolute", [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.4)
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        # place a panel surface near the point so clearance sees a normal
        seg = PartSegmentation(np.array([True]), np.array([True]))
        plan = part_affordance(joint, seg, cloud, scene)
        lever = plan.hotspot - np.array([0.0, 0.0, plan.hotspot[2]])
        d = plan.force_direction
        np.testing.assert_allclose(d, [0.0, 1.0, 0.0], atol=1e-9)

    def test_negative_state_flips_direction(self):
        scene = free_space_scene()
        joint = JointModel("revolute", [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], -0.4)
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        seg = PartSegmentation(np.array([True]), np.array([True]))
        plan = part_affordance(joint, seg, cloud, scene)
        np.testing.assert_allclose(plan.force_direction, [0.0, -1.0, 0.0],
                                   atol=1e-9)

    def test_orthogonality_invariants(self):
        rng = np.random.default_rng(7)
        scene = free_space_scene()
        for _ in range(25):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pivot = rng.uniform(-1, 1, size=3)
            joint = JointModel("revolute", axis, pivot,
                               float(rng.uniform(0.1, 1.0)))
            pts = rng.uniform(-1, 1, size=(20, 3)) + np.array([2.0, 0.0, 1.0])
            cloud = PointCloud(pts)
            seg = PartSegmentation(np.ones(20, bool), np.ones(20, bool))
            plan = part_affordance(joint, seg, cloud, scene)
            r = plan.hotspot - (joint.pivot + np.dot(plan.hotspot - joint.pivot,
                                                     joint.axis) * joint.axis)
            assert abs(np.dot(plan.force_direction, joint.axis)) < 1e-9
            assert abs(np.dot(plan.force_direction, r)) < 1e-9
            assert np.linalg.norm(plan.force_direction) == pytest.approx(1.0)

    def test_prismatic_rejected(self):
        scene = free_space_scene()
        joint = JointModel("prismatic", [1.0, 0.0, 0.0], None, 0.2)
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        seg = PartSegmentation(np.array([True]), np.array([True]))
        with pytest.raises(ValidationError):
            part_affordance(joint, seg, cloud, scene)

    def test_no_mobile_point_raises(self):
        scene = free_space_scene()
        joint = JointModel("revolute", [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 0.4)
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        seg = PartSegmentation(np.array([False]), np.array([False]))
        with pytest.raises(RefinementUnavailable):
            part_affordance(joint, seg, cloud, scene)


class TestFreeSpaceEvidence:
    def panel_pair(self, revealed=False):
        # one camera looks along -y at the panel's front face; `revealed`
        # adds to the after cloud a surface 2 cm behind it, as a pull that
        # shows the back of a part would
        from scenekin.artinfer import ObservationPair
        cam = CameraPose([0.3, 1.0, 1.0], [0.3, 0.0, 1.0], vfov_deg=60.0,
                         resolution=(40, 30))
        before = raycast_capture(free_space_scene(), cam, MAX_RANGE,
                                 CAPTURE.noise_sigma, None)
        after = before
        if revealed:
            after = PointCloud(np.vstack([before.positions,
                                          before.positions - [0, 0.02, 0]]))
        obs = ObservationPair(before, after, [0.3, 0.01, 1.0],
                              [0.3, 0.01, 1.0], (cam,))
        seg = PartSegmentation(np.ones(len(before), bool),
                               np.ones(len(after), bool))
        return obs, seg

    def test_motion_into_seen_through_space_conflicts(self):
        obs, seg = self.panel_pair()
        conflicts = _free_space_conflicts(obs, seg, 0.01)
        assert conflicts(identity()) == 0.0
        # toward the camera the before points land where the after capture
        # saw through; away from it the after points, mapped back, land where
        # the before capture saw through
        for dy in (0.02, -0.02):
            score = conflicts(RigidTransform.from_translation([0, dy, 0]))
            assert 0.9 < score <= 1.0

    def test_revealed_surface_costs_nothing(self):
        obs, seg = self.panel_pair(revealed=True)
        conflicts = _free_space_conflicts(obs, seg, 0.01)
        assert conflicts(identity()) == 0.0

    def test_no_cameras_no_evidence(self):
        from dataclasses import replace
        obs, seg = self.panel_pair()
        conflicts = _free_space_conflicts(replace(obs, capture_poses=()),
                                          seg, 0.01)
        assert conflicts(RigidTransform.from_translation([0, 0.02, 0])) == 0.0


def weak_pull_direction(gt, normal):
    """Pull tilted away from the closed-door tangent so the swing stalls early."""
    sigma = 1.0 if gt.limits[1] > 0 else -1.0
    tilt = math.radians(48.0)
    R = rotation_from_angle_axis(np.array([0.0, 0.0, 1.0]), -sigma * tilt)
    return R @ normal


def open_door_slightly(seed, noise=0.0):
    scene = generate_scene(seed, GenerationConfig(1, 0, 0))
    part_idx, gt = scene.joints[0]
    panel = scene.world_parts()[part_idx]
    along = panel.rotation[:, 0]
    hs = np.sign(np.dot(gt.pivot - panel.center, along))
    contact = panel.center + panel.rotation[:, 1] * panel.half_extents[1] \
        - hs * along * panel.half_extents[0] * 0.6
    normal = surface_normal(scene, contact)
    direction = weak_pull_direction(gt, normal)
    cap = CaptureConfig(resolution=(100, 75), noise_sigma=noise)
    rng = np.random.default_rng(900 + seed)
    obs, outcome, scene2 = observe_interaction(
        scene, contact, direction, capture_config=cap,
        total=1.0, rng=rng)
    return scene2, obs, outcome, gt, cap, rng


class TestRefineLoop:
    def test_guard_case_already_open(self):
        scene = free_space_scene()
        joint = JointModel("revolute", [0, 0, 1], [0, 0, 0],
                           math.radians(45.0))
        seg = PartSegmentation(np.array([True]), np.array([True]))
        from scenekin.artinfer import ObservationPair
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        obs = ObservationPair(cloud, cloud, [1, 0, 1], [1, 0, 1])
        result = refine_loop(scene, obs, joint, seg, InferenceConfig(),
                             CAPTURE, INTERACTION, None)
        assert result.joint is joint
        assert result.log == ()

    def test_prismatic_passthrough(self):
        scene = free_space_scene()
        joint = JointModel("prismatic", [1.0, 0.0, 0.0], None, 0.05)
        seg = PartSegmentation(np.array([True]), np.array([True]))
        from scenekin.artinfer import ObservationPair
        cloud = PointCloud(np.array([[1.0, 0.0, 1.0]]))
        obs = ObservationPair(cloud, cloud, [1, 0, 1], [1, 0, 1])
        result = refine_loop(scene, obs, joint, seg, InferenceConfig(),
                             CAPTURE, INTERACTION, None)
        assert result.joint is joint

    def test_ajar_door_reopened_past_target(self):
        # sensing noise at a level where the opening angle visibly
        # conditions the estimate, so refinement can show its effect
        scene2, obs, outcome, gt, cap, rng = open_door_slightly(31,
                                                                noise=0.004)
        opened = math.degrees(abs(outcome.delta_state))
        assert 5.0 < opened < 30.0
        infer_cfg = InferenceConfig(mode="icp", epsilon=0.015)
        joint, seg = infer_articulation(obs, infer_cfg)
        assert joint.kind == "revolute"
        err_before = axis_err_deg(joint.axis, gt.axis)
        result = refine_loop(scene2, obs, joint, seg, infer_cfg, cap,
                             INTERACTION, rng=rng)
        assert abs(result.joint.state) >= math.radians(30.0)
        err_after = axis_err_deg(result.joint.axis, gt.axis)
        assert err_after <= err_before + 1e-9
        # monotone acceptance
        assert abs(result.joint.state) >= abs(joint.state)
        # one interaction record per pull, adding up to the door's opening
        j = outcome.moved_joint
        assert len(result.pulls) == sum("delta_state" in e for e in result.log)
        assert any(p["success"] for p in result.pulls)
        assert all(p["moved_joint"] in (None, j) for p in result.pulls)
        assert sum(p["delta_state"] for p in result.pulls) == pytest.approx(
            result.scene.joints[j][1].state - scene2.joints[j][1].state)
        # the bytes of both estimates and of the log, recorded while
        # observation pairs still carried their own contact heat maps
        assert (_estimate_digest(joint, seg),
                _estimate_digest(result.joint, result.segmentation),
                hashlib.sha256(json.dumps(result.log, sort_keys=True).encode()
                               ).hexdigest()[:16]) == (
            "c8967f309254f995", "a158dea6c6a2db71", "909ed38da3c96916")

    def test_step_tracking_failure_ends_loop(self):
        # at 4 mm noise the ICP tracking this seed's refinement pull gives
        # up; the loop must log it and keep the first estimate, not raise
        scene2, obs, outcome, gt, cap, rng = open_door_slightly(9,
                                                                noise=0.004)
        infer_cfg = InferenceConfig(mode="icp", epsilon=0.015)
        joint, seg = infer_articulation(obs, infer_cfg)
        result = refine_loop(scene2, obs, joint, seg, infer_cfg, cap,
                             INTERACTION, rng=rng)
        assert result.log[-1]["status"].startswith("step tracking error: ")
        assert result.joint is joint
        assert result.observation is obs

    def test_refinement_log_records_iterations(self):
        scene2, obs, outcome, gt, cap, rng = open_door_slightly(32,
                                                                noise=0.0)
        infer_cfg = InferenceConfig(mode="oracle")
        joint, seg = infer_articulation(obs, infer_cfg)
        result = refine_loop(scene2, obs, joint, seg, infer_cfg, cap,
                             INTERACTION, rng=rng)
        assert len(result.log) >= 1
        assert result.log[0]["iteration"] == 1
        assert "hotspot" in result.log[0]


def _estimate_digest(joint, seg) -> str:
    """sha256 of a joint estimate's masks, axis, pivot, state and pitch."""
    h = hashlib.sha256()
    for a in (seg.mobile_mask_before, seg.mobile_mask_after, joint.axis,
              joint.pivot, [joint.state, joint.pitch]):
        h.update(np.asarray(a).tobytes())
    return h.hexdigest()[:16]


def axis_err_deg(u, v):
    cross = np.linalg.norm(np.cross(u, v))
    return math.degrees(math.atan2(cross, abs(float(np.dot(u, v)))))
