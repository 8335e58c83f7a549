import numpy as np
import pytest

from scenekin.errors import PreconditionError, ValidationError
from scenekin.geom import normalize
from scenekin.simworld import (
    GenerationConfig,
    GroundTruthJoint,
    InteractionConfig,
    PartGeometry,
    PullBudget,
    SceneSpec,
    boxes_interpenetrate,
    canonical_pull_directions,
    find_interpenetrations,
    generate_scene,
    gripper_clearance,
    interact,
    load_scene,
    nearest_part,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    surface_normal,
)

PULL = InteractionConfig().pull
MOTION_EPS = InteractionConfig().motion_epsilon


def make_drawer_scene(travel=0.3, a_min=0.5):
    """Single drawer front on a body, prismatic along +x."""
    parts = (
        PartGeometry([0.0, 0.0, 0.5], [0.25, 0.3, 0.5], np.eye(3),
                     [0.5, 0.5, 0.5], "static_body"),
        PartGeometry([0.27, 0.0, 0.5], [0.01, 0.28, 0.4], np.eye(3),
                     [0.8, 0.2, 0.2], "mobile_part"),
    )
    joint = GroundTruthJoint("prismatic", [1.0, 0.0, 0.0], None,
                             (0.0, travel), 0.0, a_min)
    return SceneSpec(parts, ((1, joint),),
                     (np.array([-5.0, -5.0, 0.0]), np.array([5.0, 5.0, 3.0])), 0)


def make_door_scene(width=1.2, rho_min=0.05, max_angle=2.0, hinge_left=True):
    """Single hinged panel in free space; hinge along +z at one panel edge."""
    panel = PartGeometry([0.0, 0.0, 1.0], [width / 2, 0.01, 0.5], np.eye(3),
                         [0.2, 0.4, 0.8], "mobile_part")
    pivot = np.array([-width / 2 if hinge_left else width / 2, 0.0, 1.0])
    limits = (0.0, max_angle) if hinge_left else (-max_angle, 0.0)
    joint = GroundTruthJoint("revolute", [0.0, 0.0, 1.0], pivot, limits,
                             0.0, rho_min)
    return SceneSpec((panel,), ((0, joint),),
                     (np.array([-5.0, -5.0, 0.0]), np.array([5.0, 5.0, 3.0])), 0)


class TestGeneration:
    def test_deterministic(self):
        config = GenerationConfig(n_revolute=2, n_prismatic=2, n_distractor=3)
        a = generate_scene(7, config)
        b = generate_scene(7, config)
        assert len(a.joints) == 4
        assert scene_to_dict(a, "x") == scene_to_dict(b, "x")

    def test_empty_config(self):
        scene = generate_scene(3, GenerationConfig(0, 0, 0))
        assert len(scene.joints) == 0
        kinds = {p.kind for p in scene.parts}
        assert kinds == {"wall", "floor"}

    def test_no_interpenetration_100_seeds(self):
        config = GenerationConfig()
        for seed in range(100):
            scene = generate_scene(seed, config)
            assert find_interpenetrations(scene) == []

    def test_sat_oracle_against_sampling(self):
        # random box pairs: SAT result must match a dense point-membership probe
        rng = np.random.default_rng(0)
        agree = 0
        for _ in range(60):
            def rand_box():
                from scipy.spatial.transform import Rotation
                R = Rotation.random(random_state=np.random.RandomState(
                    rng.integers(0, 2**31 - 1))).as_matrix()
                return PartGeometry(rng.uniform(-0.5, 0.5, 3),
                                    rng.uniform(0.1, 0.5, 3), R,
                                    [0.5, 0.5, 0.5], "distractor")
            a, b = rand_box(), rand_box()
            # sample points of b, test membership in a
            u = rng.uniform(-1, 1, size=(4000, 3)) * b.half_extents
            pts = u @ b.rotation.T + b.center
            local = (pts - a.center) @ a.rotation
            inside = np.all(np.abs(local) < a.half_extents - 1e-9, axis=1).any()
            sat = boxes_interpenetrate(a, b)
            if sat == inside:
                agree += 1
            elif inside and not sat:
                pytest.fail("SAT missed a true overlap")
        assert agree >= 55  # sampling may miss razor-thin overlaps


class TestClearance:
    def test_drawer_front_clear(self):
        scene = make_drawer_scene()
        point = np.array([0.28, 0.0, 0.5])
        assert gripper_clearance(scene, point, [1.0, 0.0, 0.0], 0.04)

    def test_narrow_gap_blocked(self):
        # two boxes with a 0.05 m gap; a 0.04 m gripper sphere cannot fit
        parts = (
            PartGeometry([0.0, 0.0, 0.5], [0.5, 0.5, 0.5], np.eye(3),
                         [0.5] * 3, "static_body"),
            PartGeometry([1.05, 0.0, 0.5], [0.5, 0.5, 0.5], np.eye(3),
                         [0.5] * 3, "static_body"),
        )
        scene = SceneSpec(parts, (), (np.array([-5.0, -5.0, 0.0]),
                                      np.array([5.0, 5.0, 3.0])), 0)
        point = np.array([0.5, 0.0, 0.5])  # on the gap face of the first box
        assert not gripper_clearance(scene, point, [1.0, 0.0, 0.0], 0.04)

    def test_empty_room_wall_face(self):
        scene = generate_scene(3, GenerationConfig(0, 0, 0))
        # point on the interior face of the x=0 wall
        point = np.array([0.0, scene.bounds[1][1] / 2, 1.0])
        assert gripper_clearance(scene, point, [1.0, 0.0, 0.0], 0.04)


class TestCanonicalPulls:
    def test_x_normal(self):
        back, left, right = canonical_pull_directions([1.0, 0.0, 0.0])
        got = {tuple(np.round(d, 9)) for d in (back, left, right)}
        assert got == {(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 0.0)}

    def test_vertical_normal_fallback(self):
        back, left, right = canonical_pull_directions([0.0, 0.0, 1.0])
        np.testing.assert_allclose(back, [0.0, 0.0, 1.0])
        assert abs(np.dot(left, [0.0, 0.0, 1.0])) < 1e-12
        np.testing.assert_allclose(left, -right)

    def test_orthonormal_over_random_normals(self):
        # backward is orthogonal to the lateral pair; left/right are opposite
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = normalize(rng.normal(size=3))
            back, left, right = canonical_pull_directions(n)
            for d in (back, left, right):
                assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)
            assert abs(np.dot(back, left)) < 1e-9
            assert abs(np.dot(back, right)) < 1e-9
            np.testing.assert_allclose(left, -right, atol=1e-12)


class TestInteract:
    def test_drawer_limit_clamped(self):
        scene = make_drawer_scene(travel=0.3)
        contact = np.array([0.28, 0.0, 0.5])
        outcome, new_scene = interact(scene, contact, [1.0, 0.0, 0.0],
                                      PullBudget(total=0.4), MOTION_EPS)
        assert outcome.success
        assert outcome.delta_state == pytest.approx(0.3, abs=1e-12)
        assert new_scene.joints[0][1].state == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(outcome.final_contact,
                                   contact + [0.3, 0.0, 0.0], atol=1e-9)

    def test_near_hinge_engagement_failure(self):
        scene = make_door_scene(rho_min=0.05)
        contact = np.array([-0.59, 0.01, 1.0])  # 0.01 m from the hinge line
        outcome, same = interact(scene, contact, [0.0, 1.0, 0.0], PULL,
                                 MOTION_EPS)
        assert not outcome.success
        assert outcome.delta_state == 0.0
        assert same is scene

    def test_alignment_stop_at_60_degrees(self):
        # pull along the initial tangent with a large budget: the stepping
        # model must stop when the tangent has rotated to acos(align_min)
        scene = make_door_scene(width=1.2, max_angle=3.0)
        contact = np.array([0.5, 0.011, 1.0])  # r ~ 1.1 m from hinge at x=-0.6
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0],
                              PullBudget(step=0.01, total=3.0, align_min=0.5),
                              MOTION_EPS)
        assert outcome.success
        assert np.degrees(outcome.delta_state) == pytest.approx(60.0, abs=2.0)

    def test_right_hinged_door_opens_negative(self):
        scene = make_door_scene(hinge_left=False)
        contact = np.array([-0.5, 0.011, 1.0])
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0],
                              PullBudget(total=0.5), MOTION_EPS)
        assert outcome.success
        assert outcome.delta_state < -0.1

    def test_static_part_fails(self):
        scene = make_drawer_scene()
        outcome, _ = interact(scene, [ -0.25, 0.0, 0.5], [-1.0, 0.0, 0.0],
                              PULL, MOTION_EPS)
        assert not outcome.success
        assert outcome.moved_joint is None

    def test_off_surface_rejected(self):
        scene = make_drawer_scene()
        with pytest.raises(PreconditionError):
            interact(scene, [2.0, 2.0, 2.0], [1.0, 0.0, 0.0], PULL, MOTION_EPS)

    def test_zero_direction_rejected(self):
        scene = make_drawer_scene()
        with pytest.raises(ValidationError):
            interact(scene, [0.28, 0.0, 0.5], [0.0, 0.0, 0.0], PULL,
                     MOTION_EPS)

    def test_lateral_pull_on_drawer_fails(self):
        scene = make_drawer_scene()
        outcome, _ = interact(scene, [0.28, 0.0, 0.5], [0.0, 1.0, 0.0], PULL,
                              MOTION_EPS)
        assert not outcome.success

    def test_only_touched_joint_moves(self):
        config = GenerationConfig(n_revolute=1, n_prismatic=1, n_distractor=0)
        scene = generate_scene(11, config)
        drawer_joint = next(j for j, (_, gt) in enumerate(scene.joints)
                            if gt.joint_type == "prismatic")
        part_idx = scene.joints[drawer_joint][0]
        panel = scene.part_world(part_idx)
        contact = panel.center + panel.face_normal_at(
            panel.center + panel.rotation[:, 1]) * panel.half_extents[1]
        normal = surface_normal(scene, contact)
        outcome, new_scene = interact(scene, contact, normal, PULL, MOTION_EPS)
        assert outcome.success and outcome.moved_joint == drawer_joint
        for j, (_, gt) in enumerate(new_scene.joints):
            if j != drawer_joint:
                assert gt.state == scene.joints[j][1].state

    def test_budget_monotonicity(self):
        scene = make_door_scene(width=1.4, max_angle=3.0)
        contact = np.array([0.6, 0.011, 1.0])
        prev = 0.0
        for total in (0.1, 0.2, 0.4, 0.8, 1.6):
            outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0],
                                  PullBudget(total=total), MOTION_EPS)
            assert abs(outcome.delta_state) >= prev - 1e-12
            prev = abs(outcome.delta_state)

    def test_radius_preserved_for_revolute(self):
        scene = make_door_scene()
        contact = np.array([0.4, 0.011, 1.3])
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0],
                              PullBudget(total=0.6), MOTION_EPS)
        assert outcome.success
        hinge = np.array([-0.6, 0.0, 0.0])
        axis = np.array([0.0, 0.0, 1.0])
        def radius(p):
            rel = p - hinge
            return np.linalg.norm(rel - np.dot(rel, axis) * axis)
        assert radius(outcome.final_contact) == pytest.approx(radius(contact),
                                                              abs=1e-9)

    def test_deterministic(self):
        scene = make_door_scene()
        contact = np.array([0.4, 0.011, 1.0])
        o1, s1 = interact(scene, contact, [0.0, 1.0, 0.0], PULL, MOTION_EPS)
        o2, s2 = interact(scene, contact, [0.0, 1.0, 0.0], PULL, MOTION_EPS)
        assert o1.success == o2.success
        assert o1.delta_state == o2.delta_state
        assert np.array_equal(o1.final_contact, o2.final_contact)
        assert s1.joints[0][1].state == s2.joints[0][1].state


class TestWorldParts:
    def test_built_once_per_scene(self):
        scene = make_door_scene()
        assert scene.world_parts() is scene.world_parts()

    def test_new_joint_state_moves_parts(self):
        scene = make_drawer_scene(travel=0.3)
        closed = scene.world_parts()
        outcome, pulled = interact(scene, [0.28, 0.0, 0.5], [1.0, 0.0, 0.0],
                                   PullBudget(total=0.4), MOTION_EPS)
        assert outcome.success
        np.testing.assert_allclose(pulled.world_parts()[1].center,
                                   closed[1].center + [0.3, 0.0, 0.0],
                                   atol=1e-12)
        half = scene.with_joint_state(0, 0.15)
        np.testing.assert_allclose(half.world_parts()[1].center,
                                   closed[1].center + [0.15, 0.0, 0.0],
                                   atol=1e-12)
        # the static body and the original scene stay where they were
        for moved in (pulled, half):
            np.testing.assert_array_equal(moved.world_parts()[0].center,
                                          closed[0].center)
        assert scene.world_parts() is closed
        np.testing.assert_array_equal(closed[1].center, [0.27, 0.0, 0.5])


class TestSceneSerialization:
    def test_round_trip(self):
        scene = generate_scene(21, GenerationConfig(1, 1, 1))
        doc = scene_to_dict(scene, "x")
        back = scene_from_dict(doc)
        assert scene_to_dict(back, "x") == doc

    def test_file_round_trip(self, tmp_path):
        scene = generate_scene(22, GenerationConfig(1, 1, 0))
        p = tmp_path / "scene.json"
        save_scene(scene, p, "x")
        back = load_scene(p)
        assert scene_to_dict(back, "x") == scene_to_dict(scene, "x")

    def test_nearest_part_identifies_panel(self):
        scene = make_drawer_scene()
        idx, dist = nearest_part(scene, [0.28, 0.0, 0.5])
        assert idx == 1
        assert dist < 1e-9
