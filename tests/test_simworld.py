import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenekin import sensing
from scenekin.artifacts import write_doc
from scenekin.errors import ArtifactError, PreconditionError, ValidationError
from scenekin.geom import (
    RigidTransform,
    as_vec3,
    normalize,
    rotation_from_angle_axis,
)
from scenekin.simworld import (
    BoxStack,
    GenerationConfig,
    GroundTruthJoint,
    InteractionConfig,
    PULL_ALIGN_MIN,
    PULL_STEP,
    PartGeometry,
    SceneSpec,
    boxes_interpenetrate,
    canonical_pull_directions,
    find_interpenetrations,
    generate_scene,
    gripper_clearance,
    interact,
    load_scene,
    nearest_part,
    scene_from_dict,
    scene_to_dict,
    surface_normal,
)

PULL = InteractionConfig().pull.total


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
            sat = bool(boxes_interpenetrate(BoxStack.of([a]),
                                            BoxStack.of([b]))[0])
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
        outcome, new_scene = interact(scene, contact, [1.0, 0.0, 0.0], 0.4)
        assert outcome.success
        assert outcome.delta_state == pytest.approx(0.3, abs=1e-12)
        assert new_scene.joints[0][1].state == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(outcome.final_contact,
                                   contact + [0.3, 0.0, 0.0], atol=1e-9)

    def test_near_hinge_engagement_failure(self):
        scene = make_door_scene(rho_min=0.05)
        contact = np.array([-0.59, 0.01, 1.0])  # 0.01 m from the hinge line
        outcome, same = interact(scene, contact, [0.0, 1.0, 0.0], PULL)
        assert not outcome.success
        assert outcome.delta_state == 0.0
        assert same is scene

    def test_alignment_stop_at_60_degrees(self):
        # pull along the initial tangent with a long pull: the stepping
        # model must stop when the tangent has rotated to
        # acos(PULL_ALIGN_MIN)
        scene = make_door_scene(width=1.2, max_angle=3.0)
        contact = np.array([0.5, 0.011, 1.0])  # r ~ 1.1 m from hinge at x=-0.6
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0], 3.0)
        assert outcome.success
        assert np.degrees(outcome.delta_state) == pytest.approx(60.0, abs=2.0)

    def test_right_hinged_door_opens_negative(self):
        scene = make_door_scene(hinge_left=False)
        contact = np.array([-0.5, 0.011, 1.0])
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0], 0.5)
        assert outcome.success
        assert outcome.delta_state < -0.1

    def test_static_part_fails(self):
        scene = make_drawer_scene()
        outcome, _ = interact(scene, [ -0.25, 0.0, 0.5], [-1.0, 0.0, 0.0],
                              PULL)
        assert not outcome.success
        assert outcome.moved_joint is None

    def test_off_surface_rejected(self):
        scene = make_drawer_scene()
        with pytest.raises(PreconditionError):
            interact(scene, [2.0, 2.0, 2.0], [1.0, 0.0, 0.0], PULL)

    def test_zero_direction_rejected(self):
        scene = make_drawer_scene()
        with pytest.raises(ValidationError):
            interact(scene, [0.28, 0.0, 0.5], [0.0, 0.0, 0.0], PULL)

    def test_lateral_pull_on_drawer_fails(self):
        scene = make_drawer_scene()
        outcome, _ = interact(scene, [0.28, 0.0, 0.5], [0.0, 1.0, 0.0], PULL)
        assert not outcome.success

    def test_only_touched_joint_moves(self):
        config = GenerationConfig(n_revolute=1, n_prismatic=1, n_distractor=0)
        scene = generate_scene(11, config)
        drawer_joint = next(j for j, (_, gt) in enumerate(scene.joints)
                            if gt.joint_type == "prismatic")
        part_idx = scene.joints[drawer_joint][0]
        panel = scene.part_world(part_idx)
        contact = panel.center + face_normal_ref(
            panel, panel.center + panel.rotation[:, 1]) * panel.half_extents[1]
        normal = surface_normal(scene, contact)
        outcome, new_scene = interact(scene, contact, normal, PULL)
        assert outcome.success and outcome.moved_joint == drawer_joint
        for j, (_, gt) in enumerate(new_scene.joints):
            if j != drawer_joint:
                assert gt.state == scene.joints[j][1].state

    def test_budget_monotonicity(self):
        scene = make_door_scene(width=1.4, max_angle=3.0)
        contact = np.array([0.6, 0.011, 1.0])
        prev = 0.0
        for total in (0.1, 0.2, 0.4, 0.8, 1.6):
            outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0], total)
            assert abs(outcome.delta_state) >= prev - 1e-12
            prev = abs(outcome.delta_state)

    def test_radius_preserved_for_revolute(self):
        scene = make_door_scene()
        contact = np.array([0.4, 0.011, 1.3])
        outcome, _ = interact(scene, contact, [0.0, 1.0, 0.0], 0.6)
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
        o1, s1 = interact(scene, contact, [0.0, 1.0, 0.0], PULL)
        o2, s2 = interact(scene, contact, [0.0, 1.0, 0.0], PULL)
        assert o1.success == o2.success
        assert o1.delta_state == o2.delta_state
        assert np.array_equal(o1.final_contact, o2.final_contact)
        assert s1.joints[0][1].state == s2.joints[0][1].state


def revolute_pull_ref(joint, contact, direction, total):
    """(final contact, delta) of an engaged revolute pull that moves the
    contact by `RigidTransform.from_rotation_about_line` at every step."""
    u, pivot = joint.axis, joint.pivot
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    axis_pt = pivot + np.dot(contact - pivot, u) * u
    r = float(np.linalg.norm(contact - axis_pt))
    sigma = 1.0 if float(np.dot(d, np.cross(u, (contact - axis_pt) / r))) \
        > 0 else -1.0
    lo, hi = joint.limits
    theta, p = joint.state, contact.copy()
    for _ in range(int(math.floor(total / PULL_STEP + 1e-9))):
        axis_pt = pivot + np.dot(p - pivot, u) * u
        r_vec = p - axis_pt
        align = float(np.dot(d, np.cross(u, r_vec / np.linalg.norm(r_vec))))
        if sigma * align <= PULL_ALIGN_MIN:
            break
        new_theta = min(max(theta + PULL_STEP * align / r, lo), hi)
        actual = new_theta - theta
        if abs(actual) < 1e-15:
            break
        p = RigidTransform.from_rotation_about_line(u, actual, pivot).apply(p)
        theta = new_theta
        if theta in (lo, hi):
            break
    return p, theta - joint.state


class TestRevoluteSteps:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.floats(-0.6, 0.6), st.floats(-0.5, 0.5),
           st.floats(0.01, 1.6), st.booleans(), st.floats(0.0, 1.0))
    def test_steps_match_rigid_transforms_bit_for_bit(
            self, data, x, z, total, hinge_left, opened):
        """An engaged pull on a door hinged about any axis ends at the
        contact and state change that rotating the contact with
        `RigidTransform` at every step gives, bit for bit."""
        rotation = data.draw(_ROTATION)
        limits = (0.0, 2.0) if hinge_left else (-2.0, 0.0)
        joint = GroundTruthJoint(
            "revolute", rotation[:, 2],
            rotation @ [-0.6 if hinge_left else 0.6, 0.0, 1.0], limits,
            limits[0] + opened * 2.0, 0.05)
        panel = PartGeometry(rotation @ [0.0, 0.0, 1.0], [0.6, 0.01, 0.5],
                             rotation, [0.2, 0.4, 0.8], "mobile_part")
        scene = SceneSpec((panel,), ((0, joint),), BIG_BOUNDS, 0)
        contact = scene.part_world(0).to_world(np.array([x, 0.01, z]))
        direction = data.draw(_UNIT)
        outcome, _ = interact(scene, contact, direction, total)
        if not outcome.engaged:
            return
        final, delta = revolute_pull_ref(joint, contact, direction, total)
        assert np.float64(outcome.delta_state).tobytes() == \
            np.float64(delta).tobytes()
        if outcome.success:
            assert outcome.final_contact.tobytes() == final.tobytes()


class TestWorldParts:
    def test_built_once_per_scene(self):
        scene = make_door_scene()
        assert scene.world_parts() is scene.world_parts()

    def test_new_joint_state_moves_parts(self):
        scene = make_drawer_scene(travel=0.3)
        closed = scene.world_parts()
        outcome, pulled = interact(scene, [0.28, 0.0, 0.5], [1.0, 0.0, 0.0],
                                   0.4)
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
        write_doc(scene_to_dict(scene, "x"), p)
        back = load_scene(p)
        assert scene_to_dict(back, "x") == scene_to_dict(scene, "x")

    def test_missing_key_is_a_named_error(self, tmp_path):
        # a cut-short file is a CLI case in test_cli.py
        doc = scene_to_dict(generate_scene(22, GenerationConfig(1, 1, 0)), "x")
        del doc["joints"]
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError,
                           match="is malformed: no key 'joints'"):
            load_scene(p)

    def test_nearest_part_identifies_panel(self):
        scene = make_drawer_scene()
        idx, dist = nearest_part(scene, [0.28, 0.0, 0.5])
        assert idx == 1
        assert dist < 1e-9


# Scalar references: the box-by-box arithmetic that the stacked queries of
# `BoxStack` replace, which they must match bit for bit.

def surface_distance_ref(box, point):
    d = np.abs(box.to_local(point)[0]) - box.half_extents
    outside = np.linalg.norm(np.maximum(d, 0.0))
    inside = abs(min(float(d.max()), 0.0))
    return float(outside + inside)


def solid_distance_ref(box, point):
    d = np.abs(box.to_local(point)[0]) - box.half_extents
    return float(np.linalg.norm(np.maximum(d, 0.0)))


def face_normal_ref(box, point):
    """Outward normal of the face of `box` nearest to `point`."""
    p = box.to_local(point)[0]
    gap = box.half_extents - np.abs(p)
    axis = int(np.argmin(gap))
    n_local = np.zeros(3)
    n_local[axis] = 1.0 if p[axis] >= 0 else -1.0
    return box.rotation @ n_local


def nearest_part_ref(scene, point):
    best_i, best_d = -1, math.inf
    for i, box in enumerate(scene.world_parts()):
        d = surface_distance_ref(box, as_vec3(point))
        if d < best_d - 1e-15:
            best_i, best_d = i, d
    return best_i, best_d


def gripper_clearance_ref(scene, point, normal, radius):
    center = as_vec3(point) + radius * normalize(normal)
    return not any(solid_distance_ref(box, center) < radius - 1e-9
                   for box in scene.world_parts())


def in_free_space_ref(scene, position):
    return not any(solid_distance_ref(box, position) < 0.05
                   for box in scene.world_parts())


def sat_ref(a, b):
    """Separating-axis test of two boxes, one axis at a time."""
    ra, rb = a.rotation, b.rotation
    t = b.center - a.center
    axes = [ra[:, i] for i in range(3)] + [rb[:, j] for j in range(3)]
    for i in range(3):
        for j in range(3):
            cr = np.cross(ra[:, i], rb[:, j])
            n = np.linalg.norm(cr)
            if n > 1e-12:
                axes.append(cr / n)
    for axis in axes:
        pa = float(np.abs(ra.T @ axis) @ a.half_extents)
        pb = float(np.abs(rb.T @ axis) @ b.half_extents)
        if abs(float(np.dot(t, axis))) >= pa + pb - 1e-9:
            return False
    return True


def interpenetrations_ref(scene):
    world = scene.world_parts()
    idxs = [i for i, p in enumerate(scene.parts)
            if p.kind not in ("wall", "floor")]
    return [(i, j) for k, i in enumerate(idxs) for j in idxs[k + 1:]
            if sat_ref(world[i], world[j])]


BIG_BOUNDS = (np.array([-10.0, -10.0, -10.0]), np.array([10.0, 10.0, 10.0]))
_COORD = st.floats(-2.0, 2.0)
_HALF = st.tuples(*[st.floats(0.05, 1.0)] * 3)
_UNIT = st.tuples(_COORD, _COORD, _COORD).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(normalize)
# axis-aligned, yawed (every pair shares the z edge direction) or general
_ROTATION = st.one_of(
    st.just(np.eye(3)),
    st.floats(-math.pi, math.pi).map(
        lambda a: rotation_from_angle_axis([0.0, 0.0, 1.0], a)),
    st.tuples(_UNIT, st.floats(-math.pi, math.pi)).map(
        lambda ua: rotation_from_angle_axis(*ua)))
_PART = st.builds(
    lambda c, h, R: PartGeometry(c, h, R, [0.5] * 3, "distractor"),
    st.tuples(_COORD, _COORD, _COORD), _HALF, _ROTATION)


@st.composite
def _room(draw):
    """Boxes where each new one is free, touches an earlier one face to
    face, is an earlier one moved by about 1e-15, or is an earlier one
    turned by an angle from 0 to 1e-3 (edge crosses of norm <= 1e-12 among
    them), moved a little or not at all."""
    parts = [draw(_PART)]
    for _ in range(draw(st.integers(0, 6))):
        base = parts[draw(st.integers(0, len(parts) - 1))]
        how = draw(st.sampled_from(["free", "touching", "turned",
                                    "nudged"]))
        if how == "free":
            parts.append(draw(_PART))
            continue
        half = np.array(draw(_HALF))
        rotation = base.rotation
        if how == "touching":
            axis = draw(st.integers(0, 2))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            shift = (base.half_extents[axis] + half[axis]) * sign
            center = base.center + shift * rotation[:, axis]
        elif how == "nudged":
            # the same box moved by about 1e-15: distances to it and to
            # the earlier one differ by about the nearest-part tie margin
            half = base.half_extents
            center = base.center + draw(st.sampled_from(
                [-4e-15, -1e-15, 5e-16, 1e-15, 2e-15])) \
                * rotation[:, draw(st.integers(0, 2))]
        else:
            angle = draw(st.sampled_from([0.0, 1e-14, 5e-13, 1e-12, 2e-12,
                                          1e-9, 1e-3]))
            rotation = rotation_from_angle_axis(draw(_UNIT), angle) @ rotation
            center = base.center + draw(st.sampled_from([0.0, 0.5, 2.0])) \
                * rotation[:, draw(st.integers(0, 2))]
        parts.append(PartGeometry(center, half, rotation, [0.5] * 3,
                                  "distractor"))
    if draw(st.booleans()):
        parts.append(parts[0])   # exact ties
    return SceneSpec(tuple(parts), (), BIG_BOUNDS, 0)


@st.composite
def _probe_point(draw, scene):
    """A free point, or one on a face, an edge or a corner of a box of
    `scene`."""
    if draw(st.booleans()):
        return np.array(draw(st.tuples(_COORD, _COORD, _COORD)))
    box = scene.parts[draw(st.integers(0, len(scene.parts) - 1))]
    local = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))) \
        * box.half_extents
    for axis in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                              unique=True)):
        local[axis] = draw(st.sampled_from([-1.0, 1.0])) \
            * box.half_extents[axis]
    return box.to_world(local)


class TestStackedQueries:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_point_queries_match_box_by_box_bit_for_bit(self, data):
        scene = data.draw(_room())
        point = data.draw(_probe_point(scene))
        normal = data.draw(_UNIT)
        radius = data.draw(st.sampled_from([0.01, 0.04, 0.3]))
        i, d = nearest_part(scene, point)
        i_ref, d_ref = nearest_part_ref(scene, point)
        assert i == i_ref and np.float64(d).tobytes() == \
            np.float64(d_ref).tobytes()
        assert gripper_clearance(scene, point, normal, radius) == \
            gripper_clearance_ref(scene, point, normal, radius)
        assert sensing._in_free_space(scene, point) == \
            in_free_space_ref(scene, point)
        world = scene.world_parts()
        assert scene.boxes.surface_distance(point).tobytes() == np.array(
            [surface_distance_ref(b, point) for b in world]).tobytes()
        assert scene.boxes.solid_distance(point).tobytes() == np.array(
            [solid_distance_ref(b, point) for b in world]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batched_queries_match_box_by_box_bit_for_bit(self, data):
        """Nearest part, distance, face normal and clearance of many points
        at once equal the box-by-box references of each point alone."""
        scene = data.draw(_room())
        points = np.array(data.draw(st.lists(_probe_point(scene),
                                             min_size=1, max_size=8)))
        radius = data.draw(st.sampled_from([0.01, 0.04, 0.3]))
        parts, dists = scene.boxes.nearest(points)
        ref = [nearest_part_ref(scene, p) for p in points]
        assert parts.tolist() == [i for i, _ in ref]
        assert dists.tobytes() == np.array([d for _, d in ref]).tobytes()
        normals = scene.boxes.face_normals(points, parts)
        world = scene.world_parts()
        assert normals.tobytes() == np.array(
            [face_normal_ref(world[i], p) for (i, _), p in zip(ref, points)]
        ).tobytes()
        assert scene.boxes.clear(points, normals, radius).tolist() == [
            gripper_clearance_ref(scene, p, n, radius)
            for p, n in zip(points, normals)]
        assert surface_normal(scene, points[0]).tobytes() == normals[0].tobytes()

    def test_near_tie_goes_to_the_lower_index(self):
        """A box nearer by less than 1e-15 does not replace an earlier
        one; one nearer by more does, even after such a tie."""
        def walls(*xs):
            # unit-thick slabs whose faces lie at x - 0.5 from the origin
            return SceneSpec(tuple(
                PartGeometry([x, 0.0, 0.0], [0.5, 9.0, 9.0], np.eye(3),
                             [0.5] * 3, "wall") for x in xs), (), BIG_BOUNDS, 0)
        origin = np.zeros((1, 3))
        for xs, expect in ((1.5, 0), ((1.5, 1.5 - 2**-50), 0),
                           ((1.5, 1.5 - 2**-50, 1.5 - 2**-49), 2),
                           ((1.5 - 2**-50, 1.5), 0), ((1.5, 1.5), 0),
                           ((2.0, 1.5, 1.5 - 2**-50), 1)):
            scene = walls(*np.atleast_1d(xs))
            parts, dists = scene.boxes.nearest(origin)
            assert (int(parts[0]), float(dists[0])) == \
                nearest_part_ref(scene, origin[0])
            assert parts[0] == expect

    @settings(max_examples=200, deadline=None)
    @given(_room())
    # a box turned by 5e-13 rad: its three edge crosses with the near-parallel
    # edges of the first are skipped, the other six separate nothing
    @example(SceneSpec((
        PartGeometry([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], np.eye(3), [0.5] * 3,
                     "distractor"),
        PartGeometry([0.9, 0.0, 0.0], [0.5, 0.5, 0.5],
                     rotation_from_angle_axis([0.0, 0.0, 1.0], 5e-13),
                     [0.5] * 3, "distractor")), (), BIG_BOUNDS, 0))
    def test_interpenetrations_match_pairwise_sat(self, scene):
        assert find_interpenetrations(scene) == interpenetrations_ref(scene)

    def test_no_parts(self):
        scene = SceneSpec((), (), BIG_BOUNDS, 0)
        assert nearest_part(scene, [0.0, 0.0, 0.0]) == (-1, math.inf)
        assert gripper_clearance(scene, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.04)
        assert find_interpenetrations(scene) == []

    def test_part_world_is_the_cached_pose(self):
        scene = make_drawer_scene().with_joint_state(0, 0.2)
        world = scene.world_parts()
        assert all(scene.part_world(i) is world[i] for i in range(2))
        assert scene.boxes.centers.tobytes() == np.array(
            [b.center for b in world]).tobytes()
        np.testing.assert_allclose(world[1].center, [0.47, 0.0, 0.5])


_DENSE = GenerationConfig(n_revolute=3, n_prismatic=3, n_distractor=5)


def test_interpenetrations_are_pinned():
    """`find_interpenetrations` gives the pairs it gave box pair by box pair:
    none on 20 dense rooms, and the recorded ones on two built scenes."""
    for seed in range(20):
        assert find_interpenetrations(generate_scene(seed, _DENSE)) == []
    room = generate_scene(0, _DENSE)
    body = room.parts[5]   # the first door carcase; its door is part 6
    crate = PartGeometry(body.center + [0.0, 0.0, 0.2], [0.3, 0.4, 0.25],
                         rotation_from_angle_axis([0.0, 0.0, 1.0], 0.3),
                         [0.5] * 3, "distractor")
    crowded = SceneSpec(room.parts + (crate,), room.joints, room.bounds, 0)
    assert find_interpenetrations(crowded) == [(5, 22), (6, 22), (7, 22),
                                               (8, 22)]
    # overlapping, touching face to face, yawed into a corner; the wall
    # through the first box is not tested
    unit = [0.5, 0.5, 0.5]
    row = SceneSpec((
        PartGeometry([0.0, 0.0, 0.5], unit, np.eye(3), unit, "static_body"),
        PartGeometry([0.9, 0.0, 0.5], unit, np.eye(3), unit, "distractor"),
        PartGeometry([1.9, 0.0, 0.5], unit, np.eye(3), unit, "distractor"),
        PartGeometry([2.7, 0.6, 0.5], unit,
                     rotation_from_angle_axis([0.0, 0.0, 1.0], 0.7), unit,
                     "distractor"),
        PartGeometry([0.0, 0.0, 1.5], unit, np.eye(3), unit, "distractor"),
        PartGeometry([0.0, 0.0, 0.4], [1.0, 1.0, 0.05], np.eye(3), unit,
                     "wall"),
    ), (), BIG_BOUNDS, 0)
    assert find_interpenetrations(row) == [(0, 1), (2, 3)]
