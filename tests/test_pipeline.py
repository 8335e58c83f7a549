import numpy as np
import pytest

from scenekin import pipeline
from scenekin.config import config_from_dict
from scenekin.errors import CaptureError
from scenekin.sensing import object_view_poses
from scenekin.simworld import (
    GroundTruthJoint,
    InteractionOutcome,
    PartGeometry,
    SceneSpec,
    interact,
    load_scene,
)

from conftest import TINY

CONTACT = np.array([0.28, 0.0, 0.5])


def narrow_drawer_scene():
    """Drawer front facing +x in a room 1 m deep along y.

    The side cameras of an object view leave the room, so only the front
    camera survives at the drawer, and none survives 1 m short of the +x
    wall."""
    parts = (
        PartGeometry([0.0, 0.0, 0.5], [0.25, 0.3, 0.5], np.eye(3),
                     [0.5, 0.5, 0.5], "static_body"),
        PartGeometry([0.27, 0.0, 0.5], [0.01, 0.28, 0.4], np.eye(3),
                     [0.8, 0.2, 0.2], "mobile_part"),
    )
    joint = GroundTruthJoint("prismatic", [1.0, 0.0, 0.0], None,
                             (0.0, 0.3), 0.0, 0.5)
    return SceneSpec(parts, ((1, joint),),
                     (np.array([-5.0, -0.5, 0.0]), np.array([5.0, 0.5, 3.0])),
                     0)


def _pull(scene, direction):
    return interact(scene, CONTACT, direction)


def _fresh_cameras_leave_room(scene):
    # as if the pull had carried the contact 1 m short of the +x wall
    outcome = InteractionOutcome(True, 0, 0.3, np.array([4.5, 0.0, 0.5]), 30,
                                 True)
    return outcome, scene.with_joint_state(0, 0.3)


class TestRngContract:
    @pytest.mark.parametrize("case", ["moved", "not moved", "no fresh views"])
    def test_skip_draws_what_the_captures_draw(self, case):
        scene = narrow_drawer_scene()
        config = config_from_dict({"capture": {"resolution": [24, 18],
                                               "noise_sigma": 0.004}})
        if case == "moved":
            outcome, after = _pull(scene, [1.0, 0.0, 0.0])
            assert outcome.success
        elif case == "not moved":
            outcome, after = _pull(scene, [0.0, 1.0, 0.0])
            assert not outcome.success
        else:
            outcome, after = _fresh_cameras_leave_room(scene)
            with pytest.raises(CaptureError):
                object_view_poses(after, outcome.final_contact,
                                  config.capture)
        poses = object_view_poses(scene, CONTACT, config.capture)
        assert len(poses) == 1
        captured, skipped = (np.random.default_rng(7) for _ in range(2))
        obs = pipeline.observe_interaction(scene, CONTACT, outcome, after,
                                           config, captured, poses=poses)
        pipeline.skip_observation(outcome, after, config, skipped, poses)
        assert len(obs.before) > 0 and len(obs.after) > 0
        assert (skipped.bit_generator.state
                == captured.bit_generator.state)
        assert (skipped.bit_generator.state
                != np.random.default_rng(7).bit_generator.state)

    def test_no_draws_without_noise(self):
        scene = narrow_drawer_scene()
        outcome, after = _pull(scene, [0.0, 1.0, 0.0])
        config = config_from_dict({"capture": {"resolution": [24, 18]}})
        rng = np.random.default_rng(7)
        poses = object_view_poses(scene, CONTACT, config.capture)
        pipeline.observe_interaction(scene, CONTACT, outcome, after, config,
                                     rng, poses=poses)
        pipeline.skip_observation(outcome, after, config, rng, poses)
        assert (rng.bit_generator.state
                == np.random.default_rng(7).bit_generator.state)


@pytest.fixture(scope="module")
def moving_run(tmp_path_factory):
    """Scenes and model of the TINY config at a seed whose pulls move parts."""
    base = tmp_path_factory.mktemp("moving")
    config = config_from_dict({**TINY, "seed": 8})
    manifest = pipeline.gen_scenes(config, base / "scenes")
    pipeline.collect(config, base / "scenes", base / "data")
    pipeline.train_model(config, base / "data", base / "model")
    scenes = [load_scene(base / "scenes" / e["file"])
              for e in manifest["scenes"]]
    model = pipeline.affordance.load_model(base / "model" / "model.json")
    return config, scenes, model


def test_run_scene_captures_only_moving_pulls(moving_run, monkeypatch):
    config, scenes, model = moving_run
    calls = []
    real = pipeline.observe_interaction

    def spy(scene, contact, outcome, *args, **kwargs):
        calls.append(outcome.success)
        return real(scene, contact, outcome, *args, **kwargs)

    monkeypatch.setattr(pipeline, "observe_interaction", spy)
    moved = 0
    for scene in scenes:
        record = pipeline.run_scene(scene, model, config, refine_enabled=False)
        moved += sum(r["stage"] == "initial" and r["success"]
                     for r in record["interactions"])
    assert moved >= 1
    assert calls == [True] * moved
