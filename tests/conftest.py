import math

import numpy as np
import pytest
from hypothesis import settings

from scenekin.artinfer import ObservationPair
from scenekin.geom import RigidTransform, rotation_from_angle_axis
from scenekin.sensing import (
    CaptureConfig,
    capture_interaction_after,
    capture_object_views,
    object_view_poses,
)
from scenekin.simworld import (
    GenerationConfig,
    InteractionConfig,
    generate_scene,
    interact,
    surface_normal,
)

# Every run draws the same examples, and a failing one replays without a
# local example database.
settings.register_profile("scenekin", derandomize=True, database=None)
settings.load_profile("scenekin")

# A two-room pipeline config small enough to run every CLI stage in seconds.
TINY = {
    "seed": 5,
    "run": {"n_scenes": 2, "max_hotspots": 3},
    "generation": {"n_revolute": 1, "n_prismatic": 1, "n_distractor": 0},
    "capture": {"resolution": [50, 40]},
    "affordance": {"samples_per_scene": 60,
                   "train": {"epochs": 40}},
}


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def observe_interaction(scene, contact, direction, capture_config=None,
                        total=InteractionConfig().pull.total, rng=None):
    """Capture before views, pull `total` meters, capture after views.

    Returns (obs, outcome, scene_after). Raises on capture failure.
    """
    capture_config = capture_config or CaptureConfig(resolution=(100, 75))
    poses = object_view_poses(scene, contact, capture_config)
    before = capture_object_views(scene, contact, poses, capture_config, rng)
    outcome, scene_after = interact(scene, contact, direction, total)
    after = capture_interaction_after(scene_after, contact, poses,
                                      outcome.final_contact, capture_config,
                                      rng)
    obs = ObservationPair(before, after, contact, outcome.final_contact,
                          tuple(poses))
    return obs, outcome, scene_after


def weak_pull_direction(gt, normal):
    """Pull tilted away from the closed-door tangent so the swing stalls early."""
    sigma = 1.0 if gt.limits[1] > 0 else -1.0
    tilt = math.radians(48.0)
    R = rotation_from_angle_axis(np.array([0.0, 0.0, 1.0]), -sigma * tilt)
    return R @ normal


def open_door_slightly(seed, noise=0.0):
    """A one-door room pulled ajar by a weak pull, captured at 100x75 with
    `noise`: (scene after, obs, outcome, the door's joint, capture config,
    the capture rng)."""
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240101)
