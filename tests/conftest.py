import numpy as np
import pytest
from hypothesis import settings

from scenekin.artinfer import ObservationPair
from scenekin.geom import RigidTransform
from scenekin.sensing import (
    CaptureConfig,
    capture_interaction_after,
    capture_object_views,
    object_view_poses,
)
from scenekin.simworld import InteractionConfig, interact

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
    before = capture_object_views(scene, contact, capture_config, rng,
                                  poses=poses)
    outcome, scene_after = interact(scene, contact, direction, total)
    after = capture_interaction_after(scene_after, contact, poses,
                                      outcome.final_contact, capture_config,
                                      rng)
    obs = ObservationPair(before, after, contact, outcome.final_contact,
                          tuple(poses))
    return obs, outcome, scene_after


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240101)
