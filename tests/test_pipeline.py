import hashlib
import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scenekin import affordance, geom, pipeline, sensing
from scenekin.config import config_from_dict, derive_seed
from scenekin.sensing import object_view_poses
from scenekin.simworld import (
    GenerationConfig,
    GroundTruthJoint,
    InteractionConfig,
    PartGeometry,
    SceneSpec,
    canonical_pull_directions,
    generate_scene,
    interact,
    load_scene,
    probe,
)

from conftest import TINY

CONTACT = np.array([0.28, 0.0, 0.5])
PULL = InteractionConfig().pull.total


def narrow_drawer_scene():
    """Drawer front facing +x in a room 1 m deep along y.

    The side cameras of an object view leave the room, so only the front
    camera survives at the drawer."""
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
    return interact(scene, CONTACT, direction, PULL)


def test_probe_returns_the_pull_that_moved():
    """Of the three canonical pulls on the drawer's side face, backward has
    no leverage, left engages against the closed limit and moves nothing,
    and right opens the drawer: `probe` returns the right pull."""
    scene = narrow_drawer_scene()
    contact = np.array([0.27, -0.28, 0.5])
    normal = np.array([0.0, -1.0, 0.0])
    backward, left, right = canonical_pull_directions(normal)
    assert not interact(scene, contact, backward, PULL)[0].engaged
    stuck, _ = interact(scene, contact, left, PULL)
    assert stuck.engaged and not stuck.success and stuck.delta_state == 0.0

    outcome, after = probe(scene, contact, normal, InteractionConfig())
    assert outcome.success and outcome.moved_joint == 0
    assert outcome.delta_state == pytest.approx(0.3)
    assert after.joints[0][1].state == pytest.approx(0.3)


class TestRngContract:
    def test_no_draws_without_noise(self):
        scene = narrow_drawer_scene()
        outcome, after = _pull(scene, [0.0, 1.0, 0.0])
        config = config_from_dict({"capture": {"resolution": [24, 18]}})
        rng = np.random.default_rng(7)
        poses = object_view_poses(scene, CONTACT, config.capture)
        pipeline.observe_interaction(scene, CONTACT, outcome, after,
                                     config.capture, rng, poses=poses)
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


def test_run_models_one_entry_per_ok_inference(tmp_path):
    """On TINY (root seed 5) each scene's model holds one entry per ok
    inference, in hotspot order, each listing that inference's hotspot
    alone; the run manifest's `entries` counts them."""
    config = config_from_dict(TINY)
    pipeline.gen_scenes(config, tmp_path / "scenes")
    pipeline.collect(config, tmp_path / "scenes", tmp_path / "data")
    pipeline.train_model(config, tmp_path / "data", tmp_path / "model")
    manifest = pipeline.run(config, tmp_path / "scenes",
                            tmp_path / "model" / "model.json",
                            tmp_path / "run")
    inferred = 0
    for entry in manifest["scenes"]:
        doc, model = (json.loads((tmp_path / "run" / entry[k]).read_text())
                      for k in ("inference", "model"))
        ok = [i["hotspot_id"] for i in doc["inferences"]
              if i["status"] == "ok"]
        assert entry["entries"] == len(ok)
        assert [e["hotspots"] for e in model["entries"]] == [[h] for h in ok]
        inferred += len(ok)
    assert inferred > 0


def test_run_scene_captures_only_moving_pulls(moving_run, monkeypatch):
    config, scenes, model = moving_run
    calls = []
    real = pipeline.observe_interaction

    def spy(scene, contact, outcome, *args, **kwargs):
        calls.append(outcome.success)
        return real(scene, contact, outcome, *args, **kwargs)

    monkeypatch.setattr(pipeline, "observe_interaction", spy)
    config = replace(config, run=replace(config.run, refine=False))
    moved = 0
    for scene in scenes:
        record = pipeline.run_scene(scene, model, config)
        moved += sum(r["stage"] == "initial" and r["success"]
                     for r in record["interactions"])
    assert moved >= 1
    assert calls == [True] * moved


def test_each_probe_captures_from_its_own_stream(moving_run, monkeypatch):
    """Under noise, every observed pull starts from the fresh generator of
    its hotspot, whatever earlier hotspots and the scene ring drew."""
    config, scenes, model = moving_run
    config = replace(config, capture=replace(config.capture,
                                             noise_sigma=0.004))
    states = []
    real = pipeline.observe_interaction

    def spy(scene, contact, outcome, scene_after, cfg, rng, **kwargs):
        states.append(rng.bit_generator.state)
        return real(scene, contact, outcome, scene_after, cfg, rng, **kwargs)

    monkeypatch.setattr(pipeline, "observe_interaction", spy)
    expected = []
    for scene in scenes:
        record = pipeline.run_scene(scene, model, config)
        expected += [
            np.random.default_rng(derive_seed(
                config.seed, "probe", scene.seed, r["hotspot_id"]
            )).bit_generator.state
            for r in record["interactions"]
            if r["stage"] == "initial" and r["success"]]
    assert len(expected) >= 2
    assert states == expected


def test_traced_layers_run_on_the_main_thread(moving_run, monkeypatch):
    """Block pools run only numpy/SciPy leaf work: every function here that
    the benchmark tracer wraps in a span still runs on the main thread, where
    its single span stack lives."""
    config, scenes, model = moving_run
    threads = {}
    for module, name in ((sensing, "raycast_capture"),
                         (geom, "estimate_normals"),
                         (affordance, "extract_features")):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _real(*args, **kwargs)

        # every binding, as the tracer replaces them
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("scenekin")
                    and getattr(loaded, name, None) is real):
                monkeypatch.setattr(loaded, name, spy)
    for scene in scenes:
        pipeline.run_scene(scene, model, config)
    assert threads == {name: {threading.main_thread()} for name in
                       ("raycast_capture", "estimate_normals",
                        "extract_features")}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def survey_room():
    """The cloud of the room survey that `test_survey_bytes_are_pinned`
    pins: the ring capture of the default room of scene seed 1 at 64x48."""
    return sensing.capture_scene_cloud(
        generate_scene(1, GenerationConfig()),
        sensing.CaptureConfig(resolution=(64, 48)), None)


def test_survey_bytes_are_pinned(survey_room):
    """The room survey (ring capture, then features over the whole cloud,
    completed at every row) gives the bytes it gave before its
    byte-identical speedups: view-pyramid culling, the neighbourhood sums
    beside the normals, the bounded discontinuity query, per-row normals,
    the neighbourhood sums per block of centres and per-row discontinuity
    distances. Recorded with numpy
    2.4 and SciPy 1.17; another LAPACK build may round the eigenvalues
    differently."""
    cloud = survey_room
    feats = affordance.complete(
        affordance.extract_features(cloud, affordance.AffordanceConfig()),
        cloud, np.arange(len(cloud)))
    assert len(cloud) == 43901
    assert _sha256(cloud.positions, cloud.colors, cloud.point_ids) == (
        "00dfd2d1c5ece91c5dfce8c4fc7d11754040ca96c83674a0d29ccf6d80eb8a2a")
    assert _sha256(feats.values, feats.valid) == (
        "cf6efdf34f9b6ba9afeb5b879805bcd01d54f44e052f33c9bebcc5774fa36c2c")


def test_survey_features_stay_small(survey_room):
    """Features of the surveyed room allocate at most 300 bytes per point
    at their peak, traced by `tracemalloc` with the cloud's k-d tree built
    beforehand. Whole-cloud neighbour keys, a CSR matrix over every pair
    and an (N, 12) sums array read 464 B per point; sums per block of
    centres read about 235. SciPy's `query_pairs` buffer is invisible to
    `tracemalloc`, so the pair array itself is not counted."""
    cloud = survey_room
    cloud.tree
    tracemalloc.start()
    try:
        affordance.extract_features(cloud, affordance.AffordanceConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * len(cloud)


def test_collect_bytes_are_pinned():
    """Label collection on a `survey-dense` room (22 parts, 1200 samples)
    and a noisy ring capture give the bytes they gave before the simulator
    and the capture read the scene's stacked boxes."""
    dense = GenerationConfig(n_revolute=3, n_prismatic=3, n_distractor=5)
    scene = generate_scene(0, dense)
    cloud = sensing.capture_scene_cloud(
        scene, sensing.CaptureConfig(resolution=(64, 48)), None)
    labels = affordance.collect_labels(scene, cloud, 1200, 0,
                                       InteractionConfig())
    assert _sha256(labels.indices, np.array(labels.labels)) == (
        "5b05a79829bafc5efb0d1e71f8c4edba90630ac67e817aa2b5089705a768d802")
    noisy = sensing.capture_scene_cloud(
        generate_scene(1, GenerationConfig()),
        sensing.CaptureConfig(resolution=(64, 48), noise_sigma=0.002),
        np.random.default_rng(3))
    assert _sha256(noisy.positions, noisy.colors, noisy.point_ids) == (
        "290d98268cf54c0f4c104565a0ffdbc81301d47441e6057e9083ecaf0ffd99ff")


def _spy_normals(monkeypatch):
    """[(cloud, rows)] of every `geom.estimate_normals` call from here on."""
    calls = []
    real = geom.estimate_normals

    def spy(cloud, k, rows):
        calls.append((cloud, np.array(rows)))
        return real(cloud, k, rows)

    monkeypatch.setattr(geom, "estimate_normals", spy)
    return calls


def test_normals_are_estimated_only_at_rows_read(moving_run, tmp_path,
                                                 monkeypatch):
    """A run estimates the normals of fewer scene-cloud rows than the cloud
    holds, and training estimates none beyond its label rows."""
    config, scenes, model = moving_run
    captured = []
    real_capture = sensing.capture_scene_cloud

    def capture(*args):
        captured.append(real_capture(*args))
        return captured[-1]

    monkeypatch.setattr(sensing, "capture_scene_cloud", capture)
    calls = _spy_normals(monkeypatch)
    for scene in scenes:
        pipeline.run_scene(scene, model, config)
    assert len(captured) == len(scenes)
    for cloud in captured:
        rows = [r for c, r in calls if c is cloud]
        assert 0 < sum(map(len, rows)) < len(cloud)

    pipeline.gen_scenes(config, tmp_path / "scenes")
    manifest = pipeline.collect(config, tmp_path / "scenes", tmp_path / "data")
    calls.clear()
    pipeline.train_model(config, tmp_path / "data", tmp_path / "model")
    assert len(calls) == len(manifest["scenes"])
    for (cloud, rows), entry in zip(calls, manifest["scenes"]):
        saved = geom.load_cloud_binary(tmp_path / "data" / entry["cloud"])
        labels = affordance.labels_from_dict(pipeline._read_json(
            tmp_path / "data" / entry["labels"]))
        assert np.array_equal(cloud.positions, saved.positions)
        assert np.isin(rows, labels.indices).all()
