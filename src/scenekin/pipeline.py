"""End-to-end orchestration: scene generation, label collection, training,
the probe-observe-infer-refine loop, and evaluation.

Every command is a pure function of (config, input files, seed): child seeds
fan out from the global seed via config.derive_seed, artifacts embed the
config hash, and every JSON artifact is written and read through
`artifacts`, so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import affordance, evalkit, hotspot, scenemodel, sensing, simworld
from .artifacts import read_doc, write_doc
from .artinfer import REVOLUTE, ObservationPair, infer_articulation
from .config import PipelineConfig, config_hash, derive_seed
from .errors import (
    ArtifactError,
    CaptureError,
    InferenceError,
    PreconditionError,
    SceneGenerationError,
    SceneKinError,
    ValidationError,
)
from .geom import load_cloud_binary, save_cloud_binary
from .refine import refine_loop
from .simworld import SceneSpec, project_to_surface


# the keys that readers take from each scene entry of a manifest, by version
_ENTRY_KEYS = {"scene_manifest.v1": ("file", "seed"),
               "collect_manifest.v1": ("cloud", "labels"),
               "run_manifest.v1": ("inference",)}


def _read_manifest(directory, version: str) -> dict:
    """The manifest.json of a stage's output directory: one of another
    `version`, without `scenes`, or with a scene entry that is not a JSON
    object or lacks a key of `_ENTRY_KEYS`, is an ArtifactError."""
    def parse(manifest):
        for entry in manifest["scenes"]:
            if not isinstance(entry, dict):
                raise ValueError("a scene entry is not a JSON object")
            missing = [k for k in _ENTRY_KEYS[version] if k not in entry]
            # a collect entry names its files only when its status is "ok"
            if missing and entry.get("status", "ok") == "ok":
                raise ValueError(f"a scene entry has no key {missing[0]!r}")
        return manifest

    return read_doc(os.path.join(directory, "manifest.json"),
                    f"manifest.json in {directory}", version, parse)


def observe_interaction(scene: SceneSpec, contact,
                        outcome: simworld.InteractionOutcome,
                        scene_after: SceneSpec, capture: sensing.CaptureConfig,
                        rng: np.random.Generator, poses):
    """Observation pair of a known pull at `contact`.

    `outcome` and `scene_after` are what `simworld.interact` returned for
    the pull on `scene`. The before views use the cameras `poses`; the
    after views reuse them plus fresh cameras aimed at the advected
    contact. `rng` draws the capture noise."""
    before = sensing.capture_object_views(scene, contact, capture, rng,
                                          poses=poses)
    after = sensing.capture_interaction_after(
        scene_after, contact, poses, outcome.final_contact, capture, rng)
    return ObservationPair(before, after, contact, outcome.final_contact,
                           tuple(poses))


# ---------------------------------------------------------------------------
# gen-scenes
# ---------------------------------------------------------------------------

# Seeds `gen_scenes` tries per scene: its own, then re-draws.
SCENE_ATTEMPTS = 3


def gen_scenes(config: PipelineConfig, out_dir) -> dict:
    """Write n_scenes seeded scene_spec.v1 files plus an index manifest.

    Scene k is drawn from `derive_seed(config.seed, "scene", k)`. A scene
    the generator cannot build from that seed is re-drawn from
    `derive_seed(config.seed, "scene", k, attempt)`, attempt 1, 2, ...,
    up to `SCENE_ATTEMPTS` seeds in all, and the manifest records the seed
    that built it. When none does, SceneGenerationError names its index,
    its first seed and the first seed's failure."""
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)
    entries = []
    for k in range(config.run.n_scenes):
        seeds = [derive_seed(config.seed, "scene", k)] + [
            derive_seed(config.seed, "scene", k, attempt)
            for attempt in range(1, SCENE_ATTEMPTS)]
        failures = []
        for seed in seeds:
            try:
                scene = simworld.generate_scene(seed, config.generation)
                break
            except SceneGenerationError as e:
                failures.append(e)
        else:
            raise SceneGenerationError(
                f"scene {k} (seed {seeds[0]}): {failures[0]}; the "
                f"{len(seeds) - 1} re-draws failed too") from failures[0]
        fname = f"scene_{k:04d}.json"
        write_doc(simworld.scene_to_dict(scene, chash),
                  os.path.join(out_dir, fname))
        entries.append({
            "file": fname,
            "seed": seed,
            "n_parts": len(scene.parts),
            "n_joints": len(scene.joints),
        })
    manifest = {"version": "scene_manifest.v1", "config_hash": chash,
                "root_seed": config.seed, "scenes": entries}
    write_doc(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def load_scene_dir(scenes_dir) -> list[SceneSpec]:
    manifest = _read_manifest(scenes_dir, "scene_manifest.v1")
    return [simworld.load_scene(os.path.join(scenes_dir, e["file"]))
            for e in manifest["scenes"]]


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

def collect(config: PipelineConfig, scenes_dir, out_dir) -> dict:
    """Scene clouds plus interaction-probe label sets for every scene."""
    scenes = load_scene_dir(scenes_dir)
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)
    entries = []
    for scene in scenes:
        try:
            rng = np.random.default_rng(
                derive_seed(config.seed, "collect-capture", scene.seed))
            cloud = sensing.capture_scene_cloud(scene, config.capture, rng)
            labels = affordance.collect_labels(
                scene, cloud, config.affordance.samples_per_scene,
                derive_seed(config.seed, "collect-labels", scene.seed),
                config.interaction)
        except SceneKinError as e:
            entries.append({"seed": scene.seed, "status": f"failed: {e}"})
            continue
        cloud_file = f"scene_{scene.seed}_cloud.xyzb"
        labels_file = f"scene_{scene.seed}_labels.json"
        save_cloud_binary(cloud, os.path.join(out_dir, cloud_file))
        write_doc(affordance.labels_to_dict(labels, scene.seed),
                  os.path.join(out_dir, labels_file))
        counts = {v: labels.labels.count(v)
                  for v in (affordance.POSITIVE, affordance.NEGATIVE,
                            affordance.IGNORE)}
        entries.append({"seed": scene.seed, "status": "ok",
                        "cloud": cloud_file, "labels": labels_file,
                        "counts": counts})
    manifest = {"version": "collect_manifest.v1", "config_hash": chash,
                "root_seed": config.seed, "scenes": entries}
    write_doc(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def train_model(config: PipelineConfig, dataset_dir, out_dir) -> dict:
    """Train the affordance classifier from a collect output directory.

    A labels file with a point index outside its cloud's rows raises
    ValidationError; the output directory is made only once training has
    finished."""
    manifest = _read_manifest(dataset_dir, "collect_manifest.v1")
    dataset = []
    for entry in manifest["scenes"]:
        if entry.get("status") != "ok":
            continue
        cloud = load_cloud_binary(os.path.join(dataset_dir, entry["cloud"]))
        labels_path = os.path.join(dataset_dir, entry["labels"])
        labels = read_doc(labels_path, f"labels file {labels_path}",
                          "afford_labels.v1", affordance.labels_from_dict)
        if not ((labels.indices >= 0) & (labels.indices < len(cloud))).all():
            raise ValidationError(f"{labels_path} has point indices outside "
                                  f"[0, {len(cloud)}), the cloud's rows")
        feats = affordance.extract_features(cloud, config.affordance)
        # training reads only the labelled rows that are not ignored
        read = labels.indices[np.array(labels.labels) != affordance.IGNORE]
        dataset.append((affordance.complete(feats, cloud, read), labels))
    model, log = affordance.train(dataset, config.affordance.train,
                                  derive_seed(config.seed, "train"))
    chash = config_hash(config)
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.json")
    affordance.save_model(model, model_path, chash, config.seed)
    with open(os.path.join(out_dir, "train_log.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss",
                                                "val_loss"])
        writer.writeheader()
        writer.writerows(log)
    return {"model": model_path, "epochs": len(log),
            "final_val_loss": log[-1]["val_loss"] if log else None}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _segmentation_iou_vs_oracle(obs, seg, part_index: int) -> float:
    vals = []
    for mask, cloud in ((seg.mobile_mask_before, obs.before),
                        (seg.mobile_mask_after, obs.after)):
        gt = sensing.id_parts(cloud.point_ids) == part_index
        vals.append(evalkit.segmentation_iou(mask, gt))
    return float(np.mean(vals))


def _approach(scene: SceneSpec, position, config: PipelineConfig
              ) -> str | tuple:
    """(contact, normal, camera poses) of a hotspot, or why it is skipped."""
    try:
        contact = project_to_surface(scene, position)
    except PreconditionError:
        return "off surface"
    normal = simworld.surface_normal(scene, contact)
    if not simworld.gripper_clearance(scene, contact, normal,
                                      simworld.GRIPPER_RADIUS):
        return "no gripper clearance"
    try:
        poses = sensing.object_view_poses(scene, contact, config.capture)
    except CaptureError as e:
        return f"capture error: {e}"
    return contact, normal, poses


def run_scene(scene: SceneSpec, model: affordance.AffordanceModel,
              config: PipelineConfig) -> dict:
    """Full interactive loop on one scene; returns the run record.

    Probes the NMS hotspots in score order: clearance check, canonical pulls
    until one moves a part (`simworld.probe`, the rule that labels the
    training data), before/after capture of that pull, articulation
    inference, optional refinement. A probe that moves nothing is not
    captured. The capture and its features are computed for every scene,
    but the next hotspot is asked of `hotspot.ranked` only while fewer
    than `run.max_hotspots` probes have been made, so a scene's rows are
    bounded, refined, completed and scored only as deep as its probes go,
    and not at all when it probes none.
    Capture noise of the scene ring and of each probed hotspot comes from
    its own generator, seeded from (root seed, scene seed) and (root seed,
    scene seed, hotspot id), so no hotspot's noise depends on what earlier
    hotspots captured. The scene carries accumulated state between hotspots
    (opened parts stay open). Every setting, the ablations `run.refine`,
    `inference.use_contact_heat` and `inference.mode` included, comes from
    `config`; each stage gets its own layer's section.
    """
    ring_rng = np.random.default_rng(
        derive_seed(config.seed, "run", scene.seed))
    cloud = sensing.capture_scene_cloud(scene, config.capture, ring_rng)
    feats = affordance.extract_features(cloud, config.affordance)
    spots = hotspot.ranked(cloud, feats, model, config.hotspot)

    interactions: list[dict] = []
    inferences: list[dict] = []
    estimates = []
    refinement_logs = []
    current = scene
    probes = 0
    picked = []
    for hid in itertools.count():
        # the next hotspot is ranked only while the loop will probe it
        spot = next(spots, None) if probes < config.run.max_hotspots else None
        if spot is None:
            break
        picked.append(spot)
        site = _approach(current, spot.position, config)
        if isinstance(site, str):
            interactions.append({"hotspot_id": hid, "stage": "skipped",
                                 "status": site})
            continue
        contact, normal, poses = site

        probes += 1
        record = {"hotspot_id": hid, "stage": "initial", "success": False,
                  "moved_joint": None, "delta_state": 0.0}
        probe_rng = np.random.default_rng(
            derive_seed(config.seed, "probe", scene.seed, hid))
        try:
            outcome, after_scene = simworld.probe(current, contact, normal,
                                                  config.interaction)
            obs = (observe_interaction(current, contact, outcome, after_scene,
                                       config.capture, probe_rng, poses=poses)
                   if outcome.success else None)
        except (PreconditionError, ValidationError) as e:
            interactions.append({**record,
                                 "status": f"interaction error: {e}"})
            continue
        record["success"] = bool(outcome.success)
        record["moved_joint"] = outcome.moved_joint
        record["delta_state"] = float(outcome.delta_state)
        interactions.append(record)
        if not outcome.success:
            continue
        current = after_scene

        try:
            joint, seg = infer_articulation(obs, config.inference)
        except InferenceError as e:
            inferences.append({"hotspot_id": hid, "status": f"failed: {e}"})
            continue

        if config.run.refine and joint.kind == REVOLUTE:
            result = refine_loop(current, obs, joint, seg, config.inference,
                                 config.capture, config.interaction,
                                 probe_rng)
            interactions += [{"hotspot_id": hid, "stage": "refine", **pull}
                             for pull in result.pulls]
            refinement_logs.append({"hotspot_id": hid,
                                    "log": list(result.log)})
            joint, seg, current, obs = (result.joint, result.segmentation,
                                        result.scene, result.observation)

        iou = _segmentation_iou_vs_oracle(obs, seg, scene.joints[
            outcome.moved_joint][0])
        inferences.append({
            "hotspot_id": hid,
            "status": "ok",
            "kind": joint.kind,
            "axis": joint.axis.tolist(),
            "pivot": None if joint.pivot is None else joint.pivot.tolist(),
            "state": float(joint.state),
            "iou": iou,
        })
        mobile_pts = obs.after.positions[seg.mobile_mask_after]
        estimates.append((joint, mobile_pts, hid))

    return {
        "scene_seed": scene.seed,
        "hotspots": hotspot.hotspots_to_dict(picked, config.hotspot.radius),
        "interactions": interactions,
        "inferences": inferences,
        "refinements": refinement_logs,
        "model": scenemodel.aggregate(estimates),
    }


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_scene_job(args):
    scene_path, model, config = args
    return {**run_scene(simworld.load_scene(scene_path), model, config),
            "scene_sha256": _sha256(scene_path)}


def run(config: PipelineConfig, scenes_dir, model_path, out_dir,
        workers: int = 1) -> dict:
    """Run the full loop over every scene in `scenes_dir`; write artifacts.

    Per scene: inference.v1 JSON (hotspots, interactions, inferences,
    refinement logs) and a scene_model.v1 export, each carrying the config
    hash; the manifest records the sha256 of each scene file read. No
    artifact holds ground truth. The ablations are config keys
    (`run.refine`, `inference.use_contact_heat`, `inference.mode`), so the
    hash tells every run apart. Skipped hotspots and failed probes or
    inferences are recorded, but any other error of a scene (such as a
    scene capture that yields no points) aborts the whole run before an
    artifact is written. `workers` > 1 runs scenes in as many processes,
    or one per scene if fewer; the artifacts equal a serial run's.
    """
    manifest = _read_manifest(scenes_dir, "scene_manifest.v1")
    model = affordance.load_model(model_path)
    chash = config_hash(config)
    jobs = [(os.path.join(scenes_dir, e["file"]), model, config)
            for e in manifest["scenes"]]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            records = list(pool.map(_run_scene_job, jobs))
    else:
        records = [_run_scene_job(j) for j in jobs]

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for record in sorted(records, key=lambda r: r["scene_seed"]):
        seed = record["scene_seed"]
        inf_file = f"run_{seed}_inference.json"
        model_file = f"run_{seed}_model.json"
        doc = {
            "version": "inference.v1",
            "config_hash": chash,
            "scene_seed": seed,
            "hotspots": record["hotspots"],
            "interactions": record["interactions"],
            "inferences": record["inferences"],
            "refinements": record["refinements"],
        }
        write_doc(doc, os.path.join(out_dir, inf_file))
        scenemodel.export_model(record["model"],
                                os.path.join(out_dir, model_file), seed, chash)
        entries.append({"seed": seed, "inference": inf_file,
                        "model": model_file,
                        "entries": len(record["model"]),
                        "scene_sha256": record["scene_sha256"]})
    run_manifest = {"version": "run_manifest.v1", "config_hash": chash,
                    "root_seed": config.seed, "scenes": entries}
    write_doc(run_manifest, os.path.join(out_dir, "manifest.json"))
    return run_manifest


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _gt_joints(scene: SceneSpec) -> list[dict]:
    """evalkit's ground-truth joint dicts of a scene, by joint index."""
    return [{"index": j, "type": gt.joint_type, "axis": gt.axis.tolist(),
             "pivot": None if gt.pivot is None else gt.pivot.tolist()}
            for j, (_, gt) in enumerate(scene.joints)]


def _inference_log(doc: dict) -> tuple:
    """(scene seed, interactions, [(ok inference, index of the joint its
    hotspot's initial pull moved), ...]) of an inference.v1 document."""
    moved = {r["hotspot_id"]: r["moved_joint"]
             for r in doc["interactions"] if r["stage"] == "initial"}
    return doc["scene_seed"], doc["interactions"], [
        (i, moved[i["hotspot_id"]]) for i in doc["inferences"]
        if i["status"] == "ok"]


def evaluate(config: PipelineConfig, run_dir, scenes_dir, out_dir,
             force: bool = False) -> evalkit.EvalReport:
    """Score a run against the generator's ground truth; write report files.

    The ground truth is the scene of the same seed in `scenes_dir`, whose
    file must hash to the run manifest's `scene_sha256`; each ok inference
    is scored against the joint its hotspot's initial pull moved. A listed
    file that is not inference.v1, an ok inference whose initial pull names
    no joint of its scene, a run scene missing from `scenes_dir` or
    differing from it, or a run manifest entry that recorded no scene digest
    (each case with its own message) raises ArtifactError.
    """
    run_manifest = _read_manifest(run_dir, "run_manifest.v1")
    scene_files = {e["seed"]: e["file"] for e in
                   _read_manifest(scenes_dir, "scene_manifest.v1")["scenes"]}
    chash = config_hash(config)
    if run_manifest.get("config_hash") != chash and not force:
        raise ArtifactError(
            "run artifacts were produced under a different config "
            f"({run_manifest.get('config_hash')} != {chash}); pass force to "
            "evaluate anyway")
    scenes = []
    for entry in run_manifest["scenes"]:
        log = f"{entry['inference']} in {run_dir}"
        seed, interactions, inferences = read_doc(
            os.path.join(run_dir, entry["inference"]), log, "inference.v1",
            _inference_log)
        if seed not in scene_files:
            raise ArtifactError(f"run scene {seed} is not in {scenes_dir}")
        scene_path = os.path.join(scenes_dir, scene_files[seed])
        scene = simworld.load_scene(scene_path)
        if "scene_sha256" not in entry:
            raise ArtifactError(
                f"run scene {seed} has no recorded scene digest, so "
                f"{scene_files[seed]} in {scenes_dir} cannot be checked "
                "against it; re-run the loop")
        if entry["scene_sha256"] != _sha256(scene_path):
            raise ArtifactError(
                f"joints of run scene {seed} differ from "
                f"{scene_files[seed]} in {scenes_dir}")
        gt_joints = _gt_joints(scene)
        for i, joint in inferences:
            if type(joint) is not int or not 0 <= joint < len(gt_joints):
                raise ArtifactError(
                    f"{log} is malformed: the initial pull of ok inference "
                    f"{i['hotspot_id']} moved joint {joint!r}, "
                    f"not one of the {len(gt_joints)} joints of scene {seed}")
        scenes.append({
            "scene_seed": seed,
            "interactions": interactions,
            "inferences": [{**i, "gt_joint": gt_joints[joint]}
                           for i, joint in inferences],
            "gt_joints": gt_joints,
        })
    report = evalkit.build_report(scenes)
    os.makedirs(out_dir, exist_ok=True)
    write_doc({**report.to_dict(), "config_hash": chash, "seed": config.seed},
              os.path.join(out_dir, "report.json"))
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(evalkit.render_table(report) + "\n")
    rows = evalkit.per_joint_csv_rows(scenes)
    with open(os.path.join(out_dir, "per_joint.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "scene_seed", "hotspot_id", "joint_type", "angle_error_deg",
            "position_error_m", "iou"])
        writer.writeheader()
        writer.writerows(rows)
    return report
