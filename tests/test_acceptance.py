"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavier criteria share
session fixtures (a trained affordance model, the refinement benchmark) so
the suite stays within its runtime budgets.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from scenekin import affordance, evalkit, hotspot
from scenekin.artinfer import (
    InferenceConfig,
    infer_articulation,
    screw_decompose,
)
from scenekin.cli import main
from scenekin.geom import (
    PointCloud,
    RigidTransform,
    closest_point_on_line,
    line_to_line_distance,
    normalize,
)
from scenekin.refine import refine_loop
from scenekin.simworld import InteractionConfig

from conftest import TINY, open_door_slightly


def announce(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def axis_angle_deg(u, v) -> float:
    cross = np.linalg.norm(np.cross(u, v))
    return math.degrees(math.atan2(cross, abs(float(np.dot(u, v)))))


# ---------------------------------------------------------------------------
# Criterion 1: screw round-trip
# ---------------------------------------------------------------------------

def test_criterion_1_screw_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_axis = worst_line = worst_state = 0.0
    for _ in range(1000):
        if rng.uniform() < 0.5:
            axis = normalize(rng.normal(size=3))
            pivot = rng.uniform(-2.0, 2.0, size=3)
            theta = rng.uniform(math.radians(2.0), math.radians(170.0))
            T = RigidTransform.from_rotation_about_line(axis, theta, pivot)
            joint = screw_decompose(T, InferenceConfig())
            assert joint.kind == "revolute"
            worst_axis = max(worst_axis, axis_angle_deg(joint.axis, axis))
            worst_line = max(worst_line, line_to_line_distance(
                joint.pivot, joint.axis, pivot, axis))
            worst_state = max(worst_state, abs(joint.state - theta))
        else:
            axis = normalize(rng.normal(size=3))
            dist = rng.uniform(1e-3, 0.5)
            joint = screw_decompose(RigidTransform.from_translation(axis * dist),
                                    InferenceConfig(motion_epsilon=0.5e-3))
            assert joint.kind == "prismatic"
            worst_axis = max(worst_axis, axis_angle_deg(joint.axis, axis))
            worst_state = max(worst_state, abs(joint.state - dist))
    elapsed = time.time() - t0
    ok = worst_axis < 1e-7 and worst_line < 1e-9 and worst_state < 1e-9 \
        and elapsed < 5.0
    announce("criterion 1 (screw round-trip, 1000 joints)", ok,
             f"axis {worst_axis:.2e} deg, line {worst_line:.2e} m, "
             f"state {worst_state:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for draw in range(100):
        hidden = 1 if draw % 2 == 0 else 8
        model = affordance.init_model(hidden=hidden,
                                      seed=int(rng.integers(10**6)))
        params = model.params() + rng.normal(scale=0.4,
                                             size=model.params().shape)
        model = model.with_params(params)
        x = rng.normal(size=(10, affordance.FEATURE_DIM))
        y = (rng.uniform(size=10) < 0.4).astype(float)
        if y.sum() == 0:
            y[0] = 1.0
        _, grad = affordance.loss_and_grad(model, x, y)
        eps = 1e-6
        for k in range(len(params)):
            up = params.copy(); up[k] += eps
            dn = params.copy(); dn[k] -= eps
            lu, _ = affordance.loss_and_grad(model.with_params(up), x, y)
            ld, _ = affordance.loss_and_grad(model.with_params(dn), x, y)
            fd = (lu - ld) / (2.0 * eps)
            denom = max(abs(fd), abs(grad[k]), 1e-8)
            worst = max(worst, abs(grad[k] - fd) / denom)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    announce("criterion 2 (CE+dice gradient vs finite differences)", ok,
             f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: NMS oracle
# ---------------------------------------------------------------------------

def _brute_nms(positions, scores, radius, threshold):
    n = len(positions)
    suppressed = np.zeros(n, dtype=bool)
    picked = []
    while True:
        best = -1
        for i in range(n):
            if suppressed[i] or scores[i] < threshold:
                continue
            if best < 0 or scores[i] > scores[best]:
                best = i
        if best < 0:
            break
        picked.append(best)
        d = np.linalg.norm(positions - positions[best], axis=1)
        suppressed |= d <= radius
    return picked


def test_criterion_3_nms_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    for trial in range(1000):
        n = int(rng.integers(1, 90))
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        # quantized scores force plenty of exact ties
        scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)
        radius = float(rng.uniform(0.05, 0.5))
        threshold = float(rng.choice([0.0, 0.3, 0.5]))
        config = hotspot.HotspotConfig(radius, threshold)
        got = [h.index for h in hotspot.nms(PointCloud(pts), scores,
                                            config)]
        expect = _brute_nms(pts, scores, radius, threshold)
        assert got == expect, f"trial {trial}"
    elapsed = time.time() - t0
    announce("criterion 3 (NMS vs brute-force greedy, 1000 instances)",
             elapsed < 30.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 4 and 5: oracle-correspondence and ICP end to end
# ---------------------------------------------------------------------------

# TINY moves two parts at each of these root seeds
END_TO_END_SEEDS = (5, 8)


@pytest.fixture(scope="module")
def end_to_end_setups(tmp_path_factory):
    """Scenes and a trained model of TINY at each of END_TO_END_SEEDS."""
    setups = {}
    for seed in END_TO_END_SEEDS:
        base = tmp_path_factory.mktemp(f"setup{seed}")
        cfg = base / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "seed": seed}))
        common = ["--config", str(cfg)]
        assert main(["gen-scenes", *common, "--out", str(base / "scenes")]) == 0
        assert main(["collect", *common, "--scenes", str(base / "scenes"),
                     "--out", str(base / "data")]) == 0
        assert main(["train", *common, "--dataset", str(base / "data"),
                     "--out", str(base / "model")]) == 0
        setups[seed] = base
    return setups


def end_to_end(setups: dict, mode: str, criterion: str):
    """`run` and `eval` with `inference.mode` set to `mode` on each setup's
    scenes and model; every inference's errors and IoU must be within
    bounds."""
    t0 = time.time()
    rows = {}
    for seed, base in setups.items():
        cfg = base / f"{mode}.json"
        cfg.write_text(json.dumps({**TINY, "seed": seed,
                                   "inference": {"mode": mode}}))
        common = ["--config", str(cfg)]
        assert main(["run", *common, "--scenes", str(base / "scenes"),
                     "--model", str(base / "model" / "model.json"),
                     "--out", str(base / f"run_{mode}")]) == 0
        assert main(["eval", *common, "--run", str(base / f"run_{mode}"),
                     "--scenes", str(base / "scenes"),
                     "--out", str(base / f"eval_{mode}")]) == 0
        with open(base / f"eval_{mode}" / "per_joint.csv") as fh:
            rows[seed] = list(csv.DictReader(fh))
    elapsed = time.time() - t0
    every = [r for seed_rows in rows.values() for r in seed_rows]
    worst_angle = max(float(r["angle_error_deg"]) for r in every)
    worst_pos = max((float(r["position_error_m"]) for r in every
                     if r["position_error_m"]), default=0.0)
    worst_iou = min(float(r["iou"]) for r in every)
    counts = {seed: len(seed_rows) for seed, seed_rows in rows.items()}
    ok = (min(counts.values()) >= 2 and worst_angle <= 0.1
          and worst_pos <= 1e-3 and worst_iou >= 0.85 and elapsed <= 10.0)
    announce(criterion, ok,
             f"inferences per seed {counts}, worst axis {worst_angle:.3g} "
             f"deg, worst revolute position {worst_pos:.2g} m, worst IoU "
             f"{worst_iou:.3f}, {elapsed:.1f}s")


def test_criterion_4_oracle_end_to_end(end_to_end_setups):
    end_to_end(end_to_end_setups, "oracle",
               "criterion 4 (oracle correspondences end to end)")


def test_criterion_5_icp_end_to_end(end_to_end_setups):
    end_to_end(end_to_end_setups, "icp", "criterion 5 (ICP end to end)")


# ---------------------------------------------------------------------------
# Criterion 6: refinement direction
# ---------------------------------------------------------------------------

# Ajar doors (`open_door_slightly`) at 0 and 4 mm capture noise; at each
# noise one seed's door opens towards +state and one's towards -state. Over
# seeds 0-39 at each noise, each seed's refinement made one pull that moved
# a part, it opened the door further, and the force direction lay within
# 2.3e-11 deg (0 mm) and 0.223 deg (4 mm) of the true tangent at its grasp
# point; the bounds leave room for another LAPACK build.
REFINE_SEEDS = {0.0: (2, 3), 0.004: (1, 6)}
TANGENT_BOUND_DEG = {0.0: 1e-6, 0.004: 0.3}


def refinement_directions(seed: int, noise: float):
    """Refine one ajar door as the loop does. Returns the angle in degrees
    between each force direction `part_affordance` planned and the true
    tangent at its grasp point, taken the way the first pull opened the
    door, and (moved the door, opening in the first pull's sense) of each
    refinement pull that moved a part."""
    scene, obs, outcome, gt, cap, rng = open_door_slightly(seed, noise)
    config = InferenceConfig(mode="icp", epsilon=0.015)
    joint, seg = infer_articulation(obs, config)
    result = refine_loop(scene, obs, joint, seg, config, cap,
                         InteractionConfig(), rng)
    first = math.copysign(1.0, outcome.delta_state)
    angles = []
    for entry in result.log:
        if "direction" in entry:
            grasp = np.array(entry["hotspot"])
            lever = normalize(
                grasp - closest_point_on_line(grasp, gt.pivot, gt.axis))
            tangent = first * np.cross(gt.axis, lever)
            force = np.array(entry["direction"])
            angles.append(math.degrees(math.atan2(
                np.linalg.norm(np.cross(force, tangent)),
                float(np.dot(force, tangent)))))
    pulls = [(p["moved_joint"] == outcome.moved_joint,
              first * p["delta_state"]) for p in result.pulls if p["success"]]
    return angles, pulls


def test_criterion_6_refinement_direction():
    t0 = time.time()
    worst = {noise: 0.0 for noise in REFINE_SEEDS}
    pulls = {}
    for noise, seeds in REFINE_SEEDS.items():
        for seed in seeds:
            angles, pulls[noise, seed] = refinement_directions(seed, noise)
            worst[noise] = max([worst[noise], *angles])
    elapsed = time.time() - t0
    further = all(door and opening > 0.0
                  for moved in pulls.values() for door, opening in moved)
    ok = (all(pulls.values()) and further and elapsed < 10.0
          and all(worst[n] <= TANGENT_BOUND_DEG[n] for n in worst))
    announce("criterion 6 (refinement pulls open the door further, along "
             "its tangent)", ok,
             f"{sum(map(len, pulls.values()))} pulls moved a part, all "
             f"further: {further}; worst angle to the tangent "
             + ", ".join(f"{worst[n]:.3g} deg at {n * 1000:g} mm"
                         for n in worst) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: metric counting oracles
# ---------------------------------------------------------------------------

def test_criterion_7_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(1007)
    for _ in range(1000):
        n_joints = int(rng.integers(1, 7))
        gt = [{"index": i,
               "type": "prismatic" if rng.uniform() < 0.5 else "revolute"}
              for i in range(n_joints)]
        records = []
        for _ in range(int(rng.integers(0, 14))):
            stage = "initial" if rng.uniform() < 0.7 else "refine"
            success = bool(rng.uniform() < 0.55)
            records.append({
                "stage": stage, "success": success,
                "moved_joint": int(rng.integers(0, n_joints)) if success else None,
                "delta_state": float(rng.uniform(-1.1, 1.1)) if success else 0.0,
            })
        init = [r for r in records if r["stage"] == "initial"]
        expect_prec = (sum(r["success"] for r in init) / len(init)) if init else None
        got_prec = evalkit.precision(records)
        assert (got_prec is None) == (expect_prec is None)
        if expect_prec is not None:
            assert abs(got_prec - expect_prec) < 1e-12
        totals = {}
        for r in records:
            if r["success"]:
                totals[r["moved_joint"]] = totals.get(r["moved_joint"], 0.0) \
                    + r["delta_state"]
        cov = evalkit.coverage(records, gt)
        n_p = sum(1 for g in gt if g["type"] == "prismatic")
        n_r = n_joints - n_p
        if n_p:
            expect = sum(1 for g in gt if g["type"] == "prismatic"
                         and abs(totals.get(g["index"], 0.0)) > 0.05) / n_p
            assert abs(cov["prismatic"] - expect) < 1e-12
        if n_r:
            for tau in (15.0, 30.0):
                expect = sum(1 for g in gt if g["type"] == "revolute"
                             and math.degrees(abs(totals.get(g["index"], 0.0)))
                             > tau) / n_r
                assert abs(cov["revolute"][f"{tau:g}"] - expect) < 1e-12
            assert cov["revolute"]["30"] <= cov["revolute"]["15"]
        # segmentation IoU vs a direct set computation
        m = int(rng.integers(1, 50))
        a = rng.uniform(size=m) < 0.5
        b = rng.uniform(size=m) < 0.5
        union = np.logical_or(a, b).sum()
        expect_iou = 1.0 if union == 0 else np.logical_and(a, b).sum() / union
        assert abs(evalkit.segmentation_iou(a, b) - expect_iou) < 1e-12
    elapsed = time.time() - t0
    announce("criterion 7 (precision/coverage/IoU vs naive counting, 1000 logs)",
             elapsed < 30.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reruns, serial and with --workers 2
# ---------------------------------------------------------------------------

def _tree_bytes(top) -> dict:
    out = {}
    for root, _, files in os.walk(top):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


def test_criterion_8_byte_identical_reruns(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "cfg.json"
    # at seed 8 pulls move parts: the run holds ok and failed inferences and
    # one refinement step, so the comparison covers those records too
    cfg.write_text(json.dumps({**TINY, "seed": 8}))
    common = ["--config", str(cfg)]
    assert main(["gen-scenes", *common, "--out", str(tmp_path / "scenes")]) == 0
    assert main(["collect", *common, "--scenes", str(tmp_path / "scenes"),
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["train", *common, "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "model")]) == 0
    runs = {"serial": [], "workers2": ["--workers", "2"]}
    for name, extra in runs.items():
        assert main(["run", *common, "--scenes", str(tmp_path / "scenes"),
                     "--model", str(tmp_path / "model" / "model.json"),
                     "--out", str(tmp_path / name), *extra]) == 0
    serial, parallel = (_tree_bytes(tmp_path / name) for name in runs)
    differ = sorted(k for k in serial.keys() | parallel.keys()
                    if serial.get(k) != parallel.get(k))
    # eval with the same config must accept either run without --force
    evals = [main(["eval", *common, "--run", str(tmp_path / name),
                   "--scenes", str(tmp_path / "scenes"),
                   "--out", str(tmp_path / f"eval_{name}")]) for name in runs]
    elapsed = time.time() - t0
    docs = [json.loads(v) for k, v in serial.items()
            if k.endswith("_inference.json")]
    ok_inferences = sum(i["status"] == "ok"
                        for d in docs for i in d["inferences"])
    refine_steps = sum(len(r["log"]) for d in docs for r in d["refinements"])
    ok = (bool(serial) and not differ and evals == [0, 0] and elapsed < 120.0
          and ok_inferences >= 1 and refine_steps >= 1)
    announce("criterion 8 (byte-identical run/, serial vs --workers 2)", ok,
             f"{len(serial)} files, differing {differ}, eval exit codes "
             f"{evals}, {ok_inferences} ok inferences, {refine_steps} "
             f"refinement steps, {elapsed:.1f}s")
