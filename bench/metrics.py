"""Metric helpers: summaries, ratios, names, and the per-layer table."""

from __future__ import annotations

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# quality figures the report leaves undefined (nothing probed or inferred)
UNDEFINED = -1.0


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def summarize(values) -> dict:
    """Median, sample count, and the highest whole percentile that still has
    at least ten samples above it (None below 11 samples)."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "median": statistics.median(values), "pct": None,
           "pct_value": None}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        k = max(0, math.ceil(pct / 100 * n) - 1)
        out["pct"], out["pct_value"] = pct, values[k]
    return out


def describe(summary: dict, unit: str) -> str:
    text = f"median {summary['median']:.4f} {unit} of {summary['n']} samples"
    if summary["pct"] is not None:
        text += f", p{summary['pct']} {summary['pct_value']:.4f} {unit}"
    return text


def ratio(num: float, base: float) -> float:
    """num / base, 0 for an empty base (the base is printed beside it)."""
    return num / base if base else 0.0


def op_counts(collect_manifest: dict, run_scenes: int,
              funnel: dict) -> tuple[int, int]:
    """(attempted, failed) program operations.

    Operations are collect scenes, run scenes, and the inferences attempted
    after a pull moved a part. Failures are non-ok collect entries and
    inference entries with a "failed:" status. A scene that raises stops
    `pipeline.run`, and with it the benchmark, so it is never counted here.
    """
    collect = collect_manifest["scenes"]
    attempted = len(collect) + run_scenes + funnel["entries"]
    failed = sum(e["status"] != "ok" for e in collect) + funnel["failed"]
    return attempted, failed


def quality(agg: dict) -> dict[str, float]:
    """report.v1 aggregate figures; undefined ones become UNDEFINED."""
    cov = agg.get("coverage") or {}

    def num(v):
        return UNDEFINED if v is None else float(v)

    return {
        "precision": num(agg.get("precision")),
        "coverage_prismatic": num(cov.get("prismatic")),
        "coverage_revolute_30": num((cov.get("revolute") or {}).get("30")),
        "angle_error_revolute_deg": num(agg["angle_error_revolute"]["mean"]),
        "angle_error_prismatic_deg": num(agg["angle_error_prismatic"]["mean"]),
        "axis_position_error_m": num(agg["axis_position_error"]["mean"]),
        "seg_iou": num(agg.get("mobile_seg_iou_mean")),
    }


# Exact counts that must repeat across runs of the same code.
EXACT_COUNTS = (
    "sensing.raycast_capture.rays", "sensing.raycast_capture.box_tests",
    "sensing.raycast_capture.points", "artinfer.kabsch.calls",
    "simworld.SceneSpec.world_parts.calls",
    "pipeline.observe_interaction.calls", "pipeline.funnel.hotspots",
    "pipeline.funnel.skipped", "pipeline.funnel.probed",
    "pipeline.funnel.moved", "pipeline.funnel.inferred",
)


def per_layer(totals: dict, counters: dict, funnel: dict, agg: dict,
              ops: tuple[int, int], overhead_s: float) -> dict[str, tuple]:
    """Per-layer metrics of one traced run as {name: (value, unit)}."""
    def t(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0) or counters.get(
            name + ".calls", 0)

    rc = "sensing.raycast_capture"
    ia = "artinfer.infer_articulation"
    rl = "refine.refine_loop"
    m: dict[str, tuple] = {}
    m[rc + ".self_s"] = (t(rc, "self_s"), "s")
    m[rc + ".calls"] = (calls(rc), "count")
    for k in ("rays", "box_tests", "points"):
        m[f"{rc}.{k}"] = (counters.get(f"{rc}.{k}", 0), "count")
    m[rc + ".hit_ratio"] = (ratio(counters.get(rc + ".points", 0),
                                  counters.get(rc + ".rays", 0)), "ratio")
    for name in ("sensing.capture_scene_cloud", "sensing.capture_object_views",
                 "sensing.capture_interaction_after",
                 "artinfer.change_candidates", "artinfer.estimate_motion",
                 "geom.estimate_normals", "pipeline.observe_interaction",
                 "affordance.extract_features", ia, rl):
        m[name + ".s"] = (t(name, "s"), "s")
        m[name + ".calls"] = (calls(name), "count")
    m["sensing.fuse_clouds.self_s"] = (t("sensing.fuse_clouds", "self_s"), "s")

    failed = counters.get(ia + ".raised", 0)
    m[ia + ".failed"] = (failed, "count")
    m[ia + ".ok_ratio"] = (ratio(calls(ia) - failed, calls(ia)), "ratio")
    m["artinfer.detect_change.self_s"] = (t("artinfer.detect_change",
                                            "self_s"), "s")
    m["artinfer.kabsch.calls"] = (calls("artinfer.kabsch"), "count")
    m["artinfer.screw_decompose.calls"] = (calls("artinfer.screw_decompose"),
                                           "count")

    iters = counters.get(rl + ".iterations", 0)
    m[rl + ".iterations"] = (iters, "count")
    m[rl + ".accepted"] = (counters.get(rl + ".accepted", 0), "count")
    m[rl + ".accept_ratio"] = (ratio(counters.get(rl + ".accepted", 0), iters),
                               "ratio")
    m["refine.part_affordance.s"] = (t("refine.part_affordance", "s"), "s")

    m["simworld.generate_scene.s"] = (t("simworld.generate_scene", "s"), "s")
    for name in ("SceneSpec.world_parts", "nearest_part", "surface_normal",
                 "gripper_clearance", "project_to_surface", "interact"):
        m[f"simworld.{name}.calls"] = (calls("simworld." + name), "count")
    m["simworld.interact.s"] = (counters.get("simworld.interact.s", 0.0), "s")
    m["simworld.interact.engaged_ratio"] = (
        ratio(counters.get("simworld.interact.engaged", 0),
              calls("simworld.interact")), "ratio")

    m["affordance.collect_labels.self_s"] = (
        t("affordance.collect_labels", "self_s"), "s")
    m["affordance.collect_labels.samples"] = (
        counters.get("affordance.collect_labels.samples", 0), "count")
    m["affordance.extract_features.points"] = (
        counters.get("affordance.extract_features.points", 0), "count")
    m["affordance.train.s"] = (t("affordance.train", "s"), "s")
    m["affordance.predict.s"] = (t("affordance.predict", "s"), "s")
    m["hotspot.nms.s"] = (t("hotspot.nms", "s"), "s")
    m["hotspot.nms.hotspots"] = (counters.get("hotspot.nms.hotspots", 0),
                                 "count")
    m["scenemodel.aggregate.s"] = (t("scenemodel.aggregate", "s"), "s")
    m["scenemodel.export_model.s"] = (t("scenemodel.export_model", "s"), "s")
    m["evalkit.build_report.s"] = (t("evalkit.build_report", "s"), "s")
    for io in ("save_cloud_binary", "load_cloud_binary"):
        m[f"geom.{io}.s"] = (t("geom." + io, "s"), "s")
        m[f"geom.{io}.bytes"] = (counters.get(f"geom.{io}.bytes", 0), "bytes")

    for stage in ("gen_scenes", "collect", "train_model", "run", "evaluate"):
        m[f"pipeline.{stage}.s"] = (t("pipeline." + stage, "s"), "s")
    m["pipeline.pulls_per_probe"] = (
        ratio(calls("pipeline.observe_interaction"), funnel["probed"]),
        "ratio")
    for k in ("hotspots", "skipped", "probed", "moved", "inferred"):
        m[f"pipeline.funnel.{k}"] = (funnel[k], "count")
    m["pipeline.ops.attempted"] = (ops[0], "count")
    m["pipeline.ops.failed"] = (ops[1], "count")
    m["pipeline.failed_op_ratio"] = (ratio(ops[1], ops[0]), "ratio")

    units = {"angle_error_revolute_deg": "deg",
             "angle_error_prismatic_deg": "deg", "axis_position_error_m": "m"}
    for k, v in quality(agg).items():
        m["evalkit." + k] = (v, units.get(k, "ratio"))
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
