"""Evaluation metrics and report generation.

Interaction records and inference summaries are plain dicts (the same shape
the pipeline writes to its JSON artifacts):

* interaction record: {"hotspot_id", "stage": "initial"|"refine",
  "success": bool, "moved_joint": int|None, "delta_state": float}, or
  {"hotspot_id", "stage": "skipped", "status"} for a hotspot never pulled.
* inference summary: {"hotspot_id", "kind", "axis", "pivot", "state",
  "gt_joint", "iou"} where gt_joint identifies the simulator joint moved by
  that interaction: {"index", "type", "axis", "pivot"}. The run does not
  write gt_joint; `pipeline.evaluate` attaches it from the scene file.

Precision counts initial-stage probes only; refinement pulls extend coverage
(they open parts further) but are excluded from precision. Coverage counts
every ground-truth interactable part in the scene, whether or not the agent
attempted it. Angle errors are reported in degrees throughout; the reported
segmentation IoU of one inference is the mean over its before/after masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artinfer import PRISMATIC, REVOLUTE
from .errors import ArtifactError, ValidationError
from .geom import line_to_line_distance

REVOLUTE_THRESHOLDS_DEG = (15.0, 30.0)
PRISMATIC_MIN_TRAVEL = 0.05


def precision(records: list[dict]) -> float | None:
    """Fraction of initial-stage probes that moved a part; None with no probes."""
    initial = [r for r in records if r.get("stage") == "initial"]
    if not initial:
        return None
    return sum(bool(r["success"]) for r in initial) / len(initial)


def achieved_motion(records: list[dict]) -> dict[int, float]:
    """Total |opening| per ground-truth joint accumulated over all pulls."""
    totals: dict[int, float] = {}
    for r in records:
        j = r.get("moved_joint")
        if j is None or not r.get("success"):
            continue
        totals[j] = totals.get(j, 0.0) + float(r["delta_state"])
    return {j: abs(v) for j, v in totals.items()}


def coverage(records: list[dict], gt_joints: list[dict]) -> dict:
    """Per-type fraction of ground-truth parts opened far enough.

    A prismatic part counts when its total travel exceeds
    `PRISMATIC_MIN_TRAVEL` meters; a revolute part counts at threshold tau
    of `REVOLUTE_THRESHOLDS_DEG` when its total opening exceeds tau degrees.
    Parts never attempted stay in the denominator.
    """
    if not gt_joints:
        raise ValidationError("coverage needs at least one ground-truth part")
    motion = achieved_motion(records)
    n_pris = sum(1 for g in gt_joints if g["type"] == PRISMATIC)
    n_rev = len(gt_joints) - n_pris
    pris_hit = 0
    rev_hits = {tau: 0 for tau in REVOLUTE_THRESHOLDS_DEG}
    for g in gt_joints:
        total = motion.get(g["index"], 0.0)
        if g["type"] == PRISMATIC:
            pris_hit += total > PRISMATIC_MIN_TRAVEL
        else:
            for tau in REVOLUTE_THRESHOLDS_DEG:
                rev_hits[tau] += math.degrees(total) > tau
    return {
        PRISMATIC: None if n_pris == 0 else pris_hit / n_pris,
        REVOLUTE: {f"{tau:g}": (None if n_rev == 0 else rev_hits[tau] / n_rev)
                     for tau in REVOLUTE_THRESHOLDS_DEG},
        "counts": {PRISMATIC: n_pris, REVOLUTE: n_rev},
    }


def angle_error(u_pred, u_gt) -> float:
    """Axis orientation error in degrees, invariant to axis sign."""
    u = np.asarray(u_pred, dtype=np.float64)
    v = np.asarray(u_gt, dtype=np.float64)
    c = abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(min(c, 1.0)))


def axis_position_error(pred_axis, pred_pivot, gt_axis, gt_pivot) -> float:
    """Minimum distance between the two infinite axis lines, meters."""
    return line_to_line_distance(pred_pivot, pred_axis, gt_pivot, gt_axis)


def segmentation_iou(pred_mask, gt_mask) -> float:
    """Intersection over union of boolean masks; empty union counts as 1."""
    p = np.asarray(pred_mask, dtype=bool)
    g = np.asarray(gt_mask, dtype=bool)
    if p.shape != g.shape:
        raise ValidationError("masks must have equal length")
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def _mean_median(values: list[float]):
    if not values:
        return None, None
    return float(np.mean(values)), float(np.median(values))


@dataclass(frozen=True)
class EvalReport:
    per_scene: tuple[dict, ...]
    aggregate: dict

    def to_dict(self) -> dict:
        return {"version": "report.v1", "per_scene": list(self.per_scene),
                "aggregate": self.aggregate}


def _scene_metrics(scene: dict) -> dict:
    records = scene["interactions"]
    inferences = scene["inferences"]
    gt_joints = scene["gt_joints"]
    rows = per_joint_csv_rows([scene])
    angle_errors = {PRISMATIC: [], REVOLUTE: []}
    for row in rows:
        angle_errors.setdefault(row["joint_type"], []).append(
            row["angle_error_deg"])
    pos_errors = [r["position_error_m"] for r in rows
                  if r["position_error_m"] != ""]
    ious = [float(r["iou"]) for r in rows if r["iou"] != ""]
    cov = coverage(records, gt_joints) if gt_joints else None
    mean_pris, med_pris = _mean_median(angle_errors[PRISMATIC])
    mean_rev, med_rev = _mean_median(angle_errors[REVOLUTE])
    mean_pos, med_pos = _mean_median(pos_errors)
    attempts = sum(1 for r in records if r.get("stage") == "initial")
    successes = sum(1 for r in records
                    if r.get("stage") == "initial" and r["success"])
    return {
        "scene_seed": scene.get("scene_seed"),
        "precision": precision(records),
        "coverage": cov,
        "angle_error_prismatic": {"mean": mean_pris, "median": med_pris},
        "angle_error_revolute": {"mean": mean_rev, "median": med_rev},
        "axis_position_error": {"mean": mean_pos, "median": med_pos},
        "mobile_seg_iou_mean": None if not ious else float(np.mean(ious)),
        "counts": {
            "parts": len(gt_joints),
            "attempts": attempts,
            "successes": successes,
            "inferences": len(inferences),
        },
    }


def build_report(scenes: list[dict]) -> EvalReport:
    """Aggregate per-scene run artifacts into the final report.

    Each entry needs "interactions", "inferences", and "gt_joints" (see the
    module docstring); missing keys raise ArtifactError naming the scene.
    Aggregation pools raw counts and errors across scenes rather than
    averaging per-scene rates: the aggregate is the metrics of one scene that
    holds every scene's joints, re-indexed, and every record and inference.
    """
    pooled = {"interactions": [], "inferences": [], "gt_joints": []}
    for k, scene in enumerate(scenes):
        for key in pooled:
            if key not in scene:
                raise ArtifactError(
                    f"scene {scene.get('scene_seed', k)} is missing {key!r}")
        offset = len(pooled["gt_joints"])
        pooled["gt_joints"] += [dict(g, index=g["index"] + offset)
                                for g in scene["gt_joints"]]
        pooled["interactions"] += [
            r if r.get("moved_joint") is None
            else dict(r, moved_joint=r["moved_joint"] + offset)
            for r in scene["interactions"]]
        pooled["inferences"] += scene["inferences"]
    per_scene = tuple(_scene_metrics(scene) for scene in scenes)
    aggregate = _scene_metrics(pooled)
    del aggregate["scene_seed"]
    aggregate["counts"]["scenes"] = len(scenes)
    return EvalReport(per_scene, aggregate)


def _fmt(value):
    return "-" if value is None else f"{value:.3f}"


def render_table(report: EvalReport) -> str:
    """Plain-text summary table of the aggregate metrics."""
    agg = report.aggregate
    cov = agg["coverage"] or {PRISMATIC: None,
                              REVOLUTE: {f"{t:g}": None for t in
                                           REVOLUTE_THRESHOLDS_DEG}}
    rows = [
        ("scenes", str(agg["counts"]["scenes"])),
        ("parts", str(agg["counts"]["parts"])),
        ("attempts / successes",
         f"{agg['counts']['attempts']} / {agg['counts']['successes']}"),
        ("precision", _fmt(agg["precision"])),
        ("coverage prismatic", _fmt(cov[PRISMATIC])),
    ]
    for tau in REVOLUTE_THRESHOLDS_DEG:
        rows.append((f"coverage revolute >{tau:g} deg",
                     _fmt(cov[REVOLUTE].get(f"{tau:g}"))))
    rows += [
        ("angle err prismatic (deg, mean/med)",
         f"{_fmt(agg['angle_error_prismatic']['mean'])} / "
         f"{_fmt(agg['angle_error_prismatic']['median'])}"),
        ("angle err revolute (deg, mean/med)",
         f"{_fmt(agg['angle_error_revolute']['mean'])} / "
         f"{_fmt(agg['angle_error_revolute']['median'])}"),
        ("axis pos err (m, mean/med)",
         f"{_fmt(agg['axis_position_error']['mean'])} / "
         f"{_fmt(agg['axis_position_error']['median'])}"),
        ("mobile seg IoU (mean)", _fmt(agg["mobile_seg_iou_mean"])),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"{name:<{width}}  {val}" for name, val in rows]
    return "\n".join(lines)


def per_joint_csv_rows(scenes: list[dict]) -> list[dict]:
    """Flat per-inference error rows for plotting."""
    rows = []
    for scene in scenes:
        for inf in scene["inferences"]:
            gt = inf.get("gt_joint")
            if gt is None:
                continue
            row = {
                "scene_seed": scene.get("scene_seed"),
                "hotspot_id": inf.get("hotspot_id"),
                "joint_type": inf["kind"],
                "angle_error_deg": angle_error(inf["axis"], gt["axis"]),
                "position_error_m": "",
                "iou": "" if inf.get("iou") is None else inf["iou"],
            }
            if inf["kind"] == REVOLUTE and gt["type"] == REVOLUTE:
                row["position_error_m"] = axis_position_error(
                    inf["axis"], inf["pivot"], gt["axis"], gt["pivot"])
            rows.append(row)
    return rows

