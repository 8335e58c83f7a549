"""Scene-level articulation model: aggregation and export.

Per-interaction joint estimates are merged into one entry per physical part.
Two estimates merge when they describe the same joint (same type, axes within
an angular threshold and, for hinges, nearby axis lines) on overlapping mobile
geometry; the most-opened estimate wins the merged entry.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.csgraph import connected_components

from .artinfer import REVOLUTE, JointModel
from .errors import ValidationError
from .geom import PointCloud, line_to_line_distance, save_cloud_binary


# the merge thresholds of `aggregate`
MERGE_ANGLE_DEG = 10.0
MERGE_LINE_DIST = 0.05
MERGE_IOU = 0.3
IOU_VOXEL = 0.05


@dataclass(frozen=True)
class ModelEntry:
    """One articulated part: joint, mobile geometry, provenance, agreement."""

    entry_id: int
    joint: JointModel
    mobile_points: np.ndarray
    hotspot_ids: tuple[int, ...]
    confidence: float


@dataclass(frozen=True)
class SceneArticulationModel:
    entries: tuple[ModelEntry, ...]
    scene_seed: int | None = None
    config_hash: str | None = None


def fit_oriented_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PCA-aligned bounding box of a point set: (center, half_extents, rotation)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise ValidationError("cannot fit a box to zero points")
    mean = pts.mean(axis=0)
    cov = np.cov((pts - mean).T) if len(pts) > 1 else np.eye(3)
    w, v = np.linalg.eigh(np.atleast_2d(cov))
    axes = v[:, ::-1]  # descending variance
    if np.linalg.det(axes) < 0:
        axes[:, 2] *= -1.0
    local = (pts - mean) @ axes
    lo, hi = local.min(axis=0), local.max(axis=0)
    center = mean + axes @ ((lo + hi) / 2.0)
    half = np.maximum((hi - lo) / 2.0, 1e-6)
    return center, half, axes


def _voxel_keys(points: np.ndarray, voxel: float) -> set:
    idx = np.floor(np.asarray(points) / voxel).astype(np.int64)
    return set(map(tuple, idx))


def _cloud_iou(keys_a: set, keys_b: set) -> float:
    union = len(keys_a | keys_b)
    if union == 0:
        return 1.0
    return len(keys_a & keys_b) / union


def _axis_angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    c = min(abs(float(np.dot(u, v))), 1.0)
    return math.degrees(math.acos(c))


def _joints_compatible(a: JointModel, b: JointModel, angle_deg: float,
                       line_dist: float) -> bool:
    if a.kind != b.kind:
        return False
    if _axis_angle_deg(a.axis, b.axis) >= angle_deg:
        return False
    if a.kind == REVOLUTE:
        if line_to_line_distance(a.pivot, a.axis, b.pivot, b.axis) >= line_dist:
            return False
    return True


def aggregate(estimates: list[tuple[JointModel, np.ndarray, int]]
              ) -> SceneArticulationModel:
    """Merge per-interaction estimates into one entry per articulated part.

    `estimates` holds (joint, mobile point set, source hotspot id) triples.
    Estimates whose mobile clouds overlap (IoU > `MERGE_IOU` over voxels of
    `IOU_VOXEL`) touch the same part; among those, joint-compatible ones
    (axes within `MERGE_ANGLE_DEG`, hinge lines within `MERGE_LINE_DIST`)
    merge into one entry keeping the largest-|state| observation.
    Confidence is the fraction of same-part estimates that agree with the
    entry.
    """
    n = len(estimates)
    if n == 0:
        return SceneArticulationModel(())
    keys = [_voxel_keys(pts, IOU_VOXEL) for _, pts, _ in estimates]
    overlap = np.zeros((n, n), dtype=bool)
    mergeable = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if _cloud_iou(keys[i], keys[j]) > MERGE_IOU:
                overlap[i, j] = overlap[j, i] = True
                if _joints_compatible(estimates[i][0], estimates[j][0],
                                      MERGE_ANGLE_DEG, MERGE_LINE_DIST):
                    mergeable[i, j] = mergeable[j, i] = True

    # components are numbered in order of their lowest estimate index
    _, part_of = connected_components(overlap, directed=False)
    part_size = np.bincount(part_of)
    n_groups, merge_of = connected_components(mergeable, directed=False)

    entries = []
    for g in range(n_groups):
        group = np.flatnonzero(merge_of == g)
        winner = min(group, key=lambda k: (-abs(estimates[k][0].state),
                                           estimates[k][2]))
        joint, pts, _ = estimates[winner]
        hotspots = tuple(sorted(estimates[k][2] for k in group))
        denom = int(part_size[part_of[winner]])
        entries.append((hotspots[0], ModelEntry(
            entry_id=-1, joint=joint, mobile_points=np.asarray(pts, dtype=np.float64),
            hotspot_ids=hotspots, confidence=len(group) / denom)))
    entries.sort(key=lambda t: t[0])
    final = tuple(replace(e, entry_id=i) for i, (_, e) in enumerate(entries))
    return SceneArticulationModel(final)


# ---------------------------------------------------------------------------
# Export / import (scene_model.v1)
# ---------------------------------------------------------------------------

def model_to_dict(model: SceneArticulationModel, points_files: dict[int, str]
                  ) -> dict:
    """scene_model.v1 document; each entry's box is `fit_oriented_box` of its
    mobile points."""
    entries = []
    for e in model.entries:
        c, h, r = fit_oriented_box(e.mobile_points)
        box = {"center": c.tolist(), "half_extents": h.tolist(),
               "rotation_3x3": r.reshape(-1).tolist()}
        entries.append({
            "id": int(e.entry_id),
            "type": e.joint.kind,
            "axis": e.joint.axis.tolist(),
            "pivot": None if e.joint.pivot is None else e.joint.pivot.tolist(),
            "state": float(e.joint.state),
            "mobile_box": box,
            "mobile_points_file": points_files[e.entry_id],
            "hotspots": [int(h) for h in e.hotspot_ids],
            "confidence": float(e.confidence),
        })
    return {
        "version": "scene_model.v1",
        "scene_seed": model.scene_seed,
        "config_hash": model.config_hash,
        "entries": entries,
    }


def export_model(model: SceneArticulationModel, path) -> None:
    """Write the model JSON plus one sidecar cloud file per entry."""
    path = str(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    out_dir = os.path.dirname(path) or "."
    points_files = {}
    for e in model.entries:
        fname = f"{stem}_entry{e.entry_id}_points.xyzb"
        save_cloud_binary(PointCloud(e.mobile_points),
                          os.path.join(out_dir, fname))
        points_files[e.entry_id] = fname
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, points_files), fh, indent=1, sort_keys=True)
        fh.write("\n")
