"""Scene-level articulation model: one entry per inferred articulation, and
its export. A scene's model is the tuple of its entries.

The loop infers at most one articulation per probed hotspot, and each
becomes its own entry, in hotspot order. Estimates are not merged: a probe
reaches a part that an earlier probe of the scene moved only rarely, and
none of those measured moved the part again, so no two estimates of one
scene have described the same motion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import write_doc
from .artinfer import JointModel
from .errors import ValidationError
from .geom import PointCloud, save_cloud_binary


@dataclass(frozen=True)
class ModelEntry:
    """One articulated part: joint, mobile geometry, source hotspot. An
    entry's id is its index in the scene's tuple of entries."""

    joint: JointModel
    mobile_points: np.ndarray
    hotspot_id: int


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


def aggregate(estimates: list[tuple[JointModel, np.ndarray, int]]
              ) -> tuple[ModelEntry, ...]:
    """One entry per estimate, in the order of their hotspots.

    `estimates` holds (joint, mobile point set, source hotspot id) triples.
    """
    return tuple(ModelEntry(joint, np.asarray(pts, dtype=np.float64), hid)
                 for joint, pts, hid in sorted(estimates, key=lambda e: e[2]))


# ---------------------------------------------------------------------------
# Export (scene_model.v1)
# ---------------------------------------------------------------------------

def export_model(entries: tuple[ModelEntry, ...], path, scene_seed: int,
                 config_hash: str) -> None:
    """Write the scene_model.v1 JSON plus one sidecar cloud file per entry.

    The header names the scene's seed and the run's config hash. Entry k
    has id k, and its box is `fit_oriented_box` of its mobile points."""
    path = str(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    out_dir = os.path.dirname(path) or "."
    docs = []
    for k, e in enumerate(entries):
        points_file = f"{stem}_entry{k}_points.xyzb"
        save_cloud_binary(PointCloud(e.mobile_points),
                          os.path.join(out_dir, points_file))
        c, h, r = fit_oriented_box(e.mobile_points)
        docs.append({
            "id": k,
            "type": e.joint.kind,
            "axis": e.joint.axis.tolist(),
            "pivot": None if e.joint.pivot is None else e.joint.pivot.tolist(),
            "state": float(e.joint.state),
            "mobile_box": {"center": c.tolist(), "half_extents": h.tolist(),
                           "rotation_3x3": r.reshape(-1).tolist()},
            "mobile_points_file": points_file,
            # one hotspot and full confidence per entry: fields of
            # scene_model.v1, a version string the benchmark's checks pin,
            # so they go when the version next changes
            "hotspots": [int(e.hotspot_id)],
            "confidence": 1.0,
        })
    write_doc({"version": "scene_model.v1", "scene_seed": scene_seed,
               "config_hash": config_hash, "entries": docs}, path)
