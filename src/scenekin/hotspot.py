"""Interaction hotspots: greedy non-maximum suppression over the affordance map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom import PointCloud


@dataclass(frozen=True)
class HotspotConfig:
    radius: float = 0.25
    score_threshold: float = 0.5

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("hotspot radius must be > 0")


@dataclass(frozen=True)
class Hotspot:
    index: int
    position: np.ndarray
    score: float


def nms(cloud: PointCloud, scores: np.ndarray, config: HotspotConfig
        ) -> tuple[Hotspot, ...]:
    """Greedy peak extraction.

    Repeatedly take the highest-scoring unsuppressed point at or above
    `config.score_threshold` (ties break to the lowest point index) and
    suppress everything within `config.radius` of it. The picks come in
    that order, so their scores do not increase and they lie pairwise
    farther apart than the radius. The empty result is allowed.
    """
    radius = config.radius
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(cloud),):
        raise ValidationError("scores must align with the cloud")
    eligible = np.flatnonzero(scores >= config.score_threshold)
    if len(eligible) == 0:
        return ()
    # sorting by (-score, index) makes a single pass equivalent to the greedy loop
    order = eligible[np.lexsort((eligible, -scores[eligible]))]
    tree = cloud.tree
    suppressed = np.zeros(len(cloud), dtype=bool)
    picked = []
    for i in order:
        if suppressed[i]:
            continue
        picked.append(Hotspot(int(i), cloud.positions[i].copy(),
                              float(scores[i])))
        suppressed[tree.query_ball_point(cloud.positions[i], r=radius)] = True
    return tuple(picked)


def hotspots_to_dict(items, radius: float) -> dict:
    """The hotspots.v1 record of the picks `items` of an NMS at `radius`."""
    return {
        "version": "hotspots.v1",
        "radius": radius,
        "items": [
            {"index": h.index, "position": h.position.tolist(), "score": h.score}
            for h in items
        ],
    }
