"""Interaction hotspots: which scene-cloud row the loop pulls next.

`ranked` is the whole decision, in one place: score bounds over the room
(`affordance.score_bounds`), the threshold algorithm over the bounds that
`affordance.refine_bounds` tightens, the affordance map of the rows it takes
(`affordance.predict`), and greedy non-maximum suppression over that map
(`nms`). Nothing of it runs until the loop asks for the first hotspot, so a
room that probes none is never ranked.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import affordance
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


# Candidate rows scored in the first round of `ranked`; each later round
# scores this many times as many as the one before.
FIRST_ROUND = 256
ROUND_GROWTH = 4


def ranked(cloud: PointCloud, features: affordance.FeatureSet,
           model: affordance.AffordanceModel, config: HotspotConfig
           ) -> Iterator[Hotspot]:
    """The NMS hotspots of a scene cloud's affordance map, in order, each
    computed only when asked for; `features` is the cloud's
    `affordance.extract_features` output, which this fills in as it goes.

    Nothing runs until the first hotspot is asked for. Then the
    first-pass `affordance.score_bounds` bounds every row, and the
    candidates, the valid rows whose first-pass bound reaches
    `config.score_threshold`, are ranked by (-first-pass bound, index),
    refined in that order by `affordance.refine_bounds` and scored in
    rounds. Round r has depth m = `FIRST_ROUND` * `ROUND_GROWTH`**r: it
    refines chunks of m candidates until at least m refined rows reach the
    threshold and the next unrefined candidate's first-pass bound is below
    the m-th refined bound, τ (the threshold algorithm of Fagin, Lotem &
    Naor, PODS 2001), and takes every refined row whose bound is at least
    τ. It completes them (`affordance.complete`), scores them with
    `affordance.predict` on a map in which every other row scores 0, runs
    `nms` on that map and yields the new picks whose score is at least τ.
    The round that has refined every candidate and takes every one that
    reaches the threshold has τ = -inf.

    These picks are exactly the next ones of NMS over the whole cloud's map.
    A row outside the round is bounded below τ: a refined row by its
    refined bound, an unrefined one by its first-pass bound, and a row that
    is no candidate by a bound below the threshold, which τ reaches. So its
    score is below τ too. Every row scoring at least τ is therefore in the
    round, and `predict`, running on its own blocks, gives it the bytes it
    has on the whole map. Greedy NMS decides a row from the picks before it
    alone, which score at least as much, so both maps give the same picks
    down to τ.
    """
    first = affordance.score_bounds(model, features)
    threshold = config.score_threshold
    rows = np.flatnonzero(features.valid & (first >= threshold))
    order = rows[np.lexsort((rows, -first[rows]))]
    refined = np.empty(len(order))  # the refined bounds of `order`
    found, m, done = 0, FIRST_ROUND, 0
    while True:
        while True:
            reach = refined[:done][refined[:done] >= threshold]
            # the m-th largest refined bound
            tau = (-np.partition(-reach, m - 1)[m - 1]
                   if len(reach) >= m else -np.inf)
            if done == len(order) or first[order[done]] < tau:
                break
            part = order[done:done + m]
            refined[done:done + m] = affordance.refine_bounds(
                model, features, cloud, part, threshold)
            done += len(part)
        take = order[:done][refined[:done] >= max(tau, threshold)]
        if done == len(order) and len(take) == len(reach):
            tau = -np.inf
        scores = affordance.predict(
            model, affordance.complete(features, cloud, take))
        for spot in nms(cloud, scores, config)[found:]:
            if spot.score < tau:
                break
            found += 1
            yield spot
        if tau == -np.inf:
            return
        m *= ROUND_GROWTH


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
