import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekin.errors import ValidationError
from scenekin.geom import PointCloud
from scenekin.hotspot import HotspotConfig, hotspots_to_dict, nms


def brute_force_nms(positions, scores, radius, threshold):
    """Literal greedy reference: highest unsuppressed score, lowest index ties."""
    n = len(positions)
    suppressed = [False] * n
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
        for j in range(n):
            if np.linalg.norm(positions[j] - positions[best]) <= radius:
                suppressed[j] = True
    return picked


class TestNms:
    def test_single_point(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        hs = nms(cloud, np.array([0.9]), HotspotConfig(0.25, 0.5))
        assert len(hs) == 1
        assert hs[0].index == 0

    def test_close_pair_keeps_stronger(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
        hs = nms(cloud, np.array([0.8, 0.9]), HotspotConfig(0.25, 0.5))
        assert [h.index for h in hs] == [1]

    def test_threshold_filters(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        hs = nms(cloud, np.array([0.4, 0.9]), HotspotConfig(0.25, 0.5))
        assert [h.index for h in hs] == [1]

    def test_empty_result_allowed(self):
        cloud = PointCloud(np.zeros((3, 3)))
        hs = nms(cloud, np.array([0.1, 0.2, 0.3]), HotspotConfig(0.5))
        assert len(hs) == 0

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            n = int(rng.integers(5, 120))
            pts = rng.uniform(0, 1, size=(n, 3))
            scores = np.round(rng.uniform(0, 1, size=n), 1)  # force ties
            radius = float(rng.uniform(0.05, 0.4))
            hs = nms(PointCloud(pts), scores, HotspotConfig(radius, 0.3))
            expect = brute_force_nms(pts, scores, radius, 0.3)
            assert [h.index for h in hs] == expect, trial

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([1, 2]),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(0, 1),
                              st.sampled_from([0.2, 0.5, 0.7, 1.0])),
                    min_size=1, max_size=40))
    def test_matches_brute_force_on_ties(self, radius, per_step, points):
        # grid steps of radius / per_step are exact binary fractions, so
        # grid neighbours lie exactly at the radius; points repeat, and
        # scores tie with each other and with the 0.5 threshold
        step = radius / per_step
        pts = np.array([p[:3] for p in points], dtype=np.float64) * step
        scores = np.array([p[3] for p in points])
        hs = nms(PointCloud(pts), scores, HotspotConfig(radius, 0.5))
        assert [h.index for h in hs] == brute_force_nms(
            pts, scores, radius, 0.5)

    def test_selected_are_spread(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(200, 3))
        scores = rng.uniform(0.5, 1.0, size=200)
        hs = nms(PointCloud(pts), scores, HotspotConfig(0.3, 0.5))
        sel = np.array([h.position for h in hs])
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                assert np.linalg.norm(sel[i] - sel[j]) > 0.3

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(150, 3))
        scores = rng.uniform(0, 1, size=150)
        hs = nms(PointCloud(pts), scores, HotspotConfig(0.15, 0.2))
        vals = [h.score for h in hs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dominated_points_property(self):
        # every non-selected point above threshold is within radius of a
        # selected point of score >= its own
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(300, 3))
        scores = rng.uniform(0, 1, size=300)
        hs = nms(PointCloud(pts), scores, HotspotConfig(0.2, 0.4))
        chosen = {h.index for h in hs}
        sel_pos = np.array([h.position for h in hs])
        sel_scores = np.array([h.score for h in hs])
        for i in range(300):
            if i in chosen or scores[i] < 0.4:
                continue
            d = np.linalg.norm(sel_pos - pts[i], axis=1)
            assert np.any((d <= 0.2) & (sel_scores >= scores[i]))

    def test_order_invariance_by_position(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, size=(100, 3))
        scores = rng.uniform(0, 1, size=100)
        hs1 = nms(PointCloud(pts), scores, HotspotConfig(0.2, 0.3))
        perm = rng.permutation(100)
        hs2 = nms(PointCloud(pts[perm]), scores[perm],
                  HotspotConfig(0.2, 0.3))
        set1 = {tuple(np.round(h.position, 12)) for h in hs1}
        set2 = {tuple(np.round(h.position, 12)) for h in hs2}
        assert set1 == set2

    def test_bad_radius_rejected(self):
        with pytest.raises(ValidationError):
            nms(PointCloud(np.zeros((1, 3))), np.array([1.0]),
                HotspotConfig(0.0))

    def test_round_trip(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        hs = nms(cloud, np.array([0.9, 0.8]), HotspotConfig(0.25))
        back = json.loads(json.dumps(hotspots_to_dict(hs, 0.25)))
        assert back["version"] == "hotspots.v1"
        assert back["radius"] == 0.25
        assert back["items"] == [
            {"index": h.index, "position": h.position.tolist(),
             "score": h.score} for h in hs]
