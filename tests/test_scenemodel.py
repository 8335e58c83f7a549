import json
import os

import numpy as np
import pytest

from scenekin.artinfer import JointModel
from scenekin.geom import load_cloud_binary, normalize
from scenekin.scenemodel import (
    ModelEntry,
    SceneArticulationModel,
    aggregate,
    export_model,
    fit_oriented_box,
)


def load_model(path) -> tuple[SceneArticulationModel, list[dict]]:
    """Read a scene_model.v1 file written by `export_model`, sidecar clouds
    included; also returns each entry's `mobile_box` as written."""
    path = str(path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["version"] == "scene_model.v1"
    out_dir = os.path.dirname(path) or "."
    entries = []
    for k, d in enumerate(doc["entries"]):
        assert d["id"] == k
        # scene_model.v1 lists one hotspot per entry at full confidence
        assert len(d["hotspots"]) == 1 and d["confidence"] == 1.0
        joint = JointModel(d["type"], d["axis"], d["pivot"], d["state"])
        pts = load_cloud_binary(os.path.join(
            out_dir, d["mobile_points_file"])).positions
        entries.append(ModelEntry(joint, pts, d["hotspots"][0]))
    model = SceneArticulationModel(tuple(entries),
                                   scene_seed=doc.get("scene_seed"),
                                   config_hash=doc.get("config_hash"))
    return model, [d["mobile_box"] for d in doc["entries"]]


def models_equivalent(a: SceneArticulationModel, b: SceneArticulationModel,
                      atol: float = 1e-12) -> bool:
    """Field-wise equality of two models within `atol`."""
    if len(a.entries) != len(b.entries):
        return False
    for ea, eb in zip(a.entries, b.entries):
        if ea.joint.kind != eb.joint.kind or ea.hotspot_id != eb.hotspot_id:
            return False
        if not np.allclose(ea.joint.axis, eb.joint.axis, atol=atol):
            return False
        if abs(ea.joint.state - eb.joint.state) > atol:
            return False
        if (ea.joint.pivot is None) != (eb.joint.pivot is None):
            return False
        if ea.joint.pivot is not None and not np.allclose(
                ea.joint.pivot, eb.joint.pivot, atol=atol):
            return False
        if not np.allclose(ea.mobile_points, eb.mobile_points, atol=atol):
            return False
    return True


def slab_points(center, normal_axis=1, w=0.4, h=0.8, n=300, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, 3))
    axes = [0, 1, 2]
    axes.remove(normal_axis)
    pts[:, axes[0]] = rng.uniform(-w / 2, w / 2, n)
    pts[:, axes[1]] = rng.uniform(-h / 2, h / 2, n)
    return pts + np.asarray(center)


class TestAggregate:
    def test_one_entry_per_estimate_in_hotspot_order(self):
        # two estimates of one part, a third of another part on an
        # incompatible joint, handed over out of hotspot order: each keeps
        # its own entry, joint, points and hotspot
        pts = slab_points([1.0, 0.5, 0.8])
        ests = [
            (JointModel("prismatic", [0, 1, 0], None, 0.3), pts + 0.001, 7),
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.4), pts, 2),
            (JointModel("revolute", [0, 0, 1.0001], [0.81, 0.5, 0.0], 0.6),
             pts + 0.001, 4),
        ]
        model = aggregate(ests)
        assert [e.hotspot_id for e in model.entries] == [2, 4, 7]
        for entry, (joint, points, _) in zip(model.entries,
                                             [ests[1], ests[2], ests[0]]):
            assert entry.joint is joint
            np.testing.assert_array_equal(entry.mobile_points, points)

    def test_two_parts_stay_separate(self):
        pts_a = slab_points([1.0, 0.5, 0.8], seed=1)
        pts_b = slab_points([3.0, 2.0, 0.8], seed=2)
        j1 = JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.4)
        j2 = JointModel("revolute", [0, 0, 1], [2.8, 2.0, 0.0], 0.5)
        model = aggregate([(j1, pts_a, 0), (j2, pts_b, 1)])
        assert len(model.entries) == 2

    def test_empty_input(self):
        model = aggregate([])
        assert model.entries == ()

    def test_order_insensitive_entry_count(self):
        rng = np.random.default_rng(3)
        pts = slab_points([1.0, 0.5, 0.8])
        ests = [
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.4), pts, 0),
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.7), pts, 1),
            (JointModel("prismatic", [0, 1, 0], None, 0.3),
             slab_points([3.0, 2.0, 0.8], seed=9), 2),
        ]
        base = aggregate(ests)
        for _ in range(5):
            perm = list(rng.permutation(3))
            model = aggregate([ests[i] for i in perm])
            assert len(model.entries) == len(base.entries)
            states = sorted(abs(e.joint.state) for e in model.entries)
            base_states = sorted(abs(e.joint.state) for e in base.entries)
            assert states == pytest.approx(base_states)

    def test_idempotent_on_entries(self):
        pts = slab_points([1.0, 0.5, 0.8])
        ests = [
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.4), pts, 0),
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.6),
             pts + 0.002, 1),
        ]
        once = aggregate(ests)
        again = aggregate([(e.joint, e.mobile_points, e.hotspot_id)
                           for e in once.entries])
        assert len(again.entries) == len(once.entries)
        for a, b in zip(again.entries, once.entries):
            np.testing.assert_allclose(a.joint.axis, b.joint.axis)
            assert a.joint.state == b.joint.state


class TestFitOrientedBox:
    def test_axis_aligned_slab(self):
        pts = slab_points([0.0, 0.0, 0.0], normal_axis=1, w=0.6, h=1.0,
                          n=500, seed=4)
        center, half, rot = fit_oriented_box(pts)
        np.testing.assert_allclose(center, [0, 0, 0], atol=0.05)
        dims = sorted(half)
        assert dims[0] < 0.01          # thin axis
        assert 0.25 < dims[1] < 0.35   # half of 0.6
        assert 0.45 < dims[2] < 0.55   # half of 1.0
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


class TestExport:
    def test_round_trip(self, tmp_path):
        pts = slab_points([1.0, 0.5, 0.8])
        ests = [
            (JointModel("revolute", [0, 0, 1], [0.8, 0.5, 0.0], 0.4), pts, 0),
            (JointModel("prismatic", [0, 1, 0], None, 0.3),
             slab_points([3.0, 2.0, 0.8], seed=7), 2),
        ]
        model = aggregate(ests)
        path = tmp_path / "model.json"
        export_model(model, path)
        back, boxes = load_model(path)
        assert models_equivalent(back, model, atol=1e-12)
        # the file's box is the box fitted to the entry's mobile points
        for e, box in zip(model.entries, boxes):
            c, h, r = fit_oriented_box(e.mobile_points)
            assert box == {"center": c.tolist(), "half_extents": h.tolist(),
                           "rotation_3x3": r.reshape(-1).tolist()}

    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.json"
        export_model(aggregate([]), path)
        back, _ = load_model(path)
        assert back.entries == ()

    def test_axes_reparse_unit_norm(self, tmp_path):
        rng = np.random.default_rng(8)
        ests = []
        for k in range(5):
            axis = normalize(rng.normal(size=3))
            ests.append((JointModel("revolute", axis,
                                    rng.uniform(-1, 1, 3),
                                    float(rng.uniform(0.1, 1.0))),
                         slab_points(rng.uniform(0, 5, 3), seed=k), k))
        model = aggregate(ests)
        path = tmp_path / "m.json"
        export_model(model, path)
        back, _ = load_model(path)
        for e in back.entries:
            assert abs(np.linalg.norm(e.joint.axis) - 1.0) < 1e-9
