import json
import math

import numpy as np
import pytest

from scenekin.artifacts import write_doc
from scenekin.errors import ArtifactError, ValidationError
from scenekin.evalkit import (
    angle_error,
    axis_position_error,
    build_report,
    coverage,
    per_joint_csv_rows,
    precision,
    render_table,
    segmentation_iou,
)


def rec(stage="initial", success=True, joint=None, delta=0.0, hotspot=0):
    return {"hotspot_id": hotspot, "stage": stage, "success": success,
            "moved_joint": joint, "delta_state": delta}


class TestPrecision:
    def test_basic_fraction(self):
        records = [rec(success=True)] * 4 + [rec(success=False)] * 6
        assert precision(records) == pytest.approx(0.4)

    def test_all_success(self):
        assert precision([rec(success=True)] * 5) == 1.0

    def test_refinement_excluded(self):
        records = [rec(success=True), rec(stage="refine", success=False)]
        assert precision(records) == 1.0

    def test_no_attempts_is_none(self):
        assert precision([]) is None
        assert precision([rec(stage="refine")]) is None


class TestCoverage:
    def gt(self):
        return [
            {"index": 0, "type": "prismatic"},
            {"index": 1, "type": "revolute"},
            {"index": 2, "type": "revolute"},
        ]

    def test_full_opening(self):
        records = [
            rec(joint=0, delta=0.3),
            rec(joint=1, delta=math.radians(80)),
            rec(joint=2, delta=-math.radians(75)),
        ]
        cov = coverage(records, self.gt())
        assert cov["prismatic"] == 1.0
        assert cov["revolute"]["15"] == 1.0
        assert cov["revolute"]["30"] == 1.0

    def test_threshold_semantics(self):
        records = [rec(joint=1, delta=math.radians(20))]
        cov = coverage(records, self.gt())
        assert cov["revolute"]["15"] == pytest.approx(0.5)
        assert cov["revolute"]["30"] == 0.0
        assert cov["prismatic"] == 0.0

    def test_refinement_accumulates(self):
        records = [rec(joint=1, delta=math.radians(20)),
                   rec(stage="refine", joint=1, delta=math.radians(20))]
        cov = coverage(records, self.gt())
        assert cov["revolute"]["30"] == pytest.approx(0.5)

    def test_30_never_exceeds_15(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gt = [{"index": i, "type": "revolute"} for i in range(5)]
            records = [rec(joint=int(rng.integers(0, 5)),
                           delta=float(rng.uniform(0, 1.2)))
                       for _ in range(int(rng.integers(0, 8)))]
            cov = coverage(records, gt)
            assert cov["revolute"]["30"] <= cov["revolute"]["15"]

    def test_empty_parts_rejected(self):
        with pytest.raises(ValidationError):
            coverage([], [])


class TestAngleError:
    def test_identical(self):
        assert angle_error([1, 0, 0], [1, 0, 0]) == 0.0

    def test_opposite_is_zero(self):
        assert angle_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0)

    def test_45_degrees(self):
        u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert angle_error([1, 0, 0], u) == pytest.approx(45.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            assert angle_error(u, v) == pytest.approx(angle_error(v, u))


class TestAxisPositionError:
    def test_identical_lines(self):
        assert axis_position_error([0, 0, 1], [0, 0, 0],
                                   [0, 0, 1], [0, 0, 5]) == pytest.approx(0.0)

    def test_parallel_offset(self):
        assert axis_position_error([0, 0, 1], [0, 0, 0],
                                   [0, 0, 1], [0.1, 0, 0]) == pytest.approx(0.1)

    def test_skew_pair(self):
        assert axis_position_error([0, 0, 1], [0, 0, 0],
                                   [0, 1, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a_ax, b_ax = rng.normal(size=3), rng.normal(size=3)
            a_p, b_p = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            d1 = axis_position_error(a_ax, a_p, b_ax, b_p)
            d2 = axis_position_error(b_ax, b_p, a_ax, a_p)
            assert d1 == pytest.approx(d2, abs=1e-12)


class TestSegmentationIoU:
    def test_identical(self):
        m = np.array([True, False, True])
        assert segmentation_iou(m, m) == 1.0

    def test_disjoint(self):
        assert segmentation_iou([True, False], [False, True]) == 0.0

    def test_half(self):
        pred = [True, False, False, False]
        gt = [True, True, False, False]
        assert segmentation_iou(pred, gt) == 0.5

    def test_empty_union_is_one(self):
        assert segmentation_iou([False, False], [False, False]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            segmentation_iou([True], [True, False])


def make_scene_record(seed=0, n_rev=1, n_pris=1):
    gt_joints = []
    for i in range(n_pris):
        gt_joints.append({"index": i, "type": "prismatic",
                          "axis": [1, 0, 0], "pivot": None})
    for i in range(n_rev):
        gt_joints.append({"index": n_pris + i, "type": "revolute",
                          "axis": [0, 0, 1], "pivot": [0, 0, 0]})
    interactions = [
        rec(joint=0, delta=0.3, hotspot=0),
        rec(joint=n_pris, delta=math.radians(45), hotspot=1),
        rec(success=False, hotspot=2),
    ]
    inferences = [
        {"hotspot_id": 0, "kind": "prismatic", "axis": [1, 0, 0],
         "pivot": None, "state": 0.3, "iou": 0.97,
         "gt_joint": gt_joints[0]},
        {"hotspot_id": 1, "kind": "revolute", "axis": [0, 0, 1],
         "pivot": [0.01, 0, 0], "state": math.radians(45), "iou": 0.98,
         "gt_joint": gt_joints[n_pris]},
    ]
    return {"scene_seed": seed, "interactions": interactions,
            "inferences": inferences, "gt_joints": gt_joints}


class TestBuildReport:
    def test_empty_run(self):
        scene = {"scene_seed": 1, "interactions": [], "inferences": [],
                 "gt_joints": [{"index": 0, "type": "revolute",
                                "axis": [0, 0, 1], "pivot": [0, 0, 0]}]}
        report = build_report([scene])
        agg = report.aggregate
        assert agg["precision"] is None
        assert agg["coverage"]["revolute"]["30"] == 0.0
        assert agg["angle_error_revolute"]["mean"] is None

    def test_deterministic_json(self, tmp_path):
        scenes = [make_scene_record(0), make_scene_record(1)]
        for name in ("a.json", "b.json"):
            write_doc(build_report(scenes).to_dict(), tmp_path / name)
        a, b = ((tmp_path / n).read_text() for n in ("a.json", "b.json"))
        assert a == b
        json.loads(a)

    def test_aggregate_counts_sum(self):
        scenes = [make_scene_record(s) for s in range(4)]
        report = build_report(scenes)
        per = report.per_scene
        agg = report.aggregate
        for key in ("parts", "attempts", "successes", "inferences"):
            assert agg["counts"][key] == sum(p["counts"][key] for p in per)

    def test_missing_stage_named(self):
        with pytest.raises(ArtifactError, match="inferences"):
            build_report([{"scene_seed": 0, "interactions": [],
                           "gt_joints": []}])

    def test_table_renders(self):
        report = build_report([make_scene_record()])
        text = render_table(report)
        assert "precision" in text
        assert "coverage revolute >30 deg" in text

    def test_csv_rows(self):
        rows = per_joint_csv_rows([make_scene_record()])
        assert len(rows) == 2
        assert rows[1]["joint_type"] == "revolute"
        assert rows[1]["position_error_m"] == pytest.approx(0.01)


class TestNaiveCountingOracle:
    def test_randomized_logs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_joints = int(rng.integers(1, 6))
            gt = [{"index": i,
                   "type": "prismatic" if rng.uniform() < 0.5 else "revolute"}
                  for i in range(n_joints)]
            records = []
            for _ in range(int(rng.integers(0, 12))):
                stage = "initial" if rng.uniform() < 0.7 else "refine"
                success = bool(rng.uniform() < 0.6)
                joint = int(rng.integers(0, n_joints)) if success else None
                delta = float(rng.uniform(-1.0, 1.0)) if success else 0.0
                records.append(rec(stage=stage, success=success, joint=joint,
                                   delta=delta))
            # naive re-count
            init = [r for r in records if r["stage"] == "initial"]
            p_naive = (sum(r["success"] for r in init) / len(init)) if init else None
            got = precision(records)
            if p_naive is None:
                assert got is None
            else:
                assert got == pytest.approx(p_naive)
            totals = {}
            for r in records:
                if r["success"]:
                    totals[r["moved_joint"]] = totals.get(r["moved_joint"], 0.0) \
                        + r["delta_state"]
            cov = coverage(records, gt)
            n_p = sum(1 for g in gt if g["type"] == "prismatic")
            n_r = len(gt) - n_p
            pris = sum(1 for g in gt if g["type"] == "prismatic"
                       and abs(totals.get(g["index"], 0.0)) > 0.05)
            r15 = sum(1 for g in gt if g["type"] == "revolute"
                      and math.degrees(abs(totals.get(g["index"], 0.0))) > 15)
            r30 = sum(1 for g in gt if g["type"] == "revolute"
                      and math.degrees(abs(totals.get(g["index"], 0.0))) > 30)
            if n_p:
                assert cov["prismatic"] == pytest.approx(pris / n_p)
            if n_r:
                assert cov["revolute"]["15"] == pytest.approx(r15 / n_r)
                assert cov["revolute"]["30"] == pytest.approx(r30 / n_r)
                assert cov["revolute"]["30"] <= cov["revolute"]["15"]
