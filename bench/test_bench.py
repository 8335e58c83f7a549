"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
from tracing import Tracer, calls_under, self_times, span_totals  # noqa: E402


def span(i, name, parent, start, end, counted_s=0.0):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end, "counted_s": counted_s}


# root 0..10 with children 1..2 and 2..6, a grandchild 4..5 inside the
# second child and a nested call 4.2..4.4; 1 s of counted calls in the root.
TREE = [
    span(0, "pipeline.run", None, 0.0, 10.0, counted_s=1.0),
    span(1, "sensing.capture_object_views", 0, 1.0, 2.0),
    span(2, "artinfer.infer_articulation", 0, 2.0, 6.0),
    span(3, "artinfer.detect_change", 2, 4.0, 5.0),
    span(4, "artinfer.infer_articulation", 3, 4.2, 4.4),
]


def test_self_time_subtracts_union_of_children_and_counted_calls():
    selfs = self_times(TREE)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0 - 0.2)
    assert selfs[4] == pytest.approx(0.2)
    # self times partition the root's wall time minus counted calls
    assert sum(selfs.values()) == pytest.approx(10.0 - 1.0)


def test_self_time_covers_overlapping_children_once():
    spans = [span(0, "a", None, 0.0, 10.0), span(1, "b", 0, 1.0, 3.0),
             span(2, "c", 0, 2.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_parent_interval():
    spans = [span(0, "a", None, 0.0, 2.0), span(1, "b", 0, 1.5, 3.0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_span_totals_count_nested_same_name_once_inclusive():
    totals = span_totals(TREE)
    ia = totals["artinfer.infer_articulation"]
    assert ia["calls"] == 2
    assert ia["s"] == pytest.approx(4.0)           # the nested call is inside
    assert ia["self_s"] == pytest.approx(3.0 + 0.2)
    assert calls_under(TREE, "artinfer.infer_articulation",
                       "artinfer.detect_change") == 1


def test_summarize_reports_median_count_and_percentile():
    s = metrics.summarize([3.0, 1.0, 2.0])
    assert (s["n"], s["median"], s["pct"]) == (3, 2.0, None)
    s = metrics.summarize(range(1, 21))            # 20 samples
    assert s["n"] == 20 and s["median"] == 10.5
    assert s["pct"] == 50 and s["pct_value"] == 10
    assert sum(v > s["pct_value"] for v in range(1, 21)) >= 10
    assert metrics.describe(s, "s") == ("median 10.5000 s of 20 samples, "
                                        "p50 10.0000 s")
    s = metrics.summarize(range(100))
    assert s["pct"] == 90 and s["pct_value"] == 89
    with pytest.raises(ValueError):
        metrics.summarize([])


def test_op_counts_numerator_and_denominator():
    collect = {"scenes": [{"status": "ok"}, {"status": "failed: capture"}]}
    funnel = {"entries": 5, "failed": 2}
    assert metrics.op_counts(collect, 3, funnel) == (2 + 3 + 5, 1 + 2)
    assert metrics.op_counts(collect, 3, {"entries": 0, "failed": 0}) == (5, 1)
    assert metrics.ratio(0, 0) == 0.0


@pytest.mark.parametrize("name,ok", [
    ("setup_s", True), ("sensing.raycast_capture.self_s", True),
    ("simworld.SceneSpec.world_parts.calls", True), ("a-b_c.d", True),
    ("", False), ("_lead", False), ("has space", False), ("x/y", False),
    ("a" * 64, True), ("a" * 65, False),
])
def test_metric_name_pattern(name, ok):
    assert metrics.valid_name(name) is ok


def test_quality_marks_undefined_figures():
    agg = {"precision": None, "coverage": None,
           "angle_error_revolute": {"mean": None},
           "angle_error_prismatic": {"mean": 1.5},
           "axis_position_error": {"mean": None},
           "mobile_seg_iou_mean": 0.9}
    q = metrics.quality(agg)
    assert q["precision"] == metrics.UNDEFINED
    assert q["coverage_revolute_30"] == metrics.UNDEFINED
    assert q["angle_error_prismatic_deg"] == 1.5
    assert q["seg_iou"] == 0.9


def test_tracer_patches_every_binding_and_restores_them():
    pytest.importorskip("scenekin")
    from scenekin import artinfer, pipeline, refine

    original = artinfer.infer_articulation
    tracer = Tracer("unit")
    with tracer:
        assert pipeline.infer_articulation is artinfer.infer_articulation
        assert refine.infer_articulation is artinfer.infer_articulation
        assert artinfer.infer_articulation is not original
    assert tracer.bindings["artinfer.infer_articulation"] == 3
    assert all(n >= 1 for n in tracer.bindings.values())
    assert pipeline.infer_articulation is original
    assert refine.infer_articulation is original


def test_tracer_records_spans_and_counters():
    pytest.importorskip("scenekin")
    from scenekin import simworld

    with Tracer("unit") as tracer:
        scene = simworld.generate_scene(3)
    (rec,) = tracer.spans
    assert rec["name"] == "simworld.generate_scene"
    assert rec["workload"] == "unit" and rec["parent"] is None
    assert rec["end"] >= rec["start"]
    json.dumps(rec)

    with Tracer("unit") as tracer:
        simworld.surface_normal(scene, scene.parts[0].center)
    assert tracer.spans == []
    c = tracer.counters
    assert c["simworld.surface_normal.calls"] == 1
    assert c["simworld.nearest_part.calls"] == 1
    assert c["simworld.SceneSpec.world_parts.calls"] == 1
    assert c["simworld.surface_normal.s"] >= c["simworld.nearest_part.s"]
