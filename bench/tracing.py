"""Span recorder that wraps scenekin's public functions from outside.

`Tracer.install()` replaces every binding of each traced function, found by
identity across all loaded ``scenekin`` modules (a function imported by name
into another module is a second binding), and `uninstall()` puts the
originals back. Spans stay in memory until `write()`.

Two kinds of wrapper:

* span: one record per call with name, start, end, parent span, workload and
  scene seed;
* counter: hot queries (``simworld`` lookups, ``interact``, ``kabsch``) only
  bump a call count and a time total, since a span per call would mostly
  measure the tracer. Their time is charged to the innermost open span, so it
  does not count as that span's self time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _tally(**measures):
    """Hook adding `measure(args, result)` to the counter "<layer>.<name>"."""
    def hook(c, layer, args, result):
        for suffix, measure in measures.items():
            c[f"{layer}.{suffix}"] += measure(args, result)
    return hook


def _rays(args, result) -> int:
    w, h = args[1].resolution
    return int(w) * int(h)


# (module, attribute, kind, extra-count hook). The layer name of a function
# is "<module>.<attribute>". `rays` and `box_tests` are computed (pixels per
# capture, and rays times the scene's parts), not counted inside the loop.
TARGETS = (
    ("sensing", "raycast_capture", "span", _tally(
        rays=_rays,
        box_tests=lambda a, r: _rays(a, r) * len(a[0].parts),
        points=lambda a, r: len(r))),
    ("sensing", "capture_scene_cloud", "span", None),
    ("sensing", "capture_object_views", "span", None),
    ("sensing", "capture_interaction_after", "span", None),
    ("sensing", "fuse_clouds", "span", None),
    ("artinfer", "infer_articulation", "span", None),
    ("artinfer", "detect_change", "span", None),
    ("artinfer", "change_candidates", "span", None),
    ("artinfer", "estimate_motion", "span", None),
    ("artinfer", "kabsch", "count", None),
    ("artinfer", "screw_decompose", "count", None),
    ("refine", "refine_loop", "span", _tally(
        iterations=lambda a, r: len(r.log),
        accepted=lambda a, r: sum(e.get("status") == "accepted"
                                  for e in r.log))),
    ("refine", "part_affordance", "span", None),
    ("simworld", "generate_scene", "span", None),
    ("simworld", "SceneSpec.world_parts", "count", None),
    ("simworld", "nearest_part", "count", None),
    ("simworld", "surface_normal", "count", None),
    ("simworld", "gripper_clearance", "count", None),
    ("simworld", "project_to_surface", "count", None),
    ("simworld", "interact", "count", _tally(
        engaged=lambda a, r: bool(r[0].engaged))),
    ("affordance", "collect_labels", "span", _tally(
        samples=lambda a, r: len(r.labels))),
    ("affordance", "extract_features", "span", _tally(
        points=lambda a, r: len(r))),
    ("affordance", "train", "span", None),
    ("affordance", "predict", "span", None),
    ("hotspot", "nms", "span", _tally(hotspots=lambda a, r: len(r))),
    ("scenemodel", "aggregate", "span", None),
    ("scenemodel", "export_model", "span", None),
    ("evalkit", "build_report", "span", None),
    ("geom", "estimate_normals", "span", None),
    ("geom", "save_cloud_binary", "span", _tally(
        bytes=lambda a, r: os.path.getsize(a[1]))),
    ("geom", "load_cloud_binary", "span", _tally(
        bytes=lambda a, r: os.path.getsize(a[0]))),
    ("pipeline", "gen_scenes", "span", None),
    ("pipeline", "collect", "span", None),
    ("pipeline", "train_model", "span", None),
    ("pipeline", "run", "span", None),
    ("pipeline", "evaluate", "span", None),
    ("pipeline", "run_scene", "span", None),
    ("pipeline", "observe_interaction", "span", None),
)


def _scene_seed(args):
    for a in args[:2]:
        seed = getattr(a, "seed", None)
        if isinstance(seed, int) and hasattr(a, "parts"):
            return seed
    return None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []
        self._counting = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, extra):
        tracer, c = self, self.counters

        def wrapped(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            seed = _scene_seed(args)
            if seed is None and parent is not None:
                seed = tracer.spans[parent]["scene_seed"]
            rec = {"id": len(tracer.spans), "name": name, "parent": parent,
                   "workload": tracer.workload, "scene_seed": seed,
                   "start": perf_counter(), "end": None, "counted_s": 0.0}
            tracer.spans.append(rec)
            stack.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c[name + ".raised"] += 1
                raise
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if extra is not None:
                extra(c, name, args, result)
            return result

        return wrapped

    def _count(self, name, fn, extra):
        tracer, c = self, self.counters

        def wrapped(*args, **kwargs):
            tracer._counting += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._counting -= 1
                c[name + ".calls"] += 1
                c[name + ".s"] += dt
                # only the outermost counted call is charged to the span
                if tracer._counting == 0 and tracer._stack:
                    tracer.spans[tracer._stack[-1]]["counted_s"] += dt
            if extra is not None:
                extra(c, name, args, result)
            return result

        return wrapped

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import scenekin.pipeline  # noqa: F401  (loads every scenekin module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "scenekin" or n.startswith("scenekin.")]
        for mod_name, attr, kind, extra in TARGETS:
            owner = sys.modules["scenekin." + mod_name]
            name = f"{mod_name}.{attr}"
            wrap = self._span if kind == "span" else self._count
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, wrap(name, original, extra))
                self.bindings[name] = 1
                continue
            original = getattr(owner, attr)
            wrapped = wrap(name, original, extra)
            found = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapped)
                        found += 1
            self.bindings[name] = found

    def _set(self, owner, key, original, wrapped) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id.

    A span's self time is its duration minus the part of its interval that
    its child spans cover, minus the time of counted calls made directly
    inside it (``counted_s``).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"] - covered
                        - s.get("counted_s", 0.0))
    return out


def span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds (outermost span of that name only)
    and self seconds."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        t = totals[s["name"]]
        t["calls"] += 1
        t["self_s"] += selfs[s["id"]]
        p = s["parent"]
        while p is not None and by_id[p]["name"] != s["name"]:
            p = by_id[p]["parent"]
        if p is None:
            t["s"] += s["end"] - s["start"]
    return dict(totals)


def calls_under(spans: list[dict], name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s["id"]: s for s in spans}
    n = 0
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != ancestor:
            p = by_id[p]["parent"]
        n += p is not None
    return n
