"""Output checks on the artifacts of one benchmark pass.

Every function returns a list of error strings; an empty list means the
artifacts passed. `tree_digest` fingerprints an output tree so repeated and
traced passes can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os


def tree_digest(*dirs) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for top in dirs:
        base = os.path.basename(os.path.normpath(top))
        for root, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                rel = os.path.join(base, os.path.relpath(path, top))
                h.update(rel.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _expect(doc: dict, path: str, version: str,
            chash: str | None) -> list[str]:
    errors = []
    if doc.get("version") != version:
        errors.append(f"{path}: version {doc.get('version')!r} != {version!r}")
    if chash is not None and doc.get("config_hash") != chash:
        errors.append(f"{path}: config_hash {doc.get('config_hash')!r} "
                      f"!= {chash!r}")
    return errors


def check_scenes(scenes_dir, chash: str) -> list[str]:
    manifest = _load(os.path.join(scenes_dir, "manifest.json"))
    errors = _expect(manifest, "scenes/manifest.json", "scene_manifest.v1",
                     chash)
    for entry in manifest["scenes"]:
        errors += _expect(_load(os.path.join(scenes_dir, entry["file"])),
                          entry["file"], "scene_spec.v1", chash)
    return errors


def check_setup(dataset_dir, model_dir, chash: str) -> list[str]:
    manifest = _load(os.path.join(dataset_dir, "manifest.json"))
    errors = _expect(manifest, "dataset/manifest.json", "collect_manifest.v1",
                     chash)
    for entry in manifest["scenes"]:
        if entry["status"] == "ok":
            errors += _expect(_load(os.path.join(dataset_dir,
                                                 entry["labels"])),
                              entry["labels"], "afford_labels.v1", None)
    errors += _expect(_load(os.path.join(model_dir, "model.json")),
                      "model.json", "afford_model.v1", chash)
    return errors


def funnel(run_dir) -> dict[str, int]:
    """Hotspot funnel and inference counts read from the inference.v1 logs.

    hotspots: NMS hotspots considered; skipped: rejected before any pull;
    probed: initial-stage probes; moved: probes whose pull moved a part;
    inferred: inference entries with status ok; failed: entries with a
    "failed:" status; entries: all inference entries; refine_iterations:
    refinement log entries.
    """
    manifest = _load(os.path.join(run_dir, "manifest.json"))
    out = dict.fromkeys(("hotspots", "skipped", "probed", "moved", "inferred",
                         "failed", "entries", "refine_iterations"), 0)
    for entry in manifest["scenes"]:
        doc = _load(os.path.join(run_dir, entry["inference"]))
        out["hotspots"] += len(doc["hotspots"]["items"])
        for rec in doc["interactions"]:
            out["skipped"] += rec["stage"] == "skipped"
            if rec["stage"] == "initial":
                out["probed"] += 1
                out["moved"] += bool(rec["success"])
        for inf in doc["inferences"]:
            out["inferred"] += inf["status"] == "ok"
            out["failed"] += inf["status"].startswith("failed:")
            out["entries"] += 1
        out["refine_iterations"] += sum(len(r["log"])
                                        for r in doc["refinements"])
    return out


def check_run(run_dir, eval_dir, chash: str) -> tuple[list[str], dict, dict]:
    """Check run and eval artifacts.

    Returns (errors, funnel, report.v1 aggregate)."""
    manifest = _load(os.path.join(run_dir, "manifest.json"))
    errors = _expect(manifest, "run/manifest.json", "run_manifest.v1", chash)
    for entry in manifest["scenes"]:
        doc = _load(os.path.join(run_dir, entry["inference"]))
        errors += _expect(doc, entry["inference"], "inference.v1", chash)
        errors += _expect(doc["hotspots"], entry["inference"] + ":hotspots",
                          "hotspots.v1", None)
        errors += _expect(_load(os.path.join(run_dir, entry["model"])),
                          entry["model"], "scene_model.v1", chash)
    counts = funnel(run_dir)
    if counts["inferred"] + counts["failed"] != counts["entries"]:
        errors.append("an inference entry is neither ok nor failed")
    try:
        report = _load(os.path.join(eval_dir, "report.json"))
    except (OSError, ValueError) as e:
        return errors + [f"report.json does not parse: {e}"], counts, {}
    errors += _expect(report, "eval/report.json", "report.v1", chash)
    agg = report.get("aggregate", {})
    reported = agg.get("counts", {})
    if reported.get("attempts") != counts["probed"]:
        errors.append(f"report attempts {reported.get('attempts')} "
                      f"!= probed {counts['probed']}")
    if reported.get("inferences") != counts["inferred"]:
        errors.append(f"report inferences {reported.get('inferences')} "
                      f"!= inferred {counts['inferred']}")
    return errors, counts, agg
