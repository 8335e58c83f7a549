#!/usr/bin/env python3
"""scenekin benchmark: one workload through all five pipeline stages.

    python3 bench/run.py --workload probe-default --seed 0 --seconds 20 --trace 0

The benchmark is single-process, closed-loop and serial (one client,
run.workers 1): each stage starts when the previous one returns. --seed
becomes the scenekin root seed of the run, so it generates the rooms the loop
runs on; a workload may train its model on rooms of a fixed root seed.

--trace 0 measures the end-to-end metrics untraced: set-up (gen_scenes,
collect, train_model) three times, then `run` passes over the same scenes
until --seconds is spent (at least one pass). --trace 1 sets up once under
the tracer, makes one untraced and one traced `run` pass, and prints the
per-layer metrics and the tracing overhead.

Every pass is checked (config hashes, artifact versions, report against the
hotspot funnel, byte-identical run/ and eval/ trees across passes). The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"};
the exit code is 1 when a check failed and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_runs")
SETUP_REPS = 3

sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for k, v in over.items():
        out[k] = _merge(out[k], v) if isinstance(v, dict) and k in out else v
    return out


def code_digest() -> str:
    """sha256 over the scenekin sources and this benchmark's own files."""
    files = []
    for top in (os.path.join(SRC, "scenekin"), HERE):
        files += [os.path.join(top, f) for f in os.listdir(top)
                  if f.endswith(".py")]
    h = hashlib.sha256()
    for path in sorted(files):
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Pass:
    seconds: float      # wall time of `run`
    digest: str         # sha256 over the run/ and eval/ trees
    funnel: dict
    agg: dict           # report.v1 aggregate


class Bench:
    """One workload at one seed; counts stage calls and failed checks."""

    def __init__(self, workload, seed: int, work_dir: str):
        from scenekin.config import config_from_dict, config_hash

        base = dict(workload.config, seed=seed)
        train_seed = (seed if workload.train_seed is None
                      else workload.train_seed)
        self.workload = workload
        self.work = work_dir
        self.cfg_train = config_from_dict(
            _merge(base, {"seed": train_seed,
                          "run": {"n_scenes": workload.train_scenes}}))
        self.cfg_run = config_from_dict(
            _merge(base, {"run": {"n_scenes": workload.run_scenes}}))
        self.hash_train = config_hash(self.cfg_train)
        self.hash_run = config_hash(self.cfg_run)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _stage(self, fn, *args):
        self.attempted += 1
        return fn(*args)

    def _fail(self, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            self.errors += errors

    def setup(self, tag: str) -> tuple[float, str, dict]:
        """gen_scenes + collect + train_model; returns (seconds, dir, collect
        manifest)."""
        from scenekin import pipeline

        d = os.path.join(self.work, tag)
        p = {k: os.path.join(d, k)
             for k in ("train_scenes", "dataset", "model", "scenes")}
        t0 = time.perf_counter()
        self._stage(pipeline.gen_scenes, self.cfg_train, p["train_scenes"])
        manifest = self._stage(pipeline.collect, self.cfg_train,
                               p["train_scenes"], p["dataset"])
        self._stage(pipeline.train_model, self.cfg_train, p["dataset"],
                    p["model"])
        self._stage(pipeline.gen_scenes, self.cfg_run, p["scenes"])
        seconds = time.perf_counter() - t0
        self._fail(checks.check_scenes(p["train_scenes"], self.hash_train)
                   + checks.check_scenes(p["scenes"], self.hash_run)
                   + checks.check_setup(p["dataset"], p["model"],
                                        self.hash_train))
        return seconds, d, manifest

    def run_pass(self, setup_dir: str, tag: str) -> Pass:
        """One `run` over the workload's scenes plus `evaluate`, checked."""
        from scenekin import pipeline

        d = os.path.join(self.work, tag)
        run_dir, eval_dir = os.path.join(d, "run"), os.path.join(d, "eval")
        scenes = os.path.join(setup_dir, "scenes")
        model = os.path.join(setup_dir, "model", "model.json")
        t0 = time.perf_counter()
        self._stage(pipeline.run, self.cfg_run, scenes, model, run_dir)
        seconds = time.perf_counter() - t0
        self._stage(pipeline.evaluate, self.cfg_run, run_dir, scenes, eval_dir)
        errors, funnel, agg = checks.check_run(run_dir, eval_dir,
                                               self.hash_run)
        self._fail(errors)
        return Pass(seconds, checks.tree_digest(run_dir, eval_dir), funnel,
                    agg)

    def same_digest(self, what: str, digests: list[str]) -> None:
        for k, dg in enumerate(digests[1:], start=1):
            self._fail([] if dg == digests[0] else
                       [f"{what} {k} digest {dg[:12]} != {digests[0][:12]}"])


def measure(bench: Bench, seconds: float) -> dict:
    setups = [bench.setup(f"setup{k}") for k in range(SETUP_REPS)]
    bench.same_digest("setup", [
        checks.tree_digest(*(os.path.join(d, k) for k in
                             ("train_scenes", "dataset", "model", "scenes")))
        for _, d, _ in setups])
    _, setup_dir, collect = setups[-1]

    passes, start = [], time.perf_counter()
    while True:
        passes.append(bench.run_pass(setup_dir, f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > seconds:
            break
    bench.same_digest("pass", [p.digest for p in passes])

    first = passes[0]
    ops = metrics.op_counts(collect, bench.workload.run_scenes, first.funnel)
    setup_s = metrics.summarize([s[0] for s in setups])
    run_s = metrics.summarize([p.seconds for p in passes])
    print("setup " + metrics.describe(setup_s, "s"))
    print(f"run of {bench.workload.run_scenes} scenes "
          + metrics.describe(run_s, "s"))
    print("digest run+eval sha256:" + first.digest)
    print("quality " + json.dumps(metrics.quality(first.agg), sort_keys=True))
    print("funnel " + json.dumps(first.funnel, sort_keys=True)
          + f" ops attempted {ops[0]} failed {ops[1]}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s["median"], "s"),
        "run_scenes_per_h": (bench.workload.run_scenes * 3600.0
                             / run_s["median"], "scenes/h"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def trace(bench: Bench) -> dict:
    from tracing import Tracer, calls_under, span_totals

    tracer = Tracer(bench.workload.name)
    with tracer:
        _, setup_dir, collect = bench.setup("setup")
    untraced = bench.run_pass(setup_dir, "untraced")
    with tracer:
        traced = bench.run_pass(setup_dir, "traced")
    bench.same_digest("traced pass", [untraced.digest, traced.digest])
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(
        WORK, f"spans-{bench.workload.name}-{bench.cfg_run.seed}.jsonl"))

    funnel = traced.funnel
    ops = metrics.op_counts(collect, bench.workload.run_scenes, funnel)
    table = metrics.per_layer(span_totals(tracer.spans), tracer.counters,
                              funnel, traced.agg, ops,
                              traced.seconds - untraced.seconds)
    rooms = [s["end"] - s["start"] for s in tracer.spans
             if s["name"] == "pipeline.run_scene"]
    print("traced room time "
          + metrics.describe(metrics.summarize(rooms), "s"))
    print("digest run+eval sha256:" + traced.digest)
    print(f"tracing overhead: run {untraced.seconds:.3f} s untraced, "
          f"{traced.seconds:.3f} s traced")
    print("bindings " + json.dumps(tracer.bindings, sort_keys=True))

    errors = [f"{name}: no binding patched"
              for name, n in tracer.bindings.items() if n == 0]
    ia = "artinfer.infer_articulation"
    in_refine = calls_under(tracer.spans, ia, "refine.refine_loop")
    if table[ia + ".calls"][0] - in_refine != funnel["entries"]:
        errors.append(f"{ia}: {table[ia + '.calls'][0]} calls, {in_refine} "
                      f"inside refine_loop, {funnel['entries']} entries")
    if bench.workload.expect_refinement and not (
            in_refine > 0 and table["refine.refine_loop.iterations"][0] > 0):
        errors.append("refinement did not run an inference")
    for name in bench.workload.expect_zero_calls:
        if table[name + ".calls"][0]:
            errors.append(f"{name}: expected no calls")
    errors += check_counts_repeat(bench, table)
    bench._fail(errors)
    return table


def check_counts_repeat(bench: Bench, table: dict) -> list[str]:
    """Exact counts must equal those of an earlier traced run of the same
    code, workload and seed (recorded under the work directory)."""
    counts = {k: table[k][0] for k in metrics.EXACT_COUNTS}
    path = os.path.join(WORK, "counts", f"{bench.workload.name}-"
                        f"{bench.cfg_run.seed}-{code_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return [f"count {k} drifted: {earlier.get(k)} -> {v}"
                for k, v in counts.items() if earlier.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scenekin", "pipeline.py")):
        print(f"error: no scenekin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    print(f"workload {args.workload} seed {args.seed} config_hash "
          f"{bench.hash_run} (train {bench.hash_train})")
    try:
        table = trace(bench) if args.trace else measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [k for k in table if not metrics.valid_name(k)]
    bench._fail([f"invalid metric name {k!r}" for k in bad])
    for e in bench.errors:
        print("check failed: " + e, file=sys.stderr)
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
