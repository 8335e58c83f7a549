"""Command-line front end.

Subcommands mirror the pipeline stages::

    scenekin gen-scenes --config cfg.json --out scenes/
    scenekin collect    --config cfg.json --scenes scenes/ --out dataset/
    scenekin train      --config cfg.json --dataset dataset/ --out model/
    scenekin run        --config cfg.json --scenes scenes/ --model model/model.json --out run/
    scenekin eval       --config cfg.json --run run/ --scenes scenes/ --out eval/

Every setting, the ablations included, is a key of the config file; the
only options besides input and output paths are --workers and --force,
which change no artifact. Pass --json to print a machine-readable summary on
stdout. Exit code is 0 only when every requested scene completed, and 2 on a
named error such as a missing input directory or another stage's output
directory given as an input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .config import PipelineConfig, load_config
from .errors import SceneKinError


def _load(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _workers(text: str) -> int:
    # str.isdigit alone also takes non-ASCII digits such as "²" and "٣"
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _emit(args, summary: dict) -> None:
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")


def cmd_gen_scenes(args) -> int:
    config = _load(args)
    manifest = pipeline.gen_scenes(config, args.out)
    _emit(args, {"scenes": len(manifest["scenes"]), "out": args.out,
                 "config_hash": manifest["config_hash"]})
    return 0


def cmd_collect(args) -> int:
    config = _load(args)
    manifest = pipeline.collect(config, args.scenes, args.out)
    failed = [e["seed"] for e in manifest["scenes"]
              if e.get("status") != "ok"]
    _emit(args, {"scenes": len(manifest["scenes"]), "failed": failed,
                 "out": args.out})
    return 1 if failed else 0


def cmd_train(args) -> int:
    config = _load(args)
    summary = pipeline.train_model(config, args.dataset, args.out)
    _emit(args, summary)
    return 0


def cmd_run(args) -> int:
    config = _load(args)
    manifest = pipeline.run(config, args.scenes, args.model, args.out,
                            workers=args.workers)
    _emit(args, {"scenes": len(manifest["scenes"]),
                 "config_hash": manifest["config_hash"], "out": args.out})
    return 0


def cmd_eval(args) -> int:
    config = _load(args)
    report = pipeline.evaluate(config, args.run, args.scenes, args.out,
                               force=args.force)
    _emit(args, {"out": args.out, "aggregate": report.aggregate})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenekin",
        description="Build articulation models of simulated indoor scenes "
                    "through interactive probing.")
    parser.add_argument("--json", action="store_true",
                        help="print a JSON summary on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs=()):
        p.add_argument("--config", help="pipeline config JSON "
                                        "(defaults apply when omitted)")
        p.add_argument("--out", required=True, help="output directory")
        if "scenes" in needs:
            p.add_argument("--scenes", required=True,
                           help="scene directory from gen-scenes")

    p = sub.add_parser("gen-scenes", help="generate seeded scenes")
    common(p)
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("collect", help="collect affordance labels")
    common(p, needs=("scenes",))
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="train the affordance classifier")
    common(p)
    p.add_argument("--dataset", required=True,
                   help="collect output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="run the interactive perception loop")
    common(p, needs=("scenes",))
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--workers", type=_workers, default=1,
                   help="parallel scene workers; not a config key, so the "
                        "config hash and the artifacts do not depend on it")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a run against ground truth")
    common(p)
    p.add_argument("--run", required=True, help="run output directory")
    p.add_argument("--scenes", required=True, help="scene directory")
    p.add_argument("--force", action="store_true",
                   help="evaluate despite a config hash mismatch")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SceneKinError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
