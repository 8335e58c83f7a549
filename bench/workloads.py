"""Benchmark workloads: config overrides on top of the scenekin defaults.

Each workload trains the affordance model on `train_scenes` scenes and runs
the interactive loop on `run_scenes` scenes, all generated from the
benchmark's `--seed` (the scenekin root seed). BENCHMARK.json lists
probe-default and survey-dense; ajar-noisy and roadmap-baseline are run by
hand. The workloads capture at 64x48 pixels instead of 160x120 and probe
fewer hotspots per scene than the default 12, so that one run covers enough
rooms to be steady within the time budget; README.md in this directory gives
the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass

_CAPTURE = {"resolution": [64, 48]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    train_scenes: int
    run_scenes: int
    # root seed of the training rooms; None trains on rooms from --seed
    train_seed: int | None = None
    # checked on every traced run
    expect_zero_calls: tuple[str, ...] = ()
    expect_refinement: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="probe-default",
        why="default loop on 16 rooms, 3 probes each: ray casting, "
            "features and joint inference; no capture noise",
        config={"capture": dict(_CAPTURE), "run": {"max_hotspots": 3}},
        train_scenes=2,
        run_scenes=16,
        train_seed=0,
    ),
    # Not in BENCHMARK.json: its run time depends on how many rooms end up
    # refined, and ten seeds spread too far for a bound (see README.md).
    Workload(
        name="ajar-noisy",
        why="4 mm capture noise and 15 cm pulls leave hinges ajar, so "
            "refine_loop, noisy ICP and the capture RNG run",
        config={"capture": dict(_CAPTURE, noise_sigma=0.004),
                "interaction": {"pull": {"total": 0.15}},
                "generation": {"n_revolute": 3, "n_prismatic": 1},
                "run": {"max_hotspots": 1}},
        train_scenes=2,
        run_scenes=12,
        expect_refinement=True,
    ),
    Workload(
        name="survey-dense",
        why="22-part rooms, 1200 probe samples, no probing: ring captures, "
            "simworld queries in collect, whole-room features",
        config={"capture": dict(_CAPTURE),
                "generation": {"n_revolute": 3, "n_prismatic": 3,
                               "n_distractor": 5},
                "affordance": {"samples_per_scene": 1200},
                "run": {"max_hotspots": 0}},
        train_scenes=1,
        run_scenes=16,
        expect_zero_calls=("sensing.capture_object_views",
                           "artinfer.infer_articulation",
                           "refine.refine_loop"),
    ),
    # Not a benchmark workload: the shipped defaults on 4 rooms, for
    # regenerating the ROADMAP baseline figures (takes several minutes).
    Workload(
        name="roadmap-baseline",
        why="default config, 4 scenes, collect and run on the same scenes",
        config={},
        train_scenes=4,
        run_scenes=4,
    ),
)}
