import hashlib
import json
import os
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenekin.cli import main
from scenekin.config import (
    PipelineConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    derive_seed,
)
from scenekin.errors import ConfigError, ValidationError
from scenekin.pipeline import load_scene_dir
from scenekin.simworld import load_scene

from conftest import TINY


def _leaves(doc: dict, path=()):
    """(key path, default value) of every scalar or list in a config dict."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _valid_value(default):
    """A value of the default's type that every config check accepts."""
    if isinstance(default, list):
        return st.tuples(*map(_valid_value, default)).map(list)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(0, 10 ** 6)
    if isinstance(default, float):
        return st.floats(1e-3, 1e3)
    return st.sampled_from(["icp", "oracle"])  # inference.mode


@st.composite
def override_dicts(draw):
    leaves = sorted(_leaves(config_to_dict(PipelineConfig())))
    chosen = draw(st.lists(st.sampled_from(leaves), max_size=8,
                           unique_by=lambda leaf: leaf[0]))
    doc: dict = {}
    for path, default in chosen:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_valid_value(default))
    return doc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert main(["gen-scenes", "--config", str(cfg),
                 "--out", str(base / "scenes")]) == 0
    assert main(["collect", "--config", str(cfg),
                 "--scenes", str(base / "scenes"),
                 "--out", str(base / "data")]) == 0
    assert main(["train", "--config", str(cfg),
                 "--dataset", str(base / "data"),
                 "--out", str(base / "model")]) == 0
    assert main(["run", "--config", str(cfg),
                 "--scenes", str(base / "scenes"),
                 "--model", str(base / "model" / "model.json"),
                 "--out", str(base / "run")]) == 0
    assert main(["eval", "--config", str(cfg),
                 "--run", str(base / "run"),
                 "--scenes", str(base / "scenes"),
                 "--out", str(base / "eval")]) == 0
    return base, cfg


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"seed": 1, "no_such_section": {}})
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"generation": {"n_doors": 3}})

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": "not-a-number"})
        with pytest.raises(ConfigError):
            config_from_dict({"hotspot": {"radius": "wide"}})

    def test_round_trip(self):
        config = config_from_dict(TINY)
        back = config_from_dict(config_to_dict(config))
        assert config_to_dict(back) == config_to_dict(config)
        assert config_hash(back) == config_hash(config)

    def test_default_document_loads_back_equal_and_hashable(self):
        back = config_from_dict(config_to_dict(PipelineConfig()))
        assert back == PipelineConfig()
        assert isinstance(back.generation.drawer_cabinet_height, tuple)
        hash(back)

    def test_tuple_items_type_checked(self):
        with pytest.raises(ConfigError, match=r"capture\.resolution\[0\]"):
            config_from_dict({"capture": {"resolution": ["64", 48]}})
        with pytest.raises(ConfigError, match=r"ring_tilts_deg\[1\]"):
            config_from_dict({"capture": {"ring_tilts_deg": [-30.0, True]}})

    def test_tuple_length_checked(self):
        with pytest.raises(ConfigError, match="generation.room_width"):
            config_from_dict({"generation": {"room_width": [4.0]}})
        with pytest.raises(ConfigError, match="capture.resolution"):
            config_from_dict({"capture": {"resolution": [64, 48, 1]}})

    @pytest.mark.parametrize("sigma", [0.0, -0.05])
    def test_non_positive_heat_sigma_rejected(self, sigma):
        with pytest.raises(ValidationError, match="heat sigma"):
            config_from_dict({"inference": {"heat_sigma": sigma}})

    @pytest.mark.parametrize("radius", [0.0, -0.25])
    def test_non_positive_hotspot_radius_rejected(self, radius):
        with pytest.raises(ValidationError, match="hotspot radius"):
            config_from_dict({"hotspot": {"radius": radius}})

    def test_unknown_inference_mode_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            config_from_dict({"inference": {"mode": "bogus"}})
        for mode in ("icp", "oracle"):
            assert config_from_dict(
                {"inference": {"mode": mode}}).inference.mode == mode

    def test_default_hash_is_pinned(self):
        # the value every default-config artifact carries; moving a config
        # class between modules must not change it
        assert config_hash(PipelineConfig()) == "b5cbfcc54f48b05f"

    @given(override_dicts())
    def test_overrides_round_trip(self, overrides):
        config = config_from_dict(overrides)
        back = config_from_dict(config_to_dict(config))
        assert back == config
        assert config_hash(back) == config_hash(config)

    @pytest.mark.parametrize("voxel", [0.0, -0.02])
    def test_non_positive_voxel_rejected(self, voxel):
        with pytest.raises(ValidationError, match="capture voxel"):
            config_from_dict({"capture": {"voxel": voxel}})

    def test_hash_changes_with_values(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 2})
        assert config_hash(a) != config_hash(b)

    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config_hash(config)

    def test_derive_seed_deterministic_and_split(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestGenScenes:
    def test_deterministic_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY))
        for out in ("a", "b"):
            assert main(["gen-scenes", "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        for name in sorted(os.listdir(tmp_path / "a")):
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb, name

    def test_zero_scenes_empty_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "run": {"n_scenes": 0}}))
        assert main(["gen-scenes", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenes"] == []

    def test_manifest_counts_match_files(self, workspace):
        base, _ = workspace
        manifest = json.loads((base / "scenes" / "manifest.json").read_text())
        for entry in manifest["scenes"]:
            scene = load_scene(base / "scenes" / entry["file"])
            assert len(scene.parts) == entry["n_parts"]
            assert len(scene.joints) == entry["n_joints"]
            assert scene.seed == entry["seed"]


class TestPipelineArtifacts:
    def test_collect_outputs(self, workspace):
        base, _ = workspace
        manifest = json.loads((base / "data" / "manifest.json").read_text())
        assert all(e["status"] == "ok" for e in manifest["scenes"])
        for entry in manifest["scenes"]:
            assert (base / "data" / entry["cloud"]).exists()
            labels = json.loads((base / "data" / entry["labels"]).read_text())
            assert labels["version"] == "afford_labels.v1"

    def test_train_log_one_row_per_epoch(self, workspace):
        base, _ = workspace
        rows = (base / "model" / "train_log.csv").read_text().strip().splitlines()
        assert len(rows) == TINY["affordance"]["train"]["epochs"] + 1  # header

    def test_run_artifacts_versioned(self, workspace):
        base, _ = workspace
        manifest = json.loads((base / "run" / "manifest.json").read_text())
        assert manifest["version"] == "run_manifest.v1"
        for entry in manifest["scenes"]:
            doc = json.loads((base / "run" / entry["inference"]).read_text())
            assert doc["version"] == "inference.v1"
            model = json.loads((base / "run" / entry["model"]).read_text())
            assert model["version"] == "scene_model.v1"
            # every artifact carries the hash of the config file
            assert model["config_hash"] == manifest["config_hash"]
        assert manifest["config_hash"] == config_hash(config_from_dict(TINY))

    def test_eval_outputs(self, workspace):
        base, _ = workspace
        report = json.loads((base / "eval" / "report.json").read_text())
        assert report["version"] == "report.v1"
        assert (base / "eval" / "report.txt").exists()
        assert (base / "eval" / "per_joint.csv").exists()

    def test_eval_refuses_mismatched_hash(self, workspace, tmp_path):
        base, _ = workspace
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({**TINY, "seed": 99}))
        code = main(["eval", "--config", str(other_cfg),
                     "--run", str(base / "run"),
                     "--scenes", str(base / "scenes"),
                     "--out", str(tmp_path / "eval2")])
        assert code == 2
        assert main(["eval", "--config", str(other_cfg),
                     "--run", str(base / "run"),
                     "--scenes", str(base / "scenes"),
                     "--out", str(tmp_path / "eval2"), "--force"]) == 0

    @pytest.mark.parametrize("mismatch", ["other_seeds", "other_joints"])
    def test_eval_checks_the_scenes_directory(self, workspace, tmp_path,
                                              capsys, mismatch):
        """eval scores only against the scenes the run saw: a --scenes
        directory that lacks a run scene's seed, or holds other joints for
        it, is a named error and no report is written."""
        base, cfg = workspace
        scenes = tmp_path / "scenes"
        if mismatch == "other_seeds":
            other_cfg = tmp_path / "other.json"
            other_cfg.write_text(json.dumps({**TINY, "seed": 6}))
            assert main(["gen-scenes", "--config", str(other_cfg),
                         "--out", str(scenes)]) == 0
            message = "is not in"
        else:
            shutil.copytree(base / "scenes", scenes)
            path = scenes / "scene_0000.json"
            doc = json.loads(path.read_text())
            doc["joints"][0]["axis"] = [-a for a in doc["joints"][0]["axis"]]
            path.write_text(json.dumps(doc))
            message = "differ from scene_0000.json"
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--run", str(base / "run"),
                     "--scenes", str(scenes), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_json_summary(self, workspace, capsys):
        base, cfg = workspace
        assert main(["--json", "eval", "--config", str(cfg),
                     "--run", str(base / "run"),
                     "--scenes", str(base / "scenes"),
                     "--out", str(base / "eval_json")]) == 0
        out = capsys.readouterr().out.strip()
        doc = json.loads(out)
        assert "aggregate" in doc

    @pytest.mark.parametrize("ablation, flag", [
        ({"run": {**TINY["run"], "refine": False}}, "refine"),
        ({"inference": {"use_contact_heat": False}}, "regularity")],
        ids=["refine", "regularity"])
    def test_ablation_is_a_config_key(self, workspace, tmp_path, ablation,
                                      flag):
        """A run whose config differs from the workspace run's in one
        ablation key differs from it in config hash and flags, and eval
        refuses either run under the other's config unless --force is
        given."""
        base, full_cfg = workspace
        ablated_cfg = tmp_path / "ablated.json"
        ablated_cfg.write_text(json.dumps({**TINY, **ablation}))
        assert main(["run", "--config", str(ablated_cfg),
                     "--scenes", str(base / "scenes"),
                     "--model", str(base / "model" / "model.json"),
                     "--out", str(tmp_path / "ablated")]) == 0
        full, ablated = (json.loads((run / "manifest.json").read_text())
                         for run in (base / "run", tmp_path / "ablated"))
        assert full["config_hash"] != ablated["config_hash"]
        assert full["flags"] == {"refine": True, "regularity": True,
                                 "mode": "icp"}
        assert ablated["flags"] == {**full["flags"], flag: False}

        def evaluate(run, cfg, *extra):
            return main(["eval", "--config", str(cfg), "--run", str(run),
                         "--scenes", str(base / "scenes"),
                         "--out", str(tmp_path / "eval"), *extra])

        assert evaluate(tmp_path / "ablated", full_cfg) == 2
        assert evaluate(base / "run", ablated_cfg) == 2
        assert evaluate(tmp_path / "ablated", full_cfg, "--force") == 0
        assert evaluate(tmp_path / "ablated", ablated_cfg) == 0

    @pytest.mark.parametrize("command", ["collect", "train", "run", "eval"])
    def test_missing_input_directory_is_a_named_error(self, workspace,
                                                      tmp_path, capsys,
                                                      command):
        base, cfg = workspace
        missing = str(tmp_path / "missing")
        inputs = {
            "collect": ["--scenes", missing],
            "train": ["--dataset", missing],
            "run": ["--scenes", missing,
                    "--model", str(base / "model" / "model.json")],
            "eval": ["--run", missing, "--scenes", str(base / "scenes")],
        }[command]
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), *inputs,
                     "--out", str(out)]) == 2
        assert f"no manifest.json in {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file_is_a_named_error(self, workspace, tmp_path,
                                                 capsys):
        base, cfg = workspace
        model = str(tmp_path / "model.json")
        assert main(["run", "--config", str(cfg),
                     "--scenes", str(base / "scenes"), "--model", model,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"no model file {model}" in capsys.readouterr().err

    def test_scene_dir_loader(self, workspace):
        base, _ = workspace
        scenes = load_scene_dir(base / "scenes")
        assert len(scenes) == 2
