import hashlib
import json
import os

import pytest

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
                 "--out", str(base / "run"),
                 "--oracle-correspondence"]) == 0
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
            # the run is ablated (--oracle-correspondence); every artifact
            # still carries the hash of the config file as given
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

    def test_json_summary(self, workspace, capsys):
        base, cfg = workspace
        assert main(["--json", "eval", "--config", str(cfg),
                     "--run", str(base / "run"),
                     "--scenes", str(base / "scenes"),
                     "--out", str(base / "eval_json")]) == 0
        out = capsys.readouterr().out.strip()
        doc = json.loads(out)
        assert "aggregate" in doc

    def test_run_flags_default_to_config(self, workspace, tmp_path):
        base, _ = workspace
        ablated = tmp_path / "ablated.json"
        ablated.write_text(json.dumps({
            **TINY, "run": {"n_scenes": 2, "max_hotspots": 0, "refine": False},
            "inference": {"use_contact_heat": False}}))
        defaults = tmp_path / "defaults.json"
        defaults.write_text(json.dumps(
            {**TINY, "run": {"n_scenes": 2, "max_hotspots": 0}}))

        def flags(cfg, *extra):
            out = tmp_path / f"run{len(os.listdir(tmp_path))}"
            assert main(["run", "--config", str(cfg),
                         "--scenes", str(base / "scenes"),
                         "--model", str(base / "model" / "model.json"),
                         "--out", str(out), *extra]) == 0
            return json.loads((out / "manifest.json").read_text())["flags"]

        off = {"refine": False, "regularity": False, "mode": "icp"}
        assert flags(ablated) == off
        assert flags(defaults) == {"refine": True, "regularity": True,
                                   "mode": "icp"}
        assert flags(defaults, "--no-refine", "--no-regularity") == off

    def test_scene_dir_loader(self, workspace):
        base, _ = workspace
        scenes = load_scene_dir(base / "scenes")
        assert len(scenes) == 2
