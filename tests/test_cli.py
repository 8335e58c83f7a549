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
from scenekin.geom import load_cloud_binary
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
        return st.integers(1, 10 ** 6)  # affordance.train.hidden is >= 1
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


# sha256 of each directory the workspace fixture writes (`_tree_sha256`)
WORKSPACE_SHA256 = {
    "scenes": "4b592cceff3120207da5fa0c8ed16c7748f214de5cc171d8a32c74c71db736a8",
    "data": "4ebd83869033e04a05b52888162204fe2b7f96e5b6d46bae6d959ed93ee63526",
    "model": "7fcd78f60a6b57dc1e7198f8868993d7405f54cc7b3a726a99a14c73b4d6ed23",
    "run": "f3c9be7581b7375c7fbd7de537f1d0e7fa03a475a06a2cee412e005de98bef21",
    "eval": "466a3b730d0282ca204b8752baeefd4c0be517f11f3dd1e2f986e6dbc9d7d0dd",
}


def _tree_sha256(top) -> str:
    """sha256 over the relative path and bytes of every file under `top`."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(top)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


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
    def test_unknown_key_rejected(self, tmp_path, capsys):
        """Unknown keys, and keys of settings that became constants, are
        refused by name, and a command given them exits 2."""
        for doc, name in (({"seed": 1, "no_such_section": {}},
                           "no_such_section"),
                          ({"generation": {"n_doors": 3}}, "n_doors"),
                          ({"refine": {"max_iters": 3}}, "refine"),
                          ({"aggregate": {"merge_iou": 0.5}}, "aggregate"),
                          ({"inference": {"icp_tol": 1e-6}}, "icp_tol"),
                          ({"capture": {"voxel": 0.02}}, "voxel"),
                          ({"interaction": {"motion_epsilon": 0.001}},
                           "motion_epsilon")):
            with pytest.raises(ConfigError,
                               match=rf"unknown key\(s\) \['{name}'\]"):
                config_from_dict(doc)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            assert main(["gen-scenes", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
            assert f"unknown key(s) ['{name}']" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,literal", [
        ("capture", "noise_sigma", "NaN"), ("hotspot", "radius", "Infinity")])
    def test_non_finite_number_is_a_named_error(self, tmp_path, capsys,
                                                section, key, literal):
        """JSON's NaN and Infinity are refused with the key's path (NaN
        passes every range check as false: a NaN capture voxel, when that
        was a key, collapsed every room's cloud to one point), and the
        command exits 2."""
        text = (f'{{"run": {{"n_scenes": 1}}, '
                f'"{section}": {{"{key}": {literal}}}}}')
        message = f"{section}.{key}: expected a finite number"
        with pytest.raises(ConfigError, match=message.replace(".", r"\.")):
            config_from_dict(json.loads(text))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["gen-scenes", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert config_hash(PipelineConfig()) == "5feed875d9545c81"

    @given(override_dicts())
    def test_overrides_round_trip(self, overrides):
        config = config_from_dict(overrides)
        back = config_from_dict(config_to_dict(config))
        assert back == config
        assert config_hash(back) == config_hash(config)

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

    def test_unplaceable_scene_is_a_named_error(self, tmp_path, capsys):
        """A room the generator cannot fill names the scene that failed."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY,
                                   "generation": {"n_distractor": 40}}))
        assert main(["gen-scenes", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        seed = derive_seed(TINY["seed"], "scene", 0)
        assert (f"scene 0 (seed {seed}): could not place distractor"
                in capsys.readouterr().err)

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
        statuses = []
        for entry in manifest["scenes"]:
            doc = json.loads((base / "run" / entry["inference"]).read_text())
            assert doc["version"] == "inference.v1"
            statuses += [i["status"] for i in doc["inferences"]]
            # the run records what the loop did; ground truth stays in the
            # scene files, and the config hash names the ablations
            assert not {"flags", "gt_joints"} & (doc.keys() | manifest.keys())
            assert not any("gt_joint" in i for i in doc["inferences"])
            assert all(r.keys() == {"hotspot_id", "stage", "status"}
                       for r in doc["interactions"]
                       if r["stage"] == "skipped")
            model = json.loads((base / "run" / entry["model"]).read_text())
            assert model["version"] == "scene_model.v1"
            # every artifact carries the hash of the config file
            assert model["config_hash"] == manifest["config_hash"]
        assert manifest["config_hash"] == config_hash(config_from_dict(TINY))
        # the shipped head moves parts, so the records carry an inference
        assert "ok" in statuses

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

    @pytest.mark.parametrize("ablation", [
        {"run": {**TINY["run"], "refine": False}},
        {"inference": {"use_contact_heat": False}}],
        ids=["refine", "regularity"])
    def test_ablation_is_a_config_key(self, workspace, tmp_path, ablation):
        """A run whose config differs from the workspace run's in one
        ablation key differs from it in config hash, and eval refuses either
        run under the other's config unless --force is given."""
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
        assert ablated["config_hash"] == config_hash(
            config_from_dict({**TINY, **ablation}))

        def evaluate(run, cfg, *extra):
            return main(["eval", "--config", str(cfg), "--run", str(run),
                         "--scenes", str(base / "scenes"),
                         "--out", str(tmp_path / "eval"), *extra])

        assert evaluate(tmp_path / "ablated", full_cfg) == 2
        assert evaluate(base / "run", ablated_cfg) == 2
        assert evaluate(tmp_path / "ablated", full_cfg, "--force") == 0
        assert evaluate(tmp_path / "ablated", ablated_cfg) == 0

    @pytest.mark.parametrize("command",
                             ["gen-scenes", "collect", "train", "run", "eval"])
    def test_missing_input_directory_is_a_named_error(self, workspace,
                                                      tmp_path, capsys,
                                                      command):
        """An input directory without a manifest, another stage's output
        directory, a manifest that is not a JSON object or lists no scenes,
        a manifest whose scene entry lacks a key its reader takes, a file
        that is not JSON or not of the version asked, a cut-short model or
        scene file, a model that is not a JSON object, lacks a key, has a
        width that is not an integer or arrays that do not fit its width,
        labels that are not a JSON object, lack their indices, hold an index
        that is not an integer or point outside their cloud, a scene or cloud
        file the manifest lists but the directory lacks, a scene part whose
        centre is not numbers, a scene whose seed or joint part index is not
        an integer, a manifest whose scene entry is not a JSON
        object, an inference log without its scene seed, with interactions
        without their stage, or whose ok inference's initial pull moved no
        joint or a joint the scene lacks, a run that recorded no scene
        digest, or a config file the loader cannot read or refuses is a
        named error and no output directory is made."""
        base, cfg = workspace
        missing = str(tmp_path / "missing")
        listed = tmp_path / "listed"
        listed.mkdir()
        (listed / "manifest.json").write_text("[]")
        not_object = f"manifest.json in {listed} is not a JSON object"
        cut_model = tmp_path / "cut_model.json"
        text = (base / "model" / "model.json").read_text()
        cut_model.write_text(text[:len(text) // 2])
        # a model whose w2 is one entry short of its hidden width
        short_model = tmp_path / "short_model.json"
        model_doc = json.loads(text)
        short_model.write_text(json.dumps({**model_doc,
                                           "w2": model_doc["w2"][:-1]}))
        # a model without its width, and one that is a JSON list
        widthless_model, list_model = (
            tmp_path / f for f in ("widthless_model.json", "list_model.json"))
        widthless_model.write_text(json.dumps(
            {k: v for k, v in model_doc.items() if k != "hidden"}))
        list_model.write_text("[]")
        # models whose width is not an integer; the workspace's is 16
        odd_width_models = [tmp_path / f"width_{k}.json" for k in range(4)]
        for path, hidden in zip(odd_width_models, ("abc", None, True, 16.5)):
            path.write_text(json.dumps({**model_doc, "hidden": hidden}))
        scenes, data, run = (str(base / d) for d in ("scenes", "data", "run"))
        # a copy of each stage directory whose manifest lists no scenes
        unlisted = {}
        for d in (scenes, data, run):
            unlisted[d] = tmp_path / ("unlisted_" + os.path.basename(d))
            shutil.copytree(d, unlisted[d])
            path = unlisted[d] / "manifest.json"
            path.write_text(json.dumps({
                k: v for k, v in json.loads(path.read_text()).items()
                if k != "scenes"}))
        unlisted_error = {d: f"manifest.json in {u} is malformed: no key "
                          "'scenes'" for d, u in unlisted.items()}
        # a copy of a stage directory whose manifest's first scene entry
        # lacks a key its readers take, per key
        keyless = {}
        for d, key in ((scenes, "file"), (scenes, "seed"), (data, "cloud"),
                       (data, "labels"), (run, "inference")):
            keyless[key] = tmp_path / f"no_{key}"
            shutil.copytree(d, keyless[key])
            path = keyless[key] / "manifest.json"
            manifest_doc = json.loads(path.read_text())
            del manifest_doc["scenes"][0][key]
            path.write_text(json.dumps(manifest_doc))
        keyless_error = {key: f"manifest.json in {d} is malformed: a scene "
                         f"entry has no key {key!r}"
                         for key, d in keyless.items()}
        keyless = {key: str(d) for key, d in keyless.items()}
        model = str(base / "model" / "model.json")
        # a run whose manifest is cut short, one whose manifest lists a
        # scene model as the inference file, and one without the digest of
        # a scene it read
        truncated, swapped, undigested = (
            tmp_path / d for d in ("truncated", "swapped", "undigested"))
        for d in (truncated, swapped, undigested):
            shutil.copytree(run, d)
        text = (truncated / "manifest.json").read_text()
        (truncated / "manifest.json").write_text(text[:len(text) // 2])
        doc = json.loads((swapped / "manifest.json").read_text())
        doc["scenes"][0]["inference"] = doc["scenes"][0]["model"]
        (swapped / "manifest.json").write_text(json.dumps(doc))
        undigested_doc = json.loads((undigested / "manifest.json").read_text())
        del undigested_doc["scenes"][0]["scene_sha256"]
        (undigested / "manifest.json").write_text(json.dumps(undigested_doc))
        scene_files = {e["seed"]: e["file"] for e in json.loads(
            (base / "scenes" / "manifest.json").read_text())["scenes"]}
        first = undigested_doc["scenes"][0]["seed"]
        # a scene directory whose first scene file is cut short
        cut_scenes = tmp_path / "cut_scenes"
        shutil.copytree(scenes, cut_scenes)
        cut_scene = cut_scenes / "scene_0000.json"
        text = cut_scene.read_text()
        cut_scene.write_text(text[:len(text) // 2])
        cut_scene_error = f"scene file {cut_scene} is not valid JSON"
        # datasets whose first labels file points past the cloud's last
        # row, or before its first
        labelled = {}
        for name, index in (("past_end", None), ("negative", -1)):
            labelled[name] = tmp_path / name
            shutil.copytree(data, labelled[name])
            entry = json.loads((labelled[name] / "manifest.json").read_text())[
                "scenes"][0]
            labels_path = labelled[name] / entry["labels"]
            labels_doc = json.loads(labels_path.read_text())
            cloud_rows = load_cloud_binary(labelled[name] / entry["cloud"])
            labels_doc["indices"][0] = (len(cloud_rows) if index is None
                                        else index)
            labels_path.write_text(json.dumps(labels_doc))
            labelled[name] = (str(labelled[name]), str(labels_path))
        # a dataset whose first labels file has no indices
        indexless = tmp_path / "indexless"
        shutil.copytree(data, indexless)
        entry = json.loads((indexless / "manifest.json").read_text())[
            "scenes"][0]
        indexless_labels = indexless / entry["labels"]
        indexless_labels.write_text(json.dumps(
            {k: v for k, v in json.loads(indexless_labels.read_text()).items()
             if k != "indices"}))
        # a dataset whose first labels file is a JSON list
        list_labels_data = tmp_path / "list_labels"
        shutil.copytree(data, list_labels_data)
        list_labels = list_labels_data / entry["labels"]
        list_labels.write_text("[]")

        def broken(d, name, file, edit):
            """(copy of stage directory `d`, path of its `file`), `file`
            rewritten as `edit` of its document, or removed if `edit` is
            None."""
            copy = tmp_path / name
            shutil.copytree(d, copy)
            path = copy / file
            if edit is None:
                path.unlink()
            else:
                path.write_text(json.dumps(edit(json.loads(path.read_text()))))
            return str(copy), path

        # a scene directory without its first scene file, and one whose
        # first scene's first part has a centre that is not numbers
        no_scene = broken(scenes, "sceneless", "scene_0000.json", None)
        lettered_scene = broken(scenes, "lettered_scene", "scene_0000.json",
                                lambda doc: {**doc, "parts": [
                                    {**doc["parts"][0], "center": "x"},
                                    *doc["parts"][1:]]})
        # a dataset without its first cloud, and one whose first labels
        # file has an index that is not a number
        no_cloud = broken(data, "cloudless", entry["cloud"], None)
        lettered_labels = broken(data, "lettered_labels", entry["labels"],
                                 lambda doc: {**doc, "indices": [
                                     "a", *doc["indices"][1:]]})
        # datasets whose first labels file's first index is not an integer
        odd_labels = {value: broken(data, f"labels_{k}", entry["labels"],
                                    lambda doc, v=value: {**doc, "indices": [
                                        v, *doc["indices"][1:]]})
                      for k, value in enumerate((1.7, True, "3"))}
        # scene directories whose first scene's seed, or its first joint's
        # part index, is not an integer
        fractional_seed = broken(scenes, "fractional_seed", "scene_0000.json",
                                 lambda doc: {**doc, "seed": doc["seed"] + 0.9})
        fractional_joint = broken(
            scenes, "fractional_joint", "scene_0000.json",
            lambda doc: {**doc, "joints": [
                {**doc["joints"][0],
                 "part_index": doc["joints"][0]["part_index"] + 0.4},
                *doc["joints"][1:]]})
        scene_doc = json.loads((base / "scenes" / "scene_0000.json")
                               .read_text())
        # runs whose first inference log has no scene seed, or whose
        # interactions have no stage
        inference = json.loads((base / "run" / "manifest.json").read_text())[
            "scenes"][0]["inference"]
        seedless_log = broken(run, "seedless_log", inference, lambda doc: {
            k: v for k, v in doc.items() if k != "scene_seed"})
        stageless_log = broken(run, "stageless_log", inference, lambda doc: {
            **doc, "interactions": [{k: v for k, v in r.items()
                                     if k != "stage"}
                                    for r in doc["interactions"]]})
        # runs whose first inference log says the initial pull of its ok
        # inference moved no joint, or a joint its scene lacks
        def moved(joint):
            def edit(doc):
                ok = [i["hotspot_id"] for i in doc["inferences"]
                      if i["status"] == "ok"]
                assert ok, "the first run scene has no ok inference"
                return {**doc, "interactions": [
                    {**r, "moved_joint": joint}
                    if r["stage"] == "initial" and r["hotspot_id"] == ok[0]
                    else r for r in doc["interactions"]]}
            return edit

        jointless_log, far_joint_log = (
            broken(run, name, inference, moved(joint))
            for name, joint in (("jointless_log", None),
                                ("far_joint_log", 99)))
        # a scene directory whose manifest's first scene entry is a list
        listed_entry = broken(scenes, "listed_entry", "manifest.json",
                              lambda doc: {**doc, "scenes": [
                                  [1, 2], *doc["scenes"][1:]]})
        not_json, no_hidden = (tmp_path / f for f in ("bad.json", "h0.json"))
        not_json.write_text('{"seed": 5,')
        no_hidden.write_text(json.dumps(
            {"affordance": {"train": {"hidden": 0}}}))
        # (inputs, error message) per wrong input
        cases = {
            "gen-scenes": [],
            "collect": [
                (["--scenes", missing], f"no manifest.json in {missing}"),
                (["--scenes", str(listed)], not_object),
                (["--scenes", run], f"manifest.json in {run} is "
                 "run_manifest.v1, not scene_manifest.v1"),
                (["--scenes", str(cut_scenes)], cut_scene_error),
                (["--scenes", str(unlisted[scenes])], unlisted_error[scenes]),
                (["--scenes", keyless["file"]], keyless_error["file"])],
            "train": [
                (["--dataset", missing], f"no manifest.json in {missing}"),
                (["--dataset", str(listed)], not_object),
                (["--dataset", scenes], f"manifest.json in {scenes} is "
                 "scene_manifest.v1, not collect_manifest.v1"),
                *[(["--dataset", dataset], f"{labels} has point indices "
                   "outside [0, ")
                  for dataset, labels in labelled.values()],
                (["--dataset", str(indexless)], f"labels file "
                 f"{indexless_labels} is malformed: no key 'indices'"),
                (["--dataset", str(list_labels_data)], f"labels file "
                 f"{list_labels} is not a JSON object"),
                (["--dataset", str(unlisted[data])], unlisted_error[data]),
                (["--dataset", no_cloud[0]], f"no cloud file {no_cloud[1]}"),
                (["--dataset", lettered_labels[0]],
                 f"labels file {lettered_labels[1]} is malformed: point "
                 "index 'a' is not an integer"),
                *[(["--dataset", d], f"labels file {path} is malformed: "
                   f"point index {value!r} is not an integer")
                  for value, (d, path) in odd_labels.items()],
                *[(["--dataset", keyless[key]], keyless_error[key])
                  for key in ("cloud", "labels")]],
            "run": [
                (["--scenes", missing, "--model", model],
                 f"no manifest.json in {missing}"),
                (["--scenes", data, "--model", model],
                 f"manifest.json in {data} is collect_manifest.v1, not "
                 "scene_manifest.v1"),
                (["--scenes", str(listed), "--model", model], not_object),
                (["--scenes", scenes, "--model", str(cut_model)],
                 f"model file {cut_model} is not valid JSON"),
                (["--scenes", scenes, "--model", str(short_model)],
                 f"model file {short_model}: w2 must be numbers of shape"),
                (["--scenes", scenes, "--model", str(widthless_model)],
                 f"model file {widthless_model} is malformed: no key "
                 "'hidden'"),
                (["--scenes", scenes, "--model", str(list_model)],
                 f"model file {list_model} is not a JSON object"),
                *[(["--scenes", scenes, "--model", str(m)],
                   f"model file {m}: hidden must be an integer")
                  for m in odd_width_models],
                (["--scenes", keyless["file"], "--model", model],
                 keyless_error["file"]),
                (["--scenes", str(unlisted[scenes]), "--model", model],
                 unlisted_error[scenes]),
                (["--scenes", str(cut_scenes), "--model", model],
                 cut_scene_error),
                (["--scenes", no_scene[0], "--model", model],
                 f"no scene file {no_scene[1]}"),
                (["--scenes", lettered_scene[0], "--model", model],
                 f"scene file {lettered_scene[1]} is malformed: could not "
                 "convert string to float: 'x'"),
                (["--scenes", fractional_seed[0], "--model", model],
                 f"scene file {fractional_seed[1]} is malformed: seed "
                 f"{scene_doc['seed'] + 0.9!r} is not an integer"),
                (["--scenes", fractional_joint[0], "--model", model],
                 f"scene file {fractional_joint[1]} is malformed: joint "
                 f"part_index {scene_doc['joints'][0]['part_index'] + 0.4!r} "
                 "is not an integer"),
                (["--scenes", listed_entry[0], "--model", model],
                 f"manifest.json in {listed_entry[0]} is malformed: a scene "
                 "entry is not a JSON object")],
            "eval": [
                (["--run", missing, "--scenes", scenes],
                 f"no manifest.json in {missing}"),
                (["--run", str(listed), "--scenes", scenes], not_object),
                (["--run", data, "--scenes", scenes],
                 f"manifest.json in {data} is collect_manifest.v1, not "
                 "run_manifest.v1"),
                (["--run", run, "--scenes", run],
                 f"manifest.json in {run} is run_manifest.v1, not "
                 "scene_manifest.v1"),
                (["--run", str(truncated), "--scenes", scenes],
                 f"manifest.json in {truncated} is not valid JSON"),
                (["--run", str(swapped), "--scenes", scenes],
                 f"{doc['scenes'][0]['model']} in {swapped} is "
                 "scene_model.v1, not inference.v1"),
                (["--run", str(undigested), "--scenes", scenes],
                 f"run scene {first} has no recorded scene digest, so "
                 f"{scene_files[first]} in {scenes} cannot be checked"),
                (["--run", run, "--scenes", str(cut_scenes)],
                 cut_scene_error),
                (["--run", str(unlisted[run]), "--scenes", scenes],
                 unlisted_error[run]),
                (["--run", run, "--scenes", str(unlisted[scenes])],
                 unlisted_error[scenes]),
                (["--run", keyless["inference"], "--scenes", scenes],
                 keyless_error["inference"]),
                (["--run", run, "--scenes", keyless["seed"]],
                 keyless_error["seed"]),
                (["--run", seedless_log[0], "--scenes", scenes],
                 f"{inference} in {seedless_log[0]} is malformed: no key "
                 "'scene_seed'"),
                (["--run", stageless_log[0], "--scenes", scenes],
                 f"{inference} in {stageless_log[0]} is malformed: no key "
                 "'stage'"),
                *[(["--run", log[0], "--scenes", scenes],
                   f"{inference} in {log[0]} is malformed: the initial pull "
                   f"of ok inference 0 moved joint {joint}, not one of the "
                   "2 joints of scene ")
                  for log, joint in ((jointless_log, None),
                                     (far_joint_log, 99))]],
        }[command]
        # the inputs of a good call, under a config file that fails to load;
        # the later --config replaces the workspace's
        good = {"gen-scenes": [], "collect": ["--scenes", scenes],
                "train": ["--dataset", data],
                "run": ["--scenes", scenes, "--model", model],
                "eval": ["--run", run, "--scenes", scenes]}[command]
        cases += [(["--config", missing, *good],
                   f"cannot read config {missing}"),
                  (["--config", str(not_json), *good],
                   f"{not_json} is not valid JSON"),
                  (["--config", str(no_hidden), *good],
                   "affordance hidden width must be >= 1")]
        out = tmp_path / "out"
        for inputs, message in cases:
            assert main([command, "--config", str(cfg), *inputs,
                         "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_missing_model_file_is_a_named_error(self, workspace, tmp_path,
                                                 capsys):
        base, cfg = workspace
        model = str(tmp_path / "model.json")
        assert main(["run", "--config", str(cfg),
                     "--scenes", str(base / "scenes"), "--model", model,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"no model file {model}" in capsys.readouterr().err

    def test_workspace_bytes_are_pinned(self, workspace):
        """Every file the workspace commands write keeps its recorded
        bytes. Recorded with numpy 2.4 and SciPy 1.17; another LAPACK build
        may round the eigenvalues, and so the model and the run,
        differently."""
        base, _ = workspace
        assert {name: _tree_sha256(base / name)
                for name in WORKSPACE_SHA256} == WORKSPACE_SHA256

    def test_scene_dir_loader(self, workspace):
        base, _ = workspace
        scenes = load_scene_dir(base / "scenes")
        assert len(scenes) == 2
