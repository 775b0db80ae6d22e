"""CLI tests: config resolution, commands, exit codes, artifact layout."""

import json
import os
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from trafficast import tensor as tc
from trafficast import training
from trafficast.cli import DATA_SCHEMA, SCHEMAS, SchemaError, main, resolve_config
from trafficast.data import load_series, write_tensor_file
from trafficast.gradcheck import primitive_checks
from trafficast.graph import write_edge_list
from trafficast.model import ModelConfig, init_model, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


def tiny_doc(out_dir=None, **sections):
    doc = {
        "data": {"synth": {"nodes": 4, "days": 16, "l_d": 12,
                           "shift_max": 1, "noise": 0.3, "seed": 0}},
        "dataset": {"P": 3, "Q": 2, "S": 1},
        "model": {"d_h": 6, "d_e": 2, "n_head": 2, "K": 1},
        "train": {"max_epochs": 2, "seeds": [1], "batch_size": 8},
    }
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    for name, overrides in sections.items():
        doc.setdefault(name, {}).update(overrides)
    return doc


def write_doc(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


# --- config resolution -------------------------------------------------------

def test_defaults_materialize():
    res = resolve_config({"data": {"synth": {}}})
    assert res.dataset.S == 3
    assert res.model.n_head == 8
    assert (res.model.w_pre, res.model.w_adp) == (0.1, 0.9)
    assert res.train.learning_rate == 0.001
    assert res.train.batch_size == 16
    assert res.train.seeds == (1, 2, 3, 4, 5)


def test_resolved_doc_has_no_placeholders():
    res = resolve_config({"data": {"synth": {}}})
    doc = res.config_doc()
    for key in SCHEMAS["model"]:
        assert doc["model"][key] is not None
    for section in ("dataset", "train"):
        for value in doc[section].values():
            assert value is not None
    # the resolved document is itself a valid config
    res2 = resolve_config(doc)
    assert res2.model == res.model


def test_unknown_key_names_field_path():
    with pytest.raises(SchemaError, match=r"model\.heads: unknown key"):
        resolve_config({"data": {"synth": {}}, "model": {"heads": 4}})
    with pytest.raises(SchemaError, match=r"data\.synth\.node_count: unknown key"):
        resolve_config({"data": {"synth": {"node_count": 4}}})


def test_type_errors_name_field_path():
    with pytest.raises(SchemaError, match=r"train\.batch_size: expected an integer"):
        resolve_config({"data": {"synth": {}}, "train": {"batch_size": "big"}})
    with pytest.raises(SchemaError, match=r"dataset\.split"):
        resolve_config({"data": {"synth": {}}, "dataset": {"split": [0.5, 0.5]}})


def test_synth_and_files_are_exclusive():
    with pytest.raises(SchemaError, match="mutually exclusive"):
        resolve_config({"data": {"synth": {}, "series": "x.stgt"}})


def test_file_mode_requires_paths():
    with pytest.raises(SchemaError, match=r"data\.series: required"):
        resolve_config({"data": {"edges": "e.csv", "l_d": 24}})
    with pytest.raises(SchemaError, match=r"data\.l_d: required"):
        resolve_config({"data": {"series": "s.stgt", "edges": "e.csv"}})


def test_mirrored_model_keys_must_agree():
    base = {"data": {"synth": {}}, "dataset": {"P": 6}}
    res = resolve_config({**base, "model": {"P": 6}})
    assert res.model.P == 6
    with pytest.raises(SchemaError, match=r"model\.P: 9 conflicts with dataset\.P"):
        resolve_config({**base, "model": {"P": 9}})


def test_old_manifest_model_l_d_l_w_accepted_and_dropped():
    base = {"data": {"synth": {"l_d": 24}}}
    res = resolve_config({**base, "model": {"l_d": 24, "l_w": 168}})
    assert "l_d" not in res.config_doc()["model"]
    with pytest.raises(SchemaError, match=r"model\.l_d: 48 conflicts with data\.l_d \(24\)"):
        resolve_config({**base, "model": {"l_d": 48}})
    with pytest.raises(SchemaError, match=r"model\.l_w: 7 conflicts with data\.l_d \(168\)"):
        resolve_config({**base, "model": {"l_w": 7}})


# Every key a document may carry that sets nothing, under tiny_doc (P=3,
# Q=2, S=1, l_d=12): an agreeing value, a conflicting one, a mistyped one
# and the start of its type message.
PINNED_KEYS = [
    ("model.P", 3, 9, 3.0, "an integer"),
    ("model.Q", 2, 5, "2", "an integer"),
    ("model.S", 1, 0, True, "an integer"),
    ("model.d_count", 1, 2, None, "an integer"),
    ("model.w_count", 1, 2, [1], "an integer"),
    ("model.l_d", 12, 48, 12.5, "an integer"),
    ("model.l_w", 84, 7, "84", "an integer"),
    ("train.teacher_forcing", False, True, 0, "true or false"),
    ("train.mape_floor", 0.001, 0.01, "0.001", "a number"),
]


@pytest.mark.parametrize("path, agree, conflict, mistyped, expected", PINNED_KEYS)
def test_pinned_keys_must_agree_and_are_dropped(tmp_path, capsys, path, agree, conflict,
                                                 mistyped, expected):
    section, key = path.split(".")
    doc = resolve_config(tiny_doc(**{section: {key: agree}})).config_doc()
    assert key not in doc[section]
    assert doc == resolve_config(tiny_doc()).config_doc()
    for value, message in ((conflict, f"{path}: {conflict} conflicts with"),
                           (mistyped, f"{path}: expected {expected}, got {mistyped!r}")):
        cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run", **{section: {key: value}}))
        assert run_cli("train", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# Every key each section accepts. The dataclasses are the schema, so a new
# field is a new config key; this pins the set.
ACCEPTED_KEYS = {
    "data": {"series", "edges", "l_d", "kappa", "sigma", "synth"},
    "data.synth": {"nodes", "days", "l_d", "shift_max", "noise", "seed", "amp_weekly"},
    "dataset": {"P", "Q", "S", "d_count", "w_count", "split"},
    "model": {"d_h", "d_e", "n_head", "K", "w_pre", "w_adp", "no_pre", "no_adp",
              "no_window", "no_period", "order"},
    "train": {"learning_rate", "batch_size", "max_epochs", "patience", "seeds",
              "grad_clip"},
}


def test_accepted_config_keys_are_pinned():
    doc = resolve_config({"data": {"synth": {}}}).config_doc()
    assert set(doc) == {"out_dir", "data", "dataset", "model", "train"}
    assert set(doc["data"]["synth"]) == ACCEPTED_KEYS["data.synth"]
    for section in ("data", "dataset", "model", "train"):
        assert set(doc[section]) == ACCEPTED_KEYS[section], section
    # each key resolves when given its own resolved value back
    assert resolve_config(doc).config_doc() == doc
    for key in ("beta1", "beta2", "eps"):
        with pytest.raises(SchemaError, match=rf"train\.{key}: unknown key"):
            resolve_config({"data": {"synth": {}}, "train": {key: 0.9}})


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = [f"data.{key}" for key in DATA_SCHEMA]
    keys += [f"{section}.{key}" for section, schema in SCHEMAS.items() for key in schema]
    assert [key for key in keys if f"`{key}`" not in readme] == []


def test_readme_counts_every_gradcheck_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    counted = re.search(r"`gradcheck` verifies every tape primitive in (\d+) rows", readme)
    assert counted is not None
    assert int(counted.group(1)) == len(primitive_checks(np.random.default_rng(0)))


def test_non_finite_numbers_rejected_at_config_time(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run"))
    assert run_cli("train", "--config", cfg, "--set", "model.w_pre=NaN") == 2
    assert "model.w_pre: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    for section, key, value in (("train", "learning_rate", float("inf")),
                                ("data", "kappa", float("-inf")),
                                ("train", "mape_floor", 10 ** 400)):
        doc = {"data": {"synth": {}}}
        doc.setdefault(section, {})[key] = value
        with pytest.raises(SchemaError, match=rf"{section}\.{key}: expected a finite number"):
            resolve_config(doc)


def test_nonpositive_grad_clip_is_usage_error(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run"))
    for value in ("-1", "0"):
        assert run_cli("train", "--config", cfg, "--set", f"train.grad_clip={value}") == 2
        assert "train: grad_clip must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_window_shorter_than_attention_reach_names_dataset(tmp_path, capsys):
    # the windows are set only under `dataset`, so the P >= S check names it
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run"))
    assert run_cli("train", "--config", cfg, "--set", "dataset.P=2", "--set", "dataset.S=3") == 2
    err = capsys.readouterr().err
    assert "error: dataset: P (2) must be >= S (3)" in err
    assert "model" not in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_negative_s_is_usage_error_naming_its_bound(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run"))
    assert run_cli("train", "--config", cfg, "--set", "dataset.S=-1") == 2
    assert "error: dataset: S must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_model_invariant_reported_with_section():
    with pytest.raises(SchemaError, match="model: "):
        resolve_config({"data": {"synth": {}}, "model": {"n_head": 0}})


def test_unknown_top_level_key():
    with pytest.raises(SchemaError, match="outputs: unknown top-level key"):
        resolve_config({"outputs": "runs", "data": {"synth": {}}})


# --- gen-data ----------------------------------------------------------------

def test_gen_data_writes_three_files(tmp_path):
    out = tmp_path / "d"
    assert run_cli("gen-data", "--nodes", "5", "--days", "9", "--ld", "24",
                   "--shift", "1", "--noise", "0.1", "--seed", "3",
                   "--out", str(out)) == 0
    series = load_series(out / "series.stgt", l_d=24)
    assert series.data.shape == (9 * 24, 5, 1)
    manifest = json.loads((out / "gen_manifest.json").read_text())
    assert manifest["flags"]["seed"] == 3
    assert set(manifest["sha256"]) == {"series", "edges"}
    assert (out / "edges.csv").read_text().startswith("from,to,cost\n")


def test_gen_data_is_deterministic(tmp_path):
    flags = ["--nodes", "4", "--days", "8", "--ld", "12", "--shift", "2",
             "--noise", "0.2", "--seed", "11"]
    for sub in ("a", "b"):
        assert run_cli("gen-data", *flags, "--out", str(tmp_path / sub)) == 0
    for name in ("series.stgt", "edges.csv", "gen_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_data_negative_shift_is_usage_error(tmp_path, capsys):
    assert run_cli("gen-data", "--shift", "-1", "--out", str(tmp_path)) == 2
    assert "--shift" in capsys.readouterr().err


def test_gen_data_flags_are_the_synth_keys(tmp_path, capsys):
    # defaults and range checks come from the data.synth schema
    assert run_cli("gen-data", "--out", str(tmp_path / "d")) == 0
    manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
    assert manifest["flags"] == resolve_config({"data": {"synth": {}}}).data["synth"]
    for flags, message in ((["--nodes", "0"], "--nodes: must be >= 1, got 0"),
                           (["--ld", "1"], "--ld: must be >= 2, got 1"),
                           (["--noise", "nan"], "--noise: expected a finite number")):
        assert run_cli("gen-data", *flags, "--out", str(tmp_path / "e")) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


# --- train -------------------------------------------------------------------

def test_train_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out, train={"seeds": [1, 2]}))
    assert run_cli("train", "--config", cfg) == 0
    for rel in ("manifest.json", "summary.txt", "seed1/checkpoint.ckpt",
                "seed1/metrics.txt", "seed1/history.csv", "seed2/checkpoint.ckpt"):
        assert (out / rel).is_file(), rel

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["seeds"] == [1, 2]
    assert manifest["derived"]["variant"] == "full"
    # candidates: (d_count + w_count) * (2S + 1) with S=1
    assert manifest["derived"]["attention_candidates"] == 6
    assert manifest["derived"]["block_len"] == 3 + 2 + 1
    assert manifest["config"]["model"]["w_pre"] == 0.1
    assert manifest["config"]["train"]["batch_size"] == 8
    assert manifest["timings"]["per_seed"]["1"]["epochs"] >= 1
    assert manifest["inputs"]["config"]["path"] == cfg

    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == "variant=full"
    assert summary[1] == "seeds=1;2"


def test_train_is_byte_deterministic(tmp_path):
    cfgs = [write_doc(tmp_path / f"c{i}.json", tiny_doc(tmp_path / f"run{i}"))
            for i in (1, 2)]
    assert run_cli("train", "--config", cfgs[0]) == 0
    assert run_cli("train", "--config", cfgs[1]) == 0
    for rel in ("seed1/checkpoint.ckpt", "seed1/metrics.txt", "summary.txt"):
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, rel


def test_train_rerun_from_manifest(tmp_path):
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run1"))
    assert run_cli("train", "--config", cfg) == 0
    assert run_cli("train", "--config", str(tmp_path / "run1" / "manifest.json"),
                   "--out-dir", str(tmp_path / "run2")) == 0
    assert ((tmp_path / "run1" / "seed1" / "checkpoint.ckpt").read_bytes()
            == (tmp_path / "run2" / "seed1" / "checkpoint.ckpt").read_bytes())


def test_manifest_has_no_bank_len_and_old_manifests_rerun(tmp_path):
    # manifests once carried derived.bank_len, a copy of derived.block_len;
    # a manifest fed back through --config is read for its config block only
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run1"))
    assert run_cli("train", "--config", cfg) == 0
    manifest_path = tmp_path / "run1" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "bank_len" not in manifest["derived"]
    manifest["derived"]["bank_len"] = manifest["derived"]["block_len"]
    old = write_doc(tmp_path / "old_manifest.json", manifest)
    assert run_cli("train", "--config", old, "--out-dir", str(tmp_path / "run2")) == 0
    assert ((tmp_path / "run1" / "seed1" / "checkpoint.ckpt").read_bytes()
            == (tmp_path / "run2" / "seed1" / "checkpoint.ckpt").read_bytes())


def test_manifest_states_each_setting_once_and_old_manifests_rerun(tmp_path):
    # manifests once copied the windows and data.l_d under model and carried
    # train.teacher_forcing and train.mape_floor; such a manifest still reruns
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run1"))
    assert run_cli("train", "--config", cfg) == 0
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    config = manifest["config"]
    windows = ("P", "Q", "S", "d_count", "w_count")
    assert set(config["model"]).isdisjoint(windows + ("l_d", "l_w"))
    assert set(config["train"]).isdisjoint({"teacher_forcing", "mape_floor"})
    config["model"].update({key: config["dataset"][key] for key in windows}, l_d=12, l_w=84)
    config["train"].update(teacher_forcing=False, mape_floor=0.001)
    old = write_doc(tmp_path / "old_manifest.json", manifest)
    assert run_cli("train", "--config", old, "--out-dir", str(tmp_path / "run2")) == 0
    for rel in ("seed1/checkpoint.ckpt", "seed1/metrics.txt", "summary.txt"):
        assert (tmp_path / "run1" / rel).read_bytes() == (tmp_path / "run2" / rel).read_bytes()


def test_train_ablation_flag_tags_report(tmp_path):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out))
    assert run_cli("train", "--config", cfg, "--ablation", "no_period") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["no_period"] is True
    assert manifest["derived"]["variant"] == "no_period"
    assert manifest["derived"]["attention_candidates"] == 0
    assert (out / "summary.txt").read_text().splitlines()[0] == "variant=no_period"


def test_train_set_overrides_config_and_named_flags_win(tmp_path):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out))
    assert run_cli("train", "--config", cfg,
                   "--set", "train.batch_size=4",
                   "--set", "model.no_pre=false",
                   "--ablation", "no_pre") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["batch_size"] == 4
    assert manifest["config"]["model"]["no_pre"] is True  # named flag beats --set


def test_train_seeds_flag(tmp_path):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out))
    assert run_cli("train", "--config", cfg, "--seeds", "7,9") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [7, 9]
    assert (out / "seed7").is_dir() and (out / "seed9").is_dir()


def test_repeated_seeds_are_usage_error(tmp_path, capsys):
    # a repeated seed would train the same replica twice and report a
    # spread over fewer runs than it claims
    cfg = write_doc(tmp_path / "c.json", tiny_doc(tmp_path / "run"))
    assert run_cli("train", "--config", cfg, "--seeds", "1,1") == 2
    assert "train: seeds must be distinct" in capsys.readouterr().err
    cfg = write_doc(tmp_path / "c2.json", tiny_doc(tmp_path / "run", train={"seeds": [3, 1, 3]}))
    assert run_cli("train", "--config", cfg) == 2
    assert "train: seeds must be distinct, got repeats of [3]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,doc,message", [
    (["train", "--seeds=-1"], {}, "train: seeds must be >= 0, got [-1]"),
    (["experiment", "order", "--seeds=-1"], {}, "train: seeds must be >= 0, got [-1]"),
    (["train"], {"data": {"synth": {"seed": -1}}}, "data.synth.seed: must be >= 0, got -1"),
    (["gen-data", "--seed", "-1"], None, "--seed: must be >= 0, got -1"),
], ids=["train_flag", "experiment_flag", "synth_key", "gen_data_flag"])
def test_negative_seeds_are_usage_error(tmp_path, capsys, argv, doc, message):
    out = tmp_path / "run"
    if doc is None:
        argv = argv + ["--out", str(out)]
    else:
        argv = argv + ["--config", write_doc(tmp_path / "c.json", tiny_doc(out, **doc))]
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["train"], ["experiment", "order"]])
def test_empty_split_is_usage_error_before_run_dir(tmp_path, capsys, argv):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out, dataset={"split": [1, 0, 0]}))
    assert run_cli(*argv, "--config", cfg) == 2
    assert re.search(r"dataset\.split: no val/test samples, got \d+/0/0 train/val/test",
                     capsys.readouterr().err)
    assert not out.exists()
    # --jobs sets nothing, but below 1 it is still a usage error
    assert run_cli(*argv, "--config", cfg, "--jobs", "0") == 2
    assert "--jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_eval_needs_only_a_test_split(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", tiny_doc())
    _zero_checkpoint(tmp_path / "zero.ckpt", ModelConfig(d_h=6, d_e=2, n_head=2, K=1,
                                                         P=3, Q=2, S=1))
    argv = ["eval", "--config", cfg, "--checkpoint", str(tmp_path / "zero.ckpt")]
    assert run_cli(*argv, "--set", "dataset.split=[0,0,1]") == 0
    assert run_cli(*argv, "--set", "dataset.split=[1,0,0]") == 2
    assert re.search(r"no test samples, got \d+/0/0", capsys.readouterr().err)


def test_train_jobs_matches_serial(tmp_path):
    doc = tiny_doc(None, train={"seeds": [1, 2]})
    cfg = write_doc(tmp_path / "c.json", doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path / "s")) == 0
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path / "p"),
                   "--jobs", "2") == 0
    for rel in ("seed1/checkpoint.ckpt", "seed2/metrics.txt"):
        assert ((tmp_path / "s" / rel).read_bytes()
                == (tmp_path / "p" / rel).read_bytes())


def _run_files(root):
    # every file a run wrote but those that carry wall-clock times
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in ("manifest.json", "history.csv")}


def test_jobs_runs_seeds_and_cells_in_the_calling_thread(tmp_path, monkeypatch):
    # --jobs is accepted and ignored: with no thread able to start, 2 seeds
    # and a grid at --jobs 2 write the bytes they write at --jobs 1
    cfg = write_doc(tmp_path / "c.json", tiny_doc(None, train={"seeds": [1, 2]}))
    # each command, with one file it must write
    commands = {("train",): Path("seed2", "checkpoint.ckpt"),
                ("experiment", "order"): Path("table.csv")}
    for i, command in enumerate(commands):
        assert run_cli(*command, "--config", cfg, "--out-dir", str(tmp_path / f"s{i}")) == 0

    def no_thread(self):
        raise RuntimeError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for i, (command, written) in enumerate(commands.items()):
        assert run_cli(*command, "--config", cfg, "--out-dir", str(tmp_path / f"p{i}"),
                       "--jobs", "2") == 0
        serial = _run_files(tmp_path / f"s{i}")
        assert written in serial
        assert _run_files(tmp_path / f"p{i}") == serial


def test_train_missing_data_file_names_path(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", {
        "out_dir": str(tmp_path / "run"),
        "data": {"series": str(tmp_path / "nope.stgt"),
                 "edges": str(tmp_path / "nope.csv"), "l_d": 24},
    })
    assert run_cli("train", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert "nope.stgt" in err
    assert not (tmp_path / "run" / "seed1").exists()


def _file_mode_doc(tmp_path, **data):
    """A tiny config over `gen-data` files in tmp_path/d."""
    data_dir = tmp_path / "d"
    assert run_cli("gen-data", "--nodes", "4", "--days", "16", "--ld", "12",
                   "--out", str(data_dir)) == 0
    return tiny_doc(tmp_path / "run", data={
        "synth": None, "series": str(data_dir / "series.stgt"),
        "edges": str(data_dir / "edges.csv"), "l_d": 12, **data})


def test_train_bad_edge_field_exits_3(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path))
    edges = tmp_path / "d" / "edges.csv"
    edges.write_text("from,to,cost\n0,1,1.0\n1,2,abc\n")
    assert run_cli("train", "--config", cfg) == 3
    assert f"{edges}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("1,2,-0.5", ":3: negative distance"),
    ("1,9,1.0", ": edge (1,9) out of range for 4 nodes"),
    ("1,2,1.0", ": sigma must be positive, got 0.0"),  # data.sigma unset, equal distances
])
def test_train_bad_edge_names_edge_file(tmp_path, capsys, line, message):
    cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path))
    edges = tmp_path / "d" / "edges.csv"
    edges.write_text(f"from,to,cost\n0,1,1.0\n{line}\n")
    assert run_cli("train", "--config", cfg) == 3
    assert f"{edges}{message}" in capsys.readouterr().err


def test_train_header_only_edge_file_names_it(tmp_path, capsys):
    # with data.sigma unset, sigma comes from the listed distances
    cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path))
    edges = tmp_path / "d" / "edges.csv"
    edges.write_text("from,to,cost\n")
    assert run_cli("train", "--config", cfg) == 3
    assert f"{edges}: cannot derive sigma from an empty edge list" in capsys.readouterr().err


def test_train_series_dims_past_2_64_exit_3(tmp_path, capsys):
    # 2**32 * 2**32 values wrap to 0 in 64-bit arithmetic; the length check
    # must still see that the payload is missing
    cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path))
    series = tmp_path / "d" / "series.stgt"
    series.write_bytes(b"STGT" + struct.pack("<BB3Q", 1, 3, 2 ** 32, 2 ** 32, 1)
                       + bytes(64))
    assert run_cli("train", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert str(series) in err and "payload at byte offset 30" in err


def test_nonpositive_sigma_is_usage_error(tmp_path, capsys):
    for value in (-1.0, 0.0):
        cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path, sigma=value))
        assert run_cli("train", "--config", cfg) == 2
        assert f"data.sigma: must be > 0, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_kappa_is_usage_error(tmp_path, capsys):
    # no squared distance is below a negative threshold, so every edge would vanish
    cfg = write_doc(tmp_path / "c.json", _file_mode_doc(tmp_path, kappa=-5.0))
    assert run_cli("train", "--config", cfg) == 2
    assert "data.kappa: must be >= 0, got -5.0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_requires_out_dir(tmp_path, capsys):
    cfg = write_doc(tmp_path / "c.json", tiny_doc(None))
    assert run_cli("train", "--config", cfg) == 2
    assert "out_dir" in capsys.readouterr().err


def test_train_divergence_exit_code(tmp_path):
    doc = tiny_doc(tmp_path / "run",
                   train={"learning_rate": 1e200, "grad_clip": None})
    cfg = write_doc(tmp_path / "c.json", doc)
    assert run_cli("train", "--config", cfg) == 4
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "diverged"


@pytest.mark.parametrize("argv, blocked", [
    (["train"], "seed1"),
    (["experiment", "order"], "attention_then_dgc"),
])
def test_failed_run_finalizes_manifest(tmp_path, capsys, argv, blocked):
    # a file where an artifact directory goes fails the run after its
    # manifest exists; the manifest must not stay "running"
    out = tmp_path / "run"
    out.mkdir()
    (out / blocked).write_text("x")
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out, train={"max_epochs": 1}))
    assert run_cli(*argv, "--config", cfg) == 3
    err = capsys.readouterr().err
    assert "File exists" in err and str(out / blocked) in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == err.strip().removeprefix("error: ")
    assert "finished_at" in manifest


def test_bad_json_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{broken")
    assert run_cli("train", "--config", str(path)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_config_names_byte_offset(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"out_dir": "r\xff"}\n')
    assert run_cli("train", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8: byte 0xff at byte offset 14" in err


def test_missing_config_file_is_usage_error(tmp_path):
    assert run_cli("train", "--config", str(tmp_path / "absent.json")) == 2


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--bogus")
    assert exc.value.code == 2


# --- eval --------------------------------------------------------------------

def _zero_checkpoint(path, cfg, n_nodes=4, n_channels=1):
    state = init_model(cfg, n_nodes, n_channels, seed=0)
    for param in state.params.values():
        param.data[...] = 0.0
    save_checkpoint(state, path)
    return state


def _constant_setup(tmp_path, q=12, s=3):
    """Constant series + ring edges + matching config; zero params are a
    perfect oracle because the normalized target is identically zero."""
    l_d, days, n = 24, 9, 4
    write_tensor_file(tmp_path / "series.stgt", np.full((days * l_d, n, 1), 55.0))
    write_edge_list(tmp_path / "edges.csv", [(i, (i + 1) % n, 1.0) for i in range(n)])
    doc = {
        "data": {"series": str(tmp_path / "series.stgt"),
                 "edges": str(tmp_path / "edges.csv"),
                 "l_d": l_d, "kappa": 1.0, "sigma": 1.0},
        "dataset": {"P": 12, "Q": q, "S": s},
        "model": {"d_h": 6, "d_e": 2, "n_head": 2, "K": 1},
        "train": {"seeds": [1]},
    }
    cfg_path = write_doc(tmp_path / "c.json", doc)
    model_cfg = ModelConfig(d_h=6, d_e=2, n_head=2, K=1, P=12, Q=q, S=s)
    return cfg_path, model_cfg


def test_eval_reproduces_training_metrics_bitwise(tmp_path):
    out = tmp_path / "run"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out))
    assert run_cli("train", "--config", cfg) == 0
    assert run_cli("eval", "--config", cfg,
                   "--checkpoint", str(out / "seed1" / "checkpoint.ckpt"),
                   "--out", str(tmp_path / "eval.txt")) == 0
    assert ((tmp_path / "eval.txt").read_bytes()
            == (out / "seed1" / "metrics.txt").read_bytes())


def test_eval_perfect_oracle_gives_zero_mae(tmp_path):
    cfg_path, model_cfg = _constant_setup(tmp_path)
    with pytest.warns(UserWarning):
        _zero_checkpoint(tmp_path / "zero.ckpt", model_cfg)
        assert run_cli("eval", "--config", cfg_path,
                       "--checkpoint", str(tmp_path / "zero.ckpt"),
                       "--out", str(tmp_path / "m.txt")) == 0
    lines = dict(line.split("=", 1)
                 for line in (tmp_path / "m.txt").read_text().splitlines())
    assert float(lines["mae"]) == 0.0
    assert float(lines["rmse"]) == 0.0


def test_eval_reports_quarter_horizons_for_q12(tmp_path, capsys):
    cfg_path, model_cfg = _constant_setup(tmp_path, q=12)
    _zero_checkpoint(tmp_path / "zero.ckpt", model_cfg)
    assert run_cli("eval", "--config", cfg_path,
                   "--checkpoint", str(tmp_path / "zero.ckpt"),
                   "--out", str(tmp_path / "m.txt")) == 0
    lines = dict(line.split("=", 1)
                 for line in (tmp_path / "m.txt").read_text().splitlines())
    assert lines["horizon_steps"] == "3,6,9,12"
    stdout = capsys.readouterr().out
    for step in (3, 6, 9, 12):
        assert f"step {step:>3}:" in stdout


def test_eval_shape_mismatch_rejected(tmp_path, capsys):
    cfg_path, model_cfg = _constant_setup(tmp_path)
    _zero_checkpoint(tmp_path / "zero.ckpt", model_cfg)
    assert run_cli("eval", "--config", cfg_path, "--set", "model.d_h=8",
                   "--checkpoint", str(tmp_path / "zero.ckpt")) == 2
    assert "shape" in capsys.readouterr().err.lower()


def test_eval_missing_checkpoint_is_data_error(tmp_path):
    cfg_path, _ = _constant_setup(tmp_path)
    assert run_cli("eval", "--config", cfg_path,
                   "--checkpoint", str(tmp_path / "absent.ckpt")) == 3


@pytest.mark.parametrize("case", [
    "train_out_dir_is_file", "gen_data_out_is_file", "eval_out_is_dir",
    "eval_checkpoint_is_dir", "gradcheck_out_is_dir",
])
def test_os_error_on_path_argument_exits_3(tmp_path, capsys, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("x")
    cfg_path, model_cfg = _constant_setup(tmp_path)
    ckpt = str(tmp_path / "zero.ckpt")
    _zero_checkpoint(ckpt, model_cfg)
    argv, path = {
        "train_out_dir_is_file": (["train", "--config", cfg_path, "--out-dir", a_file], a_file),
        "gen_data_out_is_file": (["gen-data", "--out", a_file], a_file),
        "eval_out_is_dir": (["eval", "--config", cfg_path, "--checkpoint", ckpt,
                             "--out", tmp_path], tmp_path),
        "eval_checkpoint_is_dir": (["eval", "--config", cfg_path, "--checkpoint", tmp_path],
                                   tmp_path),
        "gradcheck_out_is_dir": (["gradcheck", "--out", tmp_path], tmp_path),
    }[case]
    capsys.readouterr()
    assert run_cli(*map(str, argv)) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def test_eval_truncated_checkpoint_is_data_error(tmp_path, capsys):
    cfg_path, model_cfg = _constant_setup(tmp_path)
    ckpt = tmp_path / "zero.ckpt"
    _zero_checkpoint(ckpt, model_cfg)
    ckpt.write_bytes(ckpt.read_bytes()[:-3])
    assert run_cli("eval", "--config", cfg_path, "--checkpoint", str(ckpt)) == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "byte offset" in err


# --- gradcheck ---------------------------------------------------------------

def test_gradcheck_passes_and_writes_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run_cli("gradcheck", "--out", str(report)) == 0
    out = capsys.readouterr().out
    assert "op:additive_attention_bank" in out and "op:matmul_left" in out
    assert "model:" in out
    lines = report.read_text().splitlines()
    assert lines[0] == "check,max_rel_error,tol,status"
    assert all(line.endswith(",pass") for line in lines[1:])
    # primitive suite plus 20 sampled model parameters
    assert len(lines) - 1 >= 24 + 20


def test_gradcheck_rows_cover_every_exported_op():
    # an op is every exported function that records onto the tape; a row
    # covers the ops its function actually records
    not_ops = {"backward", "finite_diff_check"}
    ops = {name for name in tc.__all__ if name[0].islower() and name not in not_ops}
    covered = set()
    for _, f, x0 in primitive_checks(np.random.default_rng(0)):
        with tc.Tape() as tape:
            f(tc.Tensor(x0.data, requires_grad=True))
        covered |= {rec.backward_fn.__qualname__.split(".")[0] for rec in tape.records}
    assert sorted(ops - covered) == []


def test_gradcheck_inject_fault_fails_and_restores(tmp_path):
    original = tc.matmul
    assert run_cli("gradcheck", "--inject-fault", "--out", str(tmp_path / "r.csv")) == 5
    assert tc.matmul is original
    failed = [line.split(",")[0] for line in (tmp_path / "r.csv").read_text().splitlines()
              if line.endswith(",fail")]
    # the fault reaches the model's own backward, not only the primitive rows
    assert any(name.startswith("op:") for name in failed)
    assert any(name.startswith("model:") for name in failed)


# --- experiment --------------------------------------------------------------

def test_experiment_order_grid(tmp_path, capsys):
    out = tmp_path / "grid"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out))
    assert run_cli("experiment", "order", "--config", cfg) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == [
        "attention_then_dgc", "dgc_then_attention"]
    assert all(row.split(",")[1] == "ok" for row in table[1:])
    for label in ("attention_then_dgc", "dgc_then_attention"):
        assert (out / label / "metrics_mean.txt").is_file()
        assert (out / label / "seed1" / "metrics.txt").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "order"
    assert manifest["status"] == "complete"


def test_experiment_ablation_emits_per_horizon_arrays(tmp_path):
    out = tmp_path / "grid"
    cfg = write_doc(tmp_path / "c.json", tiny_doc(out, train={"max_epochs": 1}))
    assert run_cli("experiment", "ablation", "--config", cfg) == 0
    table = (out / "table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == [
        "full", "no_pre", "no_adp", "no_pre_adp", "no_window", "no_period"]
    for label in ("full", "no_period"):
        lines = dict(line.split("=", 1)
                     for line in (out / label / "metrics_mean.txt").read_text().splitlines())
        # Q=2 gives one metric value per forecast step
        assert len(lines["per_step_mae"].split(",")) == 2
        assert len(lines["per_step_rmse"].split(",")) == 2


SWITCHES = ("no_pre", "no_adp", "no_window", "no_period")
ABLATION_ROWS = {
    "full": (),
    "no_pre": ("no_pre",),
    "no_adp": ("no_adp",),
    "no_pre_adp": ("no_pre", "no_adp"),
    "no_window": ("no_window",),
    "no_period": ("no_period",),
}


@pytest.mark.parametrize("base", ["default", "set", "ablation_flag", "manifest"])
def test_experiment_ablation_rows_train_their_labels_whatever_the_base(
        tmp_path, monkeypatch, base):
    # each row trains exactly its label's switches, even over a base with
    # no_pre on; the spy records them and fails the cell, so nothing trains
    trained = []

    def spy(model_cfg, *args, **kwargs):
        trained.append(tuple(key for key in SWITCHES if getattr(model_cfg, key)))
        raise RuntimeError("spy")

    monkeypatch.setattr(training, "train", spy)
    out = tmp_path / "grid"
    flags = {"default": [], "set": ["--set", "model.no_pre=true"],
             "ablation_flag": ["--ablation", "no_pre"], "manifest": []}[base]
    # --ablation sets every switch: it turns off the base's no_window
    doc = tiny_doc(out, model={"no_pre": base == "manifest",
                               "no_window": base == "ablation_flag"})
    if base == "manifest":
        doc = {"command": "train", "config": doc}
    cfg = write_doc(tmp_path / "c.json", doc)
    assert run_cli("experiment", "ablation", "--config", cfg, *flags) == 0
    assert trained == list(ABLATION_ROWS.values())
    table = (out / "table.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in table] == [[label, "error:spy"]
                                                     for label in ABLATION_ROWS]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["variant"] == ("full" if base == "default" else "no_pre")


def test_experiment_bad_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("experiment", "sideways")
    assert exc.value.code == 2
