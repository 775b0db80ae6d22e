"""Command line front end: data generation, training, evaluation, checks.

Run configuration is a JSON document (nested key-value sections: data,
dataset, model, train, out_dir) plus command line overrides. Precedence,
lowest to highest: built-in defaults, the config document, repeated
`--set section.key=value` flags in the order given, then the named
convenience flags (--ablation, --order, --seeds, --out-dir).

Training and experiment runs write a manifest that materializes the
fully resolved configuration (no default left implicit), input file
digests, the seed list, artifact paths, and wall clock timings. The
manifest is written when the run starts and finalized when it ends, and
feeding it back to `train --config` reruns the embedded configuration.

Machine-read files carry 17 significant digits; stdout summaries carry 4.
Timings live only in the manifest and history files, so checkpoints,
metric files, summaries, and tables are byte-identical across reruns
with the same inputs and seeds (at --jobs 1, the default).

Exit codes:
    0  success
    2  usage or configuration error (bad flags, malformed or conflicting
       config values, checkpoint incompatible with the config)
    3  data error (missing or unreadable input files, corrupt payloads)
    4  numeric divergence during training
    5  gradient check failure
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from trafficast import tensor as tc
from trafficast.data import (
    DataError,
    DatasetSpec,
    DatasetSplits,
    SignalSeries,
    load_series,
    prepare_dataset,
    synth_generate,
    write_tensor_file,
)
from trafficast.graph import (
    GraphError,
    GraphSpec,
    build_predefined,
    read_edge_list,
    row_normalize,
    write_edge_list,
)
from trafficast.model import (
    ModelConfig,
    ModelError,
    ModelState,
    ORDERS,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from trafficast.tensor import Tape, Tensor, backward, finite_diff_check
from trafficast.training import (
    ABLATION_VARIANTS,
    DivergenceError,
    MetricReport,
    TrainConfig,
    TrainError,
    TrainSummary,
    evaluate,
    horizon_steps_for,
    run_experiment,
    train,
    write_comparison_table,
    write_history,
    write_metrics,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_CHECK = 5


class SchemaError(ValueError):
    """Configuration or flag problem; message names the offending field."""


class CheckFailure(RuntimeError):
    """One or more gradient checks exceeded tolerance."""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# configuration document: defaults, validation, resolution
# ---------------------------------------------------------------------------

DATA_DEFAULTS = {
    "series": None,
    "edges": None,
    "l_d": None,
    "kappa": 1.0,
    "sigma": None,
    "synth": None,
}
SYNTH_DEFAULTS = {
    "nodes": 8,
    "days": 28,
    "l_d": 48,
    "shift_max": 2,
    "noise": 0.1,
    "seed": 7,
    "amp_weekly": 0.0,
}
DATASET_DEFAULTS = {
    "P": 12, "Q": 12, "S": 3, "d_count": 1, "w_count": 1,
    "split": [0.6, 0.2, 0.2],
}
MODEL_DEFAULTS = {
    "d_h": 64, "d_e": 8, "n_head": 8, "K": 2,
    "w_pre": 0.1, "w_adp": 0.9,
    "no_pre": False, "no_adp": False, "no_window": False, "no_period": False,
    "order": "attention_then_dgc",
}
TRAIN_DEFAULTS = {
    "learning_rate": 0.001, "batch_size": 16, "max_epochs": 200,
    "patience": 15, "seeds": [1, 2, 3, 4, 5], "grad_clip": 5.0,
    "teacher_forcing": False, "mape_floor": 0.001,
}

DATA_KEYS = {
    "series": "opt_str", "edges": "opt_str", "l_d": "opt_int",
    "kappa": "num", "sigma": "opt_num", "synth": "opt_dict",
}
SYNTH_KEYS = {
    "nodes": "int", "days": "int", "l_d": "int", "shift_max": "int",
    "noise": "num", "seed": "int", "amp_weekly": "num",
}
DATASET_KEYS = {
    "P": "int", "Q": "int", "S": "int", "d_count": "int", "w_count": "int",
    "split": "split",
}
# The last block mirrors dataset/data values; accepted on input (so a
# manifest's resolved config reloads) but must agree with the governing
# section.
MODEL_KEYS = {
    "d_h": "int", "d_e": "int", "n_head": "int", "K": "int",
    "w_pre": "num", "w_adp": "num",
    "no_pre": "bool", "no_adp": "bool", "no_window": "bool",
    "no_period": "bool", "order": "str",
    "P": "int", "Q": "int", "S": "int", "d_count": "int", "w_count": "int",
    "l_d": "int", "l_w": "int",
}
MIRRORED_MODEL_KEYS = ("P", "Q", "S", "d_count", "w_count", "l_d", "l_w")
TRAIN_KEYS = {
    "learning_rate": "num", "batch_size": "int", "max_epochs": "int",
    "patience": "int", "seeds": "seeds", "grad_clip": "opt_num",
    "teacher_forcing": "bool", "mape_floor": "num",
}

ABLATION_FLAG_SETS: Dict[str, Dict[str, bool]] = {
    label: dict(flags) for label, flags in ABLATION_VARIANTS
}


def _typed(value, kind: str, path: str):
    def fail(expected):
        raise SchemaError(f"{path}: expected {expected}, got {value!r}")

    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return value
    if kind == "opt_int":
        return None if value is None else _typed(value, "int", path)
    if kind == "num":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("a number")
        return float(value)
    if kind == "opt_num":
        return None if value is None else _typed(value, "num", path)
    if kind == "bool":
        if not isinstance(value, bool):
            fail("true or false")
        return value
    if kind == "str":
        if not isinstance(value, str):
            fail("a string")
        return value
    if kind == "opt_str":
        return None if value is None else _typed(value, "str", path)
    if kind == "opt_dict":
        if value is not None and not isinstance(value, dict):
            fail("an object")
        return value
    if kind == "seeds":
        if not isinstance(value, (list, tuple)) or not value:
            fail("a nonempty list of integers")
        return [_typed(v, "int", path) for v in value]
    if kind == "split":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            fail("a list of three ratios")
        return [_typed(v, "num", path) for v in value]
    raise AssertionError(f"unknown kind {kind}")


def _merge_section(name: str, defaults: dict, user: dict, keys: dict) -> dict:
    if not isinstance(user, dict):
        raise SchemaError(f"{name}: expected an object, got {user!r}")
    merged = dict(defaults)
    for key, value in user.items():
        if key not in keys:
            raise SchemaError(f"{name}.{key}: unknown key")
        merged[key] = _typed(value, keys[key], f"{name}.{key}")
    return merged


@dataclass
class ResolvedRun:
    """A config document with every default materialized and validated."""

    out_dir: Optional[str]
    data: dict
    dataset: DatasetSpec
    model: ModelConfig
    train: TrainConfig

    def config_doc(self) -> dict:
        ds, mc, tr = self.dataset, self.model, self.train
        return {
            "out_dir": self.out_dir,
            "data": dict(self.data),
            "dataset": {
                "P": ds.P, "Q": ds.Q, "S": ds.S,
                "d_count": ds.d_count, "w_count": ds.w_count,
                "split": list(ds.split),
            },
            "model": {k: getattr(mc, k) for k in ModelConfig.__dataclass_fields__},
            "train": {
                "learning_rate": tr.learning_rate,
                "batch_size": tr.batch_size,
                "max_epochs": tr.max_epochs,
                "patience": tr.patience,
                "seeds": list(tr.seeds),
                "grad_clip": tr.grad_clip,
                "teacher_forcing": tr.teacher_forcing,
                "mape_floor": tr.mape_floor,
            },
        }


def resolve_config(doc: dict) -> ResolvedRun:
    """Validate a raw config document and fill in every default.

    Raises SchemaError naming the offending field path.
    """
    allowed_top = {"out_dir", "data", "dataset", "model", "train"}
    for key in doc:
        if key not in allowed_top:
            raise SchemaError(f"{key}: unknown top-level key")
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise SchemaError(f"out_dir: expected a string, got {out_dir!r}")

    data = _merge_section("data", DATA_DEFAULTS, doc.get("data", {}), DATA_KEYS)
    if data["synth"] is not None:
        synth = _merge_section("data.synth", SYNTH_DEFAULTS, data["synth"], SYNTH_KEYS)
        if synth["nodes"] < 1:
            raise SchemaError(f"data.synth.nodes: must be >= 1, got {synth['nodes']}")
        if synth["days"] < 1:
            raise SchemaError(f"data.synth.days: must be >= 1, got {synth['days']}")
        if synth["l_d"] < 2:
            raise SchemaError(f"data.synth.l_d: must be >= 2, got {synth['l_d']}")
        if synth["shift_max"] < 0:
            raise SchemaError(f"data.synth.shift_max: must be >= 0, got {synth['shift_max']}")
        if synth["noise"] < 0:
            raise SchemaError(f"data.synth.noise: must be >= 0, got {synth['noise']}")
        if data["series"] is not None or data["edges"] is not None:
            raise SchemaError("data.synth: mutually exclusive with data.series/data.edges")
        if data["l_d"] is not None and data["l_d"] != synth["l_d"]:
            raise SchemaError(
                f"data.l_d: {data['l_d']} conflicts with data.synth.l_d {synth['l_d']}"
            )
        data["synth"] = synth
        data["l_d"] = synth["l_d"]
        # synthetic graphs are rings with unit distances and fixed kernel
        data["kappa"] = 1.0
        data["sigma"] = 1.0
    else:
        for key in ("series", "edges", "l_d"):
            if data[key] is None:
                raise SchemaError(f"data.{key}: required when data.synth is absent")
        if data["l_d"] < 2:
            raise SchemaError(f"data.l_d: must be >= 2, got {data['l_d']}")

    dataset_sec = _merge_section("dataset", DATASET_DEFAULTS, doc.get("dataset", {}), DATASET_KEYS)
    try:
        dataset = DatasetSpec(
            P=dataset_sec["P"], Q=dataset_sec["Q"], S=dataset_sec["S"],
            d_count=dataset_sec["d_count"], w_count=dataset_sec["w_count"],
            split=tuple(dataset_sec["split"]),
        )
    except DataError as exc:
        raise SchemaError(f"dataset: {exc}") from exc

    model_user = doc.get("model", {})
    model_sec = _merge_section("model", MODEL_DEFAULTS, model_user, MODEL_KEYS)
    mirrored = {
        "P": dataset.P, "Q": dataset.Q, "S": dataset.S,
        "d_count": dataset.d_count, "w_count": dataset.w_count,
        "l_d": data["l_d"], "l_w": 7 * data["l_d"],
    }
    for key, value in mirrored.items():
        if isinstance(model_user, dict) and key in model_user and model_user[key] != value:
            governing = "data.l_d" if key in ("l_d", "l_w") else f"dataset.{key}"
            raise SchemaError(
                f"model.{key}: {model_user[key]} conflicts with {governing} ({value})"
            )
        model_sec[key] = value
    try:
        model = ModelConfig(**model_sec)
    except ModelError as exc:
        raise SchemaError(f"model: {exc}") from exc

    train_sec = _merge_section("train", TRAIN_DEFAULTS, doc.get("train", {}), TRAIN_KEYS)
    try:
        train_cfg = TrainConfig(
            learning_rate=train_sec["learning_rate"],
            batch_size=train_sec["batch_size"],
            max_epochs=train_sec["max_epochs"],
            patience=train_sec["patience"],
            seeds=tuple(train_sec["seeds"]),
            grad_clip=train_sec["grad_clip"],
            teacher_forcing=train_sec["teacher_forcing"],
            mape_floor=train_sec["mape_floor"],
        )
    except TrainError as exc:
        raise SchemaError(f"train: {exc}") from exc

    return ResolvedRun(out_dir=out_dir, data=data, dataset=dataset,
                       model=model, train=train_cfg)


def _load_config_doc(path: Optional[str]) -> Tuple[dict, Optional[dict]]:
    """Read the config JSON; returns (doc, digest record or None).

    A run manifest is accepted too: its embedded resolved config is used,
    so a finished run can be repeated from its manifest alone.
    """
    if path is None:
        return {}, None
    if not os.path.isfile(path):
        raise SchemaError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "command" in doc and isinstance(doc.get("config"), dict):
        doc = doc["config"]
    return doc, {"path": path, "sha256": _sha256(path)}


def _set_in_doc(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    if len(keys) < 2 or not all(keys):
        raise SchemaError(f"--set {dotted!r}: key path must look like section.key")
    node = doc
    for key in keys[:-1]:
        nxt = node.setdefault(key, {})
        if not isinstance(nxt, dict):
            raise SchemaError(f"--set {dotted!r}: {key} is not a section")
        node = nxt
    node[keys[-1]] = value


def _apply_overrides(doc: dict, args: argparse.Namespace) -> None:
    for item in getattr(args, "set", None) or []:
        dotted, sep, raw = item.partition("=")
        if not sep:
            raise SchemaError(f"--set {item!r}: expected section.key=value")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        _set_in_doc(doc, dotted, value)
    ablation = getattr(args, "ablation", None)
    if ablation is not None:
        flags = ABLATION_FLAG_SETS[ablation]
        model = doc.setdefault("model", {})
        for key in ("no_pre", "no_adp", "no_window", "no_period"):
            model[key] = bool(flags.get(key, False))
    order = getattr(args, "order", None)
    if order is not None:
        doc.setdefault("model", {})["order"] = order
    seeds = getattr(args, "seeds", None)
    if seeds is not None:
        try:
            parsed = [int(s) for s in seeds.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise SchemaError(f"--seeds {seeds!r}: expected comma separated integers") from exc
        if not parsed:
            raise SchemaError(f"--seeds {seeds!r}: expected at least one seed")
        doc.setdefault("train", {})["seeds"] = parsed
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None:
        doc["out_dir"] = out_dir


def _resolve_from_args(args: argparse.Namespace) -> Tuple[ResolvedRun, Optional[dict]]:
    doc, config_digest = _load_config_doc(getattr(args, "config", None))
    _apply_overrides(doc, args)
    return resolve_config(doc), config_digest


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

@dataclass
class LoadedInputs:
    series: SignalSeries
    graph: GraphSpec
    a_pre: np.ndarray
    splits: DatasetSplits
    digests: dict


def _load_inputs(res: ResolvedRun) -> LoadedInputs:
    data = res.data
    digests: dict = {}
    if data["synth"] is not None:
        s = data["synth"]
        series, graph = synth_generate(
            n_nodes=s["nodes"], days=s["days"], l_d=s["l_d"],
            shift_max=s["shift_max"], noise=s["noise"], seed=s["seed"],
            amp_weekly=s["amp_weekly"],
        )
    else:
        for role in ("series", "edges"):
            if not os.path.isfile(data[role]):
                raise DataError(f"{role} file not found: {data[role]}")
        series = load_series(data["series"], l_d=data["l_d"])
        edges = read_edge_list(data["edges"])
        graph = GraphSpec(n_nodes=series.n_nodes, edges=edges,
                          kappa=data["kappa"], sigma=data["sigma"])
        digests = {
            "series": {"path": data["series"], "sha256": _sha256(data["series"])},
            "edges": {"path": data["edges"], "sha256": _sha256(data["edges"])},
        }
    a_pre = row_normalize(build_predefined(graph)).matrix.data
    splits = prepare_dataset(series, res.dataset)
    return LoadedInputs(series=series, graph=graph, a_pre=a_pre,
                        splits=splits, digests=digests)


def _variant_label(cfg: ModelConfig) -> str:
    state = {k: getattr(cfg, k) for k in ("no_pre", "no_adp", "no_window", "no_period")}
    for label, flags in ABLATION_VARIANTS:
        expected = {k: bool(flags.get(k, False)) for k in state}
        if expected == state:
            return label
    return "custom"


def _attention_candidates(cfg: ModelConfig) -> int:
    if cfg.no_period:
        return 0
    per_block = 1 if cfg.no_window else 2 * cfg.S + 1
    return (cfg.d_count + cfg.w_count) * per_block


def _derived_block(res: ResolvedRun, loaded: LoadedInputs) -> dict:
    ds, mc = res.dataset, res.model
    return {
        "n_nodes": loaded.series.n_nodes,
        "n_channels": loaded.series.n_channels,
        "n_steps": loaded.series.n_steps,
        "n_train": len(loaded.splits.train),
        "n_val": len(loaded.splits.val),
        "n_test": len(loaded.splits.test),
        "L": ds.L,
        "block_len": ds.block_len,
        "bank_len": mc.bank_len,
        "attention_candidates": _attention_candidates(mc),
        "variant": _variant_label(mc),
        "horizon_steps": horizon_steps_for(ds.Q),
    }


def _manifest_base(command: str, res: ResolvedRun, loaded: LoadedInputs,
                   config_digest: Optional[dict], seeds) -> dict:
    inputs = dict(loaded.digests)
    if config_digest is not None:
        inputs["config"] = config_digest
    return {
        "format_version": 1,
        "command": command,
        "status": "running",
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": res.config_doc(),
        "derived": _derived_block(res, loaded),
        "inputs": inputs,
        "seeds": list(seeds),
        "artifacts": {},
        "timings": {},
    }


def _require_out_dir(res: ResolvedRun) -> str:
    if not res.out_dir:
        raise SchemaError("out_dir: required (set it in the config or pass --out-dir)")
    os.makedirs(res.out_dir, exist_ok=True)
    return res.out_dir


def _write_seed_artifacts(out_dir: str, summary: TrainSummary,
                          checkpoints: bool = True) -> dict:
    per_seed = {}
    for run in summary.runs:
        seed_dir = os.path.join(out_dir, f"seed{run.seed}")
        os.makedirs(seed_dir, exist_ok=True)
        entry = {
            "metrics": os.path.join(seed_dir, "metrics.txt"),
            "history": os.path.join(seed_dir, "history.csv"),
        }
        write_metrics(entry["metrics"], run.test_report)
        write_history(entry["history"], run.history)
        if checkpoints:
            entry["checkpoint"] = os.path.join(seed_dir, "checkpoint.ckpt")
            save_checkpoint(run.state, entry["checkpoint"])
        per_seed[str(run.seed)] = entry
    return per_seed


def _write_summary(path: str, variant: str, summary: TrainSummary) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"variant={variant}\n")
        fh.write("seeds=" + ";".join(str(r.seed) for r in summary.runs) + "\n")
        for name in ("mae_mean", "mae_std", "mape_mean", "mape_std",
                     "rmse_mean", "rmse_std"):
            fh.write(f"{name}={_fmt(getattr(summary, name))}\n")
        fh.write("per_seed_mae=" + ";".join(_fmt(m) for m in summary.per_seed_mae) + "\n")


def _mean_report(summary: TrainSummary) -> MetricReport:
    reports = [run.test_report for run in summary.runs]
    mean_arr = lambda key: np.mean(np.stack([getattr(r, key) for r in reports]), axis=0)
    return MetricReport(
        mae=summary.mae_mean, mape=summary.mape_mean, rmse=summary.rmse_mean,
        per_step_mae=mean_arr("per_step_mae"),
        per_step_mape=mean_arr("per_step_mape"),
        per_step_rmse=mean_arr("per_step_rmse"),
        horizon_steps=list(reports[0].horizon_steps),
    )


def _timing_block(summary: TrainSummary, total: float) -> dict:
    per_seed = {}
    for run in summary.runs:
        per_seed[str(run.seed)] = {
            "seconds": round(sum(rec.seconds for rec in run.history), 3),
            "epochs": run.epochs_run,
            "steps": run.steps_run,
        }
    return {"total_seconds": round(total, 3), "per_seed": per_seed}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.nodes < 1:
        raise SchemaError(f"--nodes must be >= 1, got {args.nodes}")
    if args.days < 1:
        raise SchemaError(f"--days must be >= 1, got {args.days}")
    if args.ld < 2:
        raise SchemaError(f"--ld must be >= 2, got {args.ld}")
    if args.shift < 0:
        raise SchemaError(f"--shift must be >= 0, got {args.shift}")
    if args.noise < 0:
        raise SchemaError(f"--noise must be >= 0, got {args.noise}")
    os.makedirs(args.out, exist_ok=True)

    series, graph = synth_generate(
        n_nodes=args.nodes, days=args.days, l_d=args.ld,
        shift_max=args.shift, noise=args.noise, seed=args.seed,
        amp_weekly=args.amp_weekly,
    )
    series_path = os.path.join(args.out, "series.stgt")
    edges_path = os.path.join(args.out, "edges.csv")
    write_tensor_file(series_path, series.data)
    write_edge_list(edges_path, graph.edges)
    manifest = {
        "format_version": 1,
        "command": "gen-data",
        "flags": {
            "nodes": args.nodes, "days": args.days, "l_d": args.ld,
            "shift_max": args.shift, "noise": args.noise, "seed": args.seed,
            "amp_weekly": args.amp_weekly,
        },
        "outputs": {"series": "series.stgt", "edges": "edges.csv"},
        "sha256": {"series": _sha256(series_path), "edges": _sha256(edges_path)},
        "series_shape": list(series.data.shape),
        "graph": {"kappa": graph.kappa, "sigma": graph.sigma},
    }
    _write_json(os.path.join(args.out, "gen_manifest.json"), manifest)
    t, n, c = series.data.shape
    print(f"wrote {t}x{n}x{c} series to {series_path}")
    print(f"wrote {len(graph.edges)} edges to {edges_path}")
    print(f"series sha256 {manifest['sha256']['series']}")
    return EXIT_OK


def _check_jobs(args: argparse.Namespace) -> None:
    if getattr(args, "jobs", 1) < 1:
        raise SchemaError(f"--jobs must be >= 1, got {args.jobs}")


def cmd_train(args: argparse.Namespace) -> int:
    _check_jobs(args)
    res, config_digest = _resolve_from_args(args)
    out_dir = _require_out_dir(res)
    loaded = _load_inputs(res)

    manifest = _manifest_base("train", res, loaded, config_digest, res.train.seeds)
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json(manifest_path, manifest)

    start = time.time()
    try:
        summary = train(res.model, loaded.splits, loaded.a_pre, res.train,
                        jobs=args.jobs)
    except DivergenceError:
        manifest["status"] = "diverged"
        manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        _write_json(manifest_path, manifest)
        raise
    total = time.time() - start

    variant = _variant_label(res.model)
    artifacts = {"manifest": manifest_path,
                 "summary": os.path.join(out_dir, "summary.txt"),
                 "seeds": _write_seed_artifacts(out_dir, summary)}
    _write_summary(artifacts["summary"], variant, summary)

    manifest["status"] = "complete"
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest["artifacts"] = artifacts
    manifest["timings"] = _timing_block(summary, total)
    _write_json(manifest_path, manifest)

    print(f"trained {len(summary.runs)} seed(s), variant {variant}, in {total:.4g}s")
    print(f"test MAE  {summary.mae_mean:.4g} +/- {summary.mae_std:.4g}")
    print(f"test MAPE {summary.mape_mean:.4g}% +/- {summary.mape_std:.4g}%")
    print(f"test RMSE {summary.rmse_mean:.4g} +/- {summary.rmse_std:.4g}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    res, _ = _resolve_from_args(args)
    loaded = _load_inputs(res)
    state = init_model(res.model, loaded.series.n_nodes, loaded.series.n_channels, seed=0)
    load_checkpoint(args.checkpoint, state)
    report = evaluate(state, loaded.splits.test, loaded.a_pre,
                      loaded.splits.normalizer, res.train)
    if args.out:
        write_metrics(args.out, report)
    print(f"test MAE {report.mae:.4g} | MAPE {report.mape:.4g}% | RMSE {report.rmse:.4g}")
    for step, mae, mape, rmse in report.horizon_rows():
        print(f"step {step:>3}: MAE {mae:.4g} | MAPE {mape:.4g}% | RMSE {rmse:.4g}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    _check_jobs(args)
    res, config_digest = _resolve_from_args(args)
    out_dir = _require_out_dir(res)
    loaded = _load_inputs(res)

    manifest = _manifest_base("experiment", res, loaded, config_digest, res.train.seeds)
    manifest["kind"] = args.kind
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json(manifest_path, manifest)

    start = time.time()
    rows = run_experiment(args.kind, res.model, loaded.splits, loaded.a_pre,
                          res.train, jobs=args.jobs)
    total = time.time() - start

    table_path = os.path.join(out_dir, "table.csv")
    write_comparison_table(table_path, rows)
    artifacts = {"manifest": manifest_path, "table": table_path, "cells": {}}
    for row in rows:
        cell_dir = os.path.join(out_dir, row.label)
        os.makedirs(cell_dir, exist_ok=True)
        if row.summary is None:
            err_path = os.path.join(cell_dir, "error.txt")
            with open(err_path, "w", encoding="ascii") as fh:
                fh.write((row.error or "unknown error") + "\n")
            artifacts["cells"][row.label] = {"error": err_path}
            continue
        mean_path = os.path.join(cell_dir, "metrics_mean.txt")
        write_metrics(mean_path, _mean_report(row.summary))
        artifacts["cells"][row.label] = {
            "metrics_mean": mean_path,
            "seeds": _write_seed_artifacts(cell_dir, row.summary, checkpoints=False),
        }

    manifest["status"] = "complete"
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest["artifacts"] = artifacts
    manifest["timings"] = {"total_seconds": round(total, 3)}
    _write_json(manifest_path, manifest)

    print(f"experiment {args.kind}: {len(rows)} cells in {total:.4g}s")
    for row in rows:
        if row.summary is None:
            print(f"  {row.label:<22} FAILED: {row.error}")
        else:
            print(f"  {row.label:<22} MAE {row.summary.mae_mean:.4g} "
                  f"+/- {row.summary.mae_std:.4g}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

PRIMITIVE_TOL = 1e-6
MODEL_TOL = 1e-4


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    # A fixed random weighting makes the scalar sensitive to element order,
    # so permutation bugs in reshape/transpose/concat cannot cancel out.
    return tc.reduce_sum(tc.mul(out, Tensor(weights)))


def _primitive_checks(rng: np.random.Generator) -> List[Tuple[str, object, Tensor]]:
    x34 = rng.standard_normal((3, 4))
    other = rng.standard_normal((3, 4))
    vec = rng.standard_normal(4)
    scalar = np.array([0.7])
    b43 = rng.standard_normal((4, 3))
    a34 = rng.standard_normal((3, 4))
    off_zero = rng.uniform(0.3, 1.2, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))

    w34 = rng.standard_normal((3, 4))
    w33 = rng.standard_normal((3, 3))
    w38 = rng.standard_normal((3, 8))
    w32 = rng.standard_normal((3, 2))
    w4 = rng.standard_normal(4)
    w3 = rng.standard_normal(3)
    w26 = rng.standard_normal((2, 6))
    w43 = rng.standard_normal((4, 3))

    t_other = Tensor(other)
    t_vec = Tensor(vec)
    t_scalar = Tensor(scalar)
    t_b43 = Tensor(b43)
    t_a34 = Tensor(a34)
    concat_mate = Tensor(rng.standard_normal((3, 4)))
    comp_w1 = Tensor(rng.standard_normal((4, 3)))
    comp_w2 = Tensor(rng.standard_normal((4, 3)))
    adj33 = rng.standard_normal((3, 3))
    x234 = rng.standard_normal((2, 3, 4))
    w234 = rng.standard_normal((2, 3, 4))
    t_adj33 = Tensor(adj33)
    t_x234 = Tensor(x234)
    pool_w = rng.uniform(0.1, 1.0, (3, 3))
    t_pool_w = Tensor(pool_w)
    pool_mates = [Tensor(rng.standard_normal((3, 4))) for _ in range(2)]

    checks = [
        ("add", lambda t: _weighted_sum(tc.add(t, t_other), w34), x34),
        ("add_vector", lambda t: _weighted_sum(tc.add(t, t_vec), w34), x34),
        ("add_scalar", lambda t: _weighted_sum(tc.add(t, t_scalar), w34), x34),
        ("sub", lambda t: _weighted_sum(tc.sub(t, t_other), w34), x34),
        ("sub_vector", lambda t: _weighted_sum(tc.sub(t, t_vec), w34), x34),
        ("mul", lambda t: _weighted_sum(tc.mul(t, t_other), w34), x34),
        ("mul_vector", lambda t: _weighted_sum(tc.mul(t, t_vec), w34), x34),
        ("mul_scalar", lambda t: _weighted_sum(tc.mul(t, t_scalar), w34), x34),
        ("matmul_left", lambda t: _weighted_sum(tc.matmul(t, t_b43), w33), x34),
        ("matmul_right", lambda t: _weighted_sum(tc.matmul(t_a34, t), w33), b43),
        ("sigmoid", lambda t: _weighted_sum(tc.sigmoid(t), w34), x34),
        ("tanh", lambda t: _weighted_sum(tc.tanh(t), w34), x34),
        ("relu", lambda t: _weighted_sum(tc.relu(t), w34), off_zero),
        ("absolute", lambda t: _weighted_sum(tc.absolute(t), w34), off_zero),
        ("softmax", lambda t: _weighted_sum(tc.softmax(t, axis=1), w34), x34),
        ("concat", lambda t: _weighted_sum(tc.concat([t, concat_mate], axis=1), w38), x34),
        ("slice", lambda t: _weighted_sum(tc.slice_axis(t, 1, 1, 3), w32), x34),
        ("reduce_sum_all", lambda t: tc.reduce_sum(t), x34),
        ("reduce_sum_axis0", lambda t: _weighted_sum(tc.reduce_sum(t, axis=0), w4), x34),
        ("reduce_mean_all", lambda t: tc.reduce_mean(t), x34),
        ("reduce_mean_axis1", lambda t: _weighted_sum(tc.reduce_mean(t, axis=1), w3), x34),
        ("reshape", lambda t: _weighted_sum(tc.reshape(t, (2, 6)), w26), x34),
        ("transpose", lambda t: _weighted_sum(tc.transpose(t, (1, 0)), w43), x34),
        ("node_mix_adj", lambda t: _weighted_sum(tc.node_mix(t, t_x234), w234), adj33),
        ("node_mix_x", lambda t: _weighted_sum(tc.node_mix(t_adj33, t), w234), x234),
        ("weighted_pool_weights", lambda t: _weighted_sum(
            tc.weighted_pool(t, [t_other, *pool_mates]), w34), pool_w),
        ("weighted_pool_values", lambda t: _weighted_sum(
            tc.weighted_pool(t_pool_w, [pool_mates[0], t, pool_mates[1]]), w34), x34),
        ("composite", lambda t: _weighted_sum(
            tc.mul(tc.sigmoid(tc.matmul(t, comp_w1)), tc.tanh(tc.matmul(t, comp_w2))), w33), x34),
    ]
    return [(name, f, Tensor(x0)) for name, f, x0 in checks]


def _toy_model_setup(seed: int = 0):
    cfg = ModelConfig(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1,
                      d_count=1, w_count=1, l_d=16, l_w=112)
    n, c, b = 4, 1, 2
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((b, cfg.P, n, c))
    d = rng.standard_normal((b, cfg.d_count, cfg.bank_len, n, c))
    w = rng.standard_normal((b, cfg.w_count, cfg.bank_len, n, c))
    y = rng.standard_normal((b, cfg.Q, n, c))
    ring = GraphSpec(n, [(i, (i + 1) % n, 1.0) for i in range(n)], kappa=1.0, sigma=1.0)
    a_pre = row_normalize(build_predefined(ring)).matrix.data
    state = init_model(cfg, n, c, seed=seed)
    return state, r, d, w, y, a_pre


def _model_loss(state: ModelState, r, d, w, y, a_pre) -> Tensor:
    # Squared error, not MAE: the absolute value's kink turns central
    # differences into garbage whenever a residual sits near zero.
    trace = forward(state, r, d, w, a_pre=a_pre)
    diff = tc.sub(trace.predictions, Tensor(y))
    return tc.reduce_mean(tc.mul(diff, diff))


def _model_param_checks(n_params: int = 20, coords_per: int = 2,
                        h: float = 1e-5, seed: int = 0):
    """Central-difference spot checks on sampled model parameters.

    Returns (name, max_rel_error) per sampled parameter tensor.
    """
    state, r, d, w, y, a_pre = _toy_model_setup(seed)
    with Tape() as tape:
        loss = _model_loss(state, r, d, w, y, a_pre)
        backward(loss, tape)
    grads = {name: p.grad.copy() for name, p in state.params.items()}
    for p in state.params.values():
        p.grad = None

    rng = np.random.default_rng(seed + 1)
    names = sorted(state.params)
    picked = [names[i] for i in rng.choice(len(names), size=min(n_params, len(names)),
                                           replace=False)]
    rows = []
    for name in sorted(picked):
        param = state.params[name]
        flat = param.data.reshape(-1)
        idxs = rng.choice(flat.size, size=min(coords_per, flat.size), replace=False)
        worst = 0.0
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            up = _model_loss(state, r, d, w, y, a_pre).item()
            flat[idx] = orig - h
            down = _model_loss(state, r, d, w, y, a_pre).item()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = grads[name].reshape(-1)[idx]
            floor = 1e-3 * (1.0 + abs(numeric))
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
            worst = max(worst, rel)
        rows.append((name, worst))
    return rows


def _install_tanh_fault():
    """Swap in a tanh whose backward rule carries a constant bias.

    Test hook for the check harness itself: a correct harness must flag
    this immediately. Returns the original op for restoration.
    """
    original = tc.tanh

    def faulty_tanh(a: Tensor) -> Tensor:
        out = np.tanh(a.data)

        def backward_fn(g):
            return (g * (1.0 - out * out) + 1e-2,)

        return tc._emit((a,), out, backward_fn)

    tc.tanh = faulty_tanh
    return original


def cmd_gradcheck(args: argparse.Namespace) -> int:
    start = time.time()
    original_tanh = _install_tanh_fault() if args.inject_fault else None
    rows: List[Tuple[str, float, float]] = []
    try:
        for name, f, x0 in _primitive_checks(np.random.default_rng(0)):
            report = finite_diff_check(f, x0, tol=PRIMITIVE_TOL)
            rows.append((f"op:{name}", report.max_rel_error, PRIMITIVE_TOL))
        for name, max_rel in _model_param_checks():
            rows.append((f"model:{name}", max_rel, MODEL_TOL))
    finally:
        if original_tanh is not None:
            tc.tanh = original_tanh
    elapsed = time.time() - start

    failures = [(name, rel, tol) for name, rel, tol in rows if rel > tol]
    for name, rel, tol in rows:
        status = "FAIL" if rel > tol else "pass"
        print(f"{name:<34} max_rel {rel:<12.4g} tol {tol:g}  {status}")
    print(f"gradcheck: {len(rows) - len(failures)}/{len(rows)} checks passed "
          f"in {elapsed:.4g}s")

    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("check,max_rel_error,tol,status\n")
            for name, rel, tol in rows:
                status = "fail" if rel > tol else "pass"
                fh.write(f"{name},{_fmt(rel)},{_fmt(tol)},{status}\n")

    if failures:
        raise CheckFailure(f"{len(failures)} of {len(rows)} gradient checks "
                           f"exceeded tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_config_flags(sp: argparse.ArgumentParser, with_jobs: bool = True) -> None:
    sp.add_argument("--config", help="JSON config document (or a run manifest)")
    sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                    help="override one config value; repeatable; value parsed as JSON")
    sp.add_argument("--ablation",
                    choices=[label for label, _ in ABLATION_VARIANTS],
                    help="set the model's component switches to a named variant")
    sp.add_argument("--order", choices=list(ORDERS),
                    help="decoder stage order override")
    sp.add_argument("--seeds", help="comma separated training seeds")
    sp.add_argument("--out-dir", dest="out_dir", help="artifact directory")
    if with_jobs:
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker threads for independent replicas (default 1, "
                             "which is the reproducible mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficast",
        description="Periodic traffic forecasting: data, training, evaluation, checks.",
        epilog="exit codes: 0 ok, 2 usage/config, 3 data, 4 divergence, 5 check failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic series, edge list, and manifest")
    g.add_argument("--nodes", type=int, default=8)
    g.add_argument("--days", type=int, default=28)
    g.add_argument("--ld", type=int, default=48, help="samples per day")
    g.add_argument("--shift", type=int, default=2, help="max per-day phase jitter in steps")
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--amp-weekly", dest="amp_weekly", type=float, default=0.0,
                   help="weekly component amplitude (0 keeps the signal daily-periodic)")
    g.add_argument("--out", default=".", help="output directory")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train per the config, one run per seed")
    _add_config_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on the test split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", help="write the metric report here (machine format)")
    _add_config_flags(e, with_jobs=False)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference checks: primitives + full model")
    c.add_argument("--out", help="write the check table here (csv)")
    c.add_argument("--inject-fault", action="store_true",
                   help="deliberately corrupt one backward rule (harness self-test)")
    c.set_defaults(func=cmd_gradcheck)

    x = sub.add_parser("experiment", help="train a comparison grid and write its table")
    x.add_argument("kind", choices=["ablation", "multihead", "order"])
    _add_config_flags(x)
    x.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, TrainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
