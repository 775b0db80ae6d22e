"""Command line front end: data generation, training, evaluation, checks.

Run configuration is a JSON document (nested key-value sections: data,
dataset, model, train, out_dir) plus command line overrides. Precedence,
lowest to highest: built-in defaults, the config document, repeated
`--set section.key=value` flags in the order given, then the named
convenience flags (--ablation, --order, --seeds, --out-dir).

Training and experiment runs write a manifest that materializes the
fully resolved configuration (no default left implicit), input file
digests, the seed list, artifact paths, and wall clock timings. The
manifest is written with status "running" when the run starts and
finalized when it ends, as "complete", "diverged", or "failed" with the
error message under "error"; feeding it back to `train --config` reruns
the embedded configuration.

Machine-read files carry 17 significant digits; stdout summaries carry 4.
Timings live only in the manifest and history files, so checkpoints,
metric files, summaries, and tables are byte-identical across reruns
with the same inputs and seeds. Seeds and grid cells run one after
another; --jobs is parsed and checked but sets nothing.

Exit codes:
    0  success
    2  usage or configuration error (bad flags, malformed or conflicting
       config values, checkpoint incompatible with the config)
    3  data or file error (missing or unreadable input files, corrupt
       payloads, an output path that cannot be written)
    4  numeric divergence during training
    5  gradient check failure
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, get_type_hints

import numpy as np

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
from trafficast.gradcheck import run_checks
from trafficast.model import (
    ModelConfig,
    ModelError,
    ORDERS,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from trafficast.training import (
    ABLATION_VARIANTS,
    MAPE_FLOOR,
    DivergenceError,
    MetricReport,
    TrainConfig,
    TrainError,
    TrainSummary,
    _fmt,
    evaluate,
    horizon_steps_for,
    run_experiment,
    train,
    variant_of,
    variant_switches,
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
# configuration schema: one table per section, validation, resolution
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    """One config key: its default, its kind (see `_typed`), the `gen-data`
    flag of a data.synth key, and the smallest allowed value, if any."""

    default: object
    kind: str
    flag: Optional[str] = None
    minimum: Optional[int] = None


DATA_SCHEMA = {
    "series": Key(None, "opt_str"),
    "edges": Key(None, "opt_str"),
    "l_d": Key(None, "opt_int", minimum=2),
    "kappa": Key(1.0, "num", minimum=0),
    "sigma": Key(None, "opt_num"),
    "synth": Key(None, "opt_dict"),
}
SYNTH_SCHEMA = {
    "nodes": Key(8, "int", "--nodes", 1),
    "days": Key(28, "int", "--days", 1),
    "l_d": Key(48, "int", "--ld", 2),
    "shift_max": Key(2, "int", "--shift", 0),
    "noise": Key(0.1, "num", "--noise", 0),
    "seed": Key(7, "int", "--seed", 0),
    "amp_weekly": Key(0.0, "num", "--amp-weekly"),
}

_KIND_OF_TYPE = {
    int: "int", float: "num", bool: "bool", str: "str",
    Optional[float]: "opt_num", Tuple[int, ...]: "seeds",
    Tuple[float, float, float]: "split",
}


def _schema_of(cls) -> Dict[str, Key]:
    hints = get_type_hints(cls)
    return {f.name: Key(f.default, _KIND_OF_TYPE[hints[f.name]])
            for f in dataclasses.fields(cls)}


# The dataclasses are the schema of their sections: keys, defaults, kinds.
SECTION_TYPES = {"dataset": DatasetSpec, "model": ModelConfig, "train": TrainConfig}
SCHEMAS = {name: _schema_of(cls) for name, cls in SECTION_TYPES.items()}
# ModelConfig copies the dataset's windows (P, Q, S, d_count, w_count);
# only the dataset section sets them.
WINDOWS = tuple(key for key in SCHEMAS["dataset"] if key in SCHEMAS["model"])
SCHEMAS["model"] = {k: v for k, v in SCHEMAS["model"].items() if k not in WINDOWS}


_PLAIN_KINDS = {"bool": (bool, "true or false"), "str": (str, "a string"),
                "dict": (dict, "an object")}


def _typed(value, kind: str, path: str):
    def fail(expected):
        raise SchemaError(f"{path}: expected {expected}, got {value!r}")

    if kind.startswith("opt_"):
        return None if value is None else _typed(value, kind[4:], path)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return value
    if kind == "num":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("a number")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            fail("a finite number")
        return number
    if kind in _PLAIN_KINDS:
        cls, expected = _PLAIN_KINDS[kind]
        if not isinstance(value, cls):
            fail(expected)
        return value
    if kind == "seeds":
        if not isinstance(value, (list, tuple)) or not value:
            fail("a nonempty list of integers")
        return tuple(_typed(v, "int", path) for v in value)
    if kind == "split":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            fail("a list of three ratios")
        return tuple(_typed(v, "num", path) for v in value)
    raise AssertionError(f"unknown kind {kind}")


def _merge_section(name: str, user, schema: Dict[str, Key], by_flag: bool = False,
                   pinned: Optional[dict] = None) -> dict:
    """The schema defaults overlaid with the checked `user` values.

    A `pinned` key sets nothing: typed as its (source, value) entry's value,
    it must equal that value and is dropped. Messages name `name.key`, or
    the key's `gen-data` flag with `by_flag`.
    """
    if not isinstance(user, dict):
        raise SchemaError(f"{name}: expected an object, got {user!r}")
    merged = {key: spec.default for key, spec in schema.items()}
    for key, value in user.items():
        if key in (pinned or {}):
            source, expected = pinned[key]
            value = _typed(value, _KIND_OF_TYPE[type(expected)], f"{name}.{key}")
            if value != expected:
                raise SchemaError(f"{name}.{key}: {value} conflicts with {source} ({expected})")
            continue
        spec = schema.get(key)
        if spec is None:
            raise SchemaError(f"{name}.{key}: unknown key")
        path = spec.flag if by_flag else f"{name}.{key}"
        value = _typed(value, spec.kind, path)
        if spec.minimum is not None and value is not None and value < spec.minimum:
            raise SchemaError(f"{path}: must be >= {spec.minimum}, got {value}")
        merged[key] = value
    return merged


def _build(name: str, values: dict):
    try:
        return SECTION_TYPES[name](**values)
    except (DataError, ModelError, TrainError) as exc:
        raise SchemaError(f"{name}: {exc}") from exc


def _generate(synth: dict):
    params = dict(synth)
    return synth_generate(n_nodes=params.pop("nodes"), **params)


@dataclass
class ResolvedRun:
    """A config document with every default materialized and validated."""

    out_dir: Optional[str]
    data: dict
    dataset: DatasetSpec
    model: ModelConfig
    train: TrainConfig

    def config_doc(self) -> dict:
        doc = {"out_dir": self.out_dir, "data": dict(self.data)}
        for name, schema in SCHEMAS.items():
            values = {key: getattr(getattr(self, name), key) for key in schema}
            doc[name] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
        return doc


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

    data = _merge_section("data", doc.get("data", {}), DATA_SCHEMA)
    if data["sigma"] is not None and data["sigma"] <= 0:
        raise SchemaError(f"data.sigma: must be > 0, got {data['sigma']}")
    if data["synth"] is not None:
        synth = _merge_section("data.synth", data["synth"], SYNTH_SCHEMA)
        if data["series"] is not None or data["edges"] is not None:
            raise SchemaError("data.synth: mutually exclusive with data.series/data.edges")
        if data["l_d"] is not None and data["l_d"] != synth["l_d"]:
            raise SchemaError(
                f"data.l_d: {data['l_d']} conflicts with data.synth.l_d {synth['l_d']}"
            )
        # synthetic graphs are rings with unit distances and fixed kernel
        data.update(synth=synth, l_d=synth["l_d"], kappa=1.0, sigma=1.0)
    else:
        for key in ("series", "edges", "l_d"):
            if data[key] is None:
                raise SchemaError(f"data.{key}: required when data.synth is absent")

    dataset = _build("dataset", _merge_section("dataset", doc.get("dataset", {}),
                                               SCHEMAS["dataset"]))
    windows = {key: getattr(dataset, key) for key in WINDOWS}

    # Keys that older manifests carry but that set nothing: the model's
    # copies of the windows and of data.l_d, and retired train knobs.
    only = "its only accepted value"
    pinned = {
        "model": {**{key: (f"dataset.{key}", value) for key, value in windows.items()},
                  "l_d": ("data.l_d", data["l_d"]), "l_w": ("data.l_d", 7 * data["l_d"])},
        "train": {"teacher_forcing": (only, False), "mape_floor": (only, MAPE_FLOOR)},
    }
    model = _build("model", {**_merge_section("model", doc.get("model", {}), SCHEMAS["model"],
                                              pinned=pinned["model"]), **windows})
    train_cfg = _build("train", _merge_section("train", doc.get("train", {}), SCHEMAS["train"],
                                               pinned=pinned["train"]))
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
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8: byte {raw[exc.start]:#04x} at byte offset {exc.start}"
        ) from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "command" in doc and isinstance(doc.get("config"), dict):
        doc = doc["config"]
    return doc, {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


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
        doc.setdefault("model", {}).update(variant_switches(ablation))
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
    a_pre: np.ndarray
    splits: DatasetSplits
    digests: dict


def _load_inputs(res: ResolvedRun) -> LoadedInputs:
    data = res.data
    digests: dict = {}
    if data["synth"] is not None:
        series, graph = _generate(data["synth"])
        edges = graph.edges
    else:
        for role in ("series", "edges"):
            if not os.path.isfile(data[role]):
                raise DataError(f"{role} file not found: {data[role]}")
        series = load_series(data["series"], l_d=data["l_d"])
        edges = read_edge_list(data["edges"])
        digests = {
            "series": {"path": data["series"], "sha256": _sha256(data["series"])},
            "edges": {"path": data["edges"], "sha256": _sha256(data["edges"])},
        }
    # a synthetic ring with data.kappa/sigma cannot fail, so errors are the edge file's
    try:
        graph = GraphSpec(n_nodes=series.n_nodes, edges=edges,
                          kappa=data["kappa"], sigma=data["sigma"])
        a_pre = row_normalize(build_predefined(graph)).matrix.data
    except GraphError as exc:
        raise GraphError(f"{data['edges']}: {exc}") from None
    try:
        splits = prepare_dataset(series, res.dataset)
    except DataError as exc:
        if data["synth"] is not None:
            raise
        raise DataError(f"{data['series']}: {exc}") from None
    return LoadedInputs(series=series, a_pre=a_pre, splits=splits, digests=digests)


def _require_samples(splits: DatasetSplits, roles: Tuple[str, ...]) -> None:
    # checked before any output exists; train_single keeps its own check
    counts = "/".join(str(len(split)) for split in (splits.train, splits.val, splits.test))
    empty = [role for role in roles if not getattr(splits, role)]
    if empty:
        raise SchemaError(f"dataset.split: no {'/'.join(empty)} samples, "
                          f"got {counts} train/val/test")


def _attention_candidates(cfg: ModelConfig) -> int:
    if cfg.no_period:
        return 0
    return (cfg.d_count + cfg.w_count) * (2 * cfg.window_half + 1)


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
        "attention_candidates": _attention_candidates(mc),
        "variant": variant_of(mc),
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
        "started_at": _utc_now(),
        "config": res.config_doc(),
        "derived": _derived_block(res, loaded),
        "inputs": inputs,
        "seeds": list(seeds),
        "artifacts": {},
        "timings": {},
    }


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextmanager
def _started_run(args: argparse.Namespace, command: str, **fields
                 ) -> Iterator[Tuple[ResolvedRun, LoadedInputs, dict, str]]:
    """Resolve and load a run, then own its manifest until the block ends.

    Yields the run, its inputs, its manifest and the manifest's path. Every
    check comes before the output directory is made, so a run that fails
    on its config or inputs leaves nothing behind. The manifest is written
    with status running (plus `fields`) and finalized as complete when the
    block returns, diverged on a DivergenceError, or failed with the
    error's message on any other exception, which is re-raised.
    """
    if args.jobs < 1:
        raise SchemaError(f"--jobs must be >= 1, got {args.jobs}")
    res, config_digest = _resolve_from_args(args)
    if not res.out_dir:
        raise SchemaError("out_dir: required (set it in the config or pass --out-dir)")
    loaded = _load_inputs(res)
    _require_samples(loaded.splits, ("train", "val", "test"))
    os.makedirs(res.out_dir, exist_ok=True)
    manifest = {**_manifest_base(command, res, loaded, config_digest, res.train.seeds),
                **fields}
    path = os.path.join(res.out_dir, "manifest.json")
    _write_json(path, manifest)

    def finish(status: str, **final) -> None:
        manifest.update(status=status, finished_at=_utc_now(), **final)
        _write_json(path, manifest)

    try:
        yield res, loaded, manifest, path
    except DivergenceError:
        finish("diverged")
        raise
    except BaseException as exc:
        finish("failed", error=str(exc) or type(exc).__name__)
        raise
    finish("complete")


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
    synth = _merge_section("gen-data", {key: getattr(args, key) for key in SYNTH_SCHEMA},
                           SYNTH_SCHEMA, by_flag=True)
    os.makedirs(args.out, exist_ok=True)

    series, graph = _generate(synth)
    series_path = os.path.join(args.out, "series.stgt")
    edges_path = os.path.join(args.out, "edges.csv")
    write_tensor_file(series_path, series.data)
    write_edge_list(edges_path, graph.edges)
    manifest = {
        "format_version": 1,
        "command": "gen-data",
        "flags": synth,
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


def cmd_train(args: argparse.Namespace) -> int:
    with _started_run(args, "train") as (res, loaded, manifest, manifest_path):
        out_dir = res.out_dir
        start = time.time()
        summary = train(res.model, loaded.splits, loaded.a_pre, res.train)
        total = time.time() - start

        variant = variant_of(res.model)
        artifacts = {"manifest": manifest_path,
                     "summary": os.path.join(out_dir, "summary.txt"),
                     "seeds": _write_seed_artifacts(out_dir, summary)}
        _write_summary(artifacts["summary"], variant, summary)
        manifest.update(artifacts=artifacts, timings=_timing_block(summary, total))

    print(f"trained {len(summary.runs)} seed(s), variant {variant}, in {total:.4g}s")
    print(f"test MAE  {summary.mae_mean:.4g} +/- {summary.mae_std:.4g}")
    print(f"test MAPE {summary.mape_mean:.4g}% +/- {summary.mape_std:.4g}%")
    print(f"test RMSE {summary.rmse_mean:.4g} +/- {summary.rmse_std:.4g}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    res, _ = _resolve_from_args(args)
    loaded = _load_inputs(res)
    _require_samples(loaded.splits, ("test",))
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
    with _started_run(args, "experiment",
                      kind=args.kind) as (res, loaded, manifest, manifest_path):
        out_dir = res.out_dir
        start = time.time()
        rows = run_experiment(args.kind, res.model, loaded.splits, loaded.a_pre, res.train)
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
        manifest.update(artifacts=artifacts, timings={"total_seconds": round(total, 3)})

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

def cmd_gradcheck(args: argparse.Namespace) -> int:
    start = time.time()
    rows = run_checks(inject_fault=args.inject_fault)
    elapsed = time.time() - start

    failures = [(name, rel, tol) for name, rel, tol in rows if rel > tol]
    for name, rel, tol in rows:
        status = "FAIL" if rel > tol else "pass"
        print(f"{name:<36} max_rel {rel:<12.4g} tol {tol:g}  {status}")
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
                    choices=list(ABLATION_VARIANTS),
                    help="set the model's component switches to a named variant")
    sp.add_argument("--order", choices=list(ORDERS),
                    help="decoder stage order override")
    sp.add_argument("--seeds", help="comma separated training seeds")
    sp.add_argument("--out-dir", dest="out_dir", help="artifact directory")
    if with_jobs:
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored (must be >= 1): seeds and grid cells "
                             "run one after another, which beat worker threads on 2 "
                             "vCPUs; removed once the benchmark's grid_jobs2 workload "
                             "stops passing it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficast",
        description="Periodic traffic forecasting: data, training, evaluation, checks.",
        epilog="exit codes: 0 ok, 2 usage/config, 3 data, 4 divergence, 5 check failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic series, edge list, and manifest")
    for key, spec in SYNTH_SCHEMA.items():
        g.add_argument(spec.flag, dest=key, type=int if spec.kind == "int" else float,
                       default=spec.default, help=f"data.synth.{key} (default %(default)s)")
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


# Built once at import: main() may run many times in one process.
PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ModelError, TrainError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except DivergenceError as exc:
        code, message = EXIT_DIVERGED, f"training diverged: {exc}"
    except (DataError, GraphError, OSError) as exc:
        code, message = EXIT_DATA, str(exc)
    except CheckFailure as exc:
        code, message = EXIT_CHECK, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
