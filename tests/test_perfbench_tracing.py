"""perfbench's traced wrappers on one toy training step: installed, counted,
and put back, with each evaluation batch counted as an eval step. Asserts
structure only, never timings."""

import importlib.util
import math
import sys
from pathlib import Path

from trafficast import cli, data, graph, model, tensor, training
from trafficast.data import DatasetSpec, prepare_dataset, synth_generate
from trafficast.graph import build_predefined, row_normalize
from trafficast.model import ModelConfig
from trafficast.training import TrainConfig

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"tensor": tensor, "graph": graph, "data": data, "model": model,
           "training": training, "cli": cli}


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _toy_step(tracer, modules):
    """One training step of a toy model under `tracer`, then validation and
    test: 20 and 22 samples, 2 batches each at the default batch size."""
    series, ring = synth_generate(n_nodes=4, days=16, l_d=12, shift_max=1, noise=0.3, seed=0)
    splits = prepare_dataset(series, DatasetSpec(P=3, Q=2, S=1))
    a_pre = row_normalize(build_predefined(ring)).matrix.data
    cfg = ModelConfig(d_h=6, d_e=2, n_head=2, K=1, P=3, Q=2, S=1)
    train_cfg = TrainConfig(max_epochs=1, seeds=(1,))
    tracer.install(modules)
    try:
        training.train_single(cfg, splits, a_pre, train_cfg, seed=1, max_steps=1)
    finally:
        tracer.uninstall()
    return splits, train_cfg


def test_traced_step_labels_every_stage_and_restores_the_package(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = MODULES
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = tracing.Tracer(traced=True)
    _toy_step(tracer, modules)

    for qual in tracing.ALWAYS + tracing.TRACED:
        mod_name, attr = qual.split(".")
        assert getattr(modules[mod_name], attr) is before[mod_name][attr], qual
    for name, mod in modules.items():
        assert all(vars(mod).get(k) is v for k, v in before[name].items()), name

    assert len(tracer.tapes) == 1
    stage_records = tracer.tapes[0].stage_records
    for stage in ("encoder", "attention", "dgc", "decoder_gru"):
        assert stage_records[stage] > 0, stage

    # a dense cell inside the graph cell would move the DGC-GRU's time and
    # records into the decoder GRU's stage
    by_id = {span.id: span for span in tracer.spans}
    names = {span.name for span in tracer.spans}
    assert {"model.gru_cell", "model.dgcgru_cell"} <= names
    nested = [span for span in tracer.spans if span.name == "model.gru_cell"
              and span.parent in by_id and by_id[span.parent].name == "model.dgcgru_cell"]
    assert nested == []


def test_every_evaluation_batch_is_an_eval_step(monkeypatch):
    # the benchmark counts a batch as eval only inside predict: one training
    # step, then each validation and test batch
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer(traced=False)
    splits, train_cfg = _toy_step(tracer, MODULES)

    kinds = [step.kind for step in tracer.steps]
    val_batches = math.ceil(len(splits.val) / train_cfg.batch_size)
    test_batches = math.ceil(len(splits.test) / train_cfg.batch_size)
    assert val_batches >= 2 and test_batches >= 2
    assert kinds.count("train") == 1
    assert kinds.count("eval") == val_batches + test_batches
