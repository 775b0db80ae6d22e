"""Turn a run's steps, spans and tape counts into named metrics.

Every function returns ``{name: (value, unit)}``. Times are medians over the
measured steps: the workload's step kind, in the timed phase, not the first
(cold) step of its ``train_single`` / ``predict`` call, and a full batch.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from tracing import STAGE_OF
from workloads import BATCH

OPS = ("matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu", "absolute",
       "softmax", "concat", "slice_axis", "reduce_sum", "reduce_mean",
       "reshape", "transpose")
MODEL_STAGES = ("encoder", "decoder_gru", "attention", "dgc", "output")
MIB = 2.0**20

Metrics = Dict[str, Tuple[float, str]]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _timed(tracer, kind: str, full: bool = True) -> list:
    return [s for s in tracer.steps
            if s.kind == kind and s.phase == "timed" and not s.first and s.end > 0
            and (not full or s.samples == BATCH)]


def step_median(tracer, kind: str) -> float:
    return _median(s.end - s.start for s in _timed(tracer, kind))


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(tracer, out, peak_rss_mib: float) -> Metrics:
    """The metrics BENCHMARK.json lists as end_to_end, for any workload."""
    steps = _timed(tracer, out.kind, full=False)
    if out.rates:
        samples_per_s = _median(out.rates)
    else:
        samples_per_s = (sum(s.samples for s in steps)
                         / sum(s.end - s.start for s in steps))
    return {
        "setup_s": (_median(out.setup_s), "s"),
        "step_s": (step_median(tracer, out.kind), "s"),
        "samples_per_s": (samples_per_s, "samples/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def named(tracer, out, e2e: Metrics) -> Dict[str, object]:
    """The workload's metrics under the names its documentation uses.

    These are printed for reading; the gated JSON uses the generic names of
    ``end_to_end``, which every workload reports.
    """
    durations = [s.end - s.start for s in _timed(tracer, out.kind)]
    res: Dict[str, object] = {}
    prefix = "eval_batch_s" if out.kind == "eval" else "step_s"
    res[prefix] = (e2e["step_s"][0], "s", f"n={len(durations)}")
    t = tail(durations)
    if t is not None:
        res[prefix + "_tail"] = (t[1], "s", f"p{t[0]:.1f}")
    res["eval_samples_per_s" if out.kind == "eval" else "train_samples_per_s"] = (
        e2e["samples_per_s"][0], "samples/s", "")
    if out.fit_s:
        res["fit_s"] = (_median(out.fit_s), "s", f"n={len(out.fit_s)}")
    if out.grid_s:
        res["cells_per_s"] = (out.cells / sum(out.grid_s), "cells/s",
                              f"cells={out.cells}")
    if out.test_mae:
        res["test_mae"] = (_median(out.test_mae), "mae", f"n={len(out.test_mae)}")
    res["setup_s"] = (e2e["setup_s"][0], "s", f"n={len(out.setup_s)}")
    res["peak_rss_mib"] = (e2e["peak_rss_mib"][0], "MiB", "")
    res["failed_frac"] = (out.failed / max(out.attempted, 1), "ratio",
                          f"{out.failed}/{out.attempted}")
    return res


def _self_times(spans) -> Dict[int, float]:
    child: Dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) for s in spans}


def _spans_named(tracer, *names):
    return [s for s in tracer.spans if s.name in names]


def per_layer(tracer, out, untraced_step_s: float) -> Metrics:
    """The metrics BENCHMARK.json lists as per_layer, from a traced run.

    Forward figures come from the workload's measured steps. Tape, backward
    and optimizer figures come from its training steps; eval_n207 has none
    and takes them from its one-sample probe step instead.
    """
    ids = {s.id for s in _timed(tracer, out.kind)}
    if out.kind == "train":
        train_ids = ids
    else:
        train_ids = {s.id for s in tracer.steps if s.phase == "probe" and s.kind == "train"}
    self_s = _self_times(tracer.spans)
    per_step: Dict[int, Dict[str, float]] = {i: {} for i in ids | train_ids}
    for span in tracer.spans:
        if span.step not in per_step:
            continue
        acc = per_step[span.step]
        key = STAGE_OF.get(span.name)
        if key is not None:
            acc[key] = acc.get(key, 0.0) + self_s[span.id]
        elif span.name in ("training.clip_gradients", "training.adam_step"):
            acc["optimizer"] = acc.get("optimizer", 0.0) + (span.end - span.start)
        elif span.name == "data.stack_batch":
            acc["batch"] = acc.get("batch", 0.0) + (span.end - span.start)

    def step_med(key, among=ids):
        return _median(per_step[i].get(key, 0.0) for i in among)

    tapes = [t for t in tracer.tapes if t.step in train_ids]
    counts = tapes[0] if tapes else None

    def tape_med(fn):
        return _median(fn(t) for t in tapes)

    m: Metrics = {}
    m["tensor.records_per_step"] = (counts.records if counts else 0, "count")
    for op in OPS:
        m[f"tensor.records.{op}"] = (counts.by_op.get(op, 0) if counts else 0, "count")
    m["tensor.tape_bytes_per_step"] = (counts.bytes / MIB if counts else 0.0, "MiB")
    m["tensor.grad_bytes"] = (tape_med(lambda t: t.grad_bytes) / MIB, "MiB")
    m["tensor.backward_s"] = (tape_med(lambda t: t.backward_s), "s")
    for stage in MODEL_STAGES:
        m[f"model.{stage}.fwd_s"] = (step_med(stage), "s")
        m[f"model.{stage}.bwd_s"] = (tape_med(lambda t: t.stage_bwd_s[stage]), "s")
        m[f"model.{stage}.records"] = (
            counts.stage_records[stage] if counts else 0, "count")
        m[f"model.{stage}.bytes"] = (
            counts.stage_bytes[stage] / MIB if counts else 0.0, "MiB")
    m["graph.adjacency_fwd_s"] = (step_med("adjacency"), "s")
    m["graph.adjacency_bwd_s"] = (tape_med(lambda t: t.stage_bwd_s["adjacency"]), "s")
    m["graph.adjacency_records"] = (
        counts.stage_records["adjacency"] if counts else 0, "count")
    m["graph.predefined_s"] = (_per_call(tracer, ("graph.build_predefined",
                                                  "graph.row_normalize")), "s")
    m["data.load_s"] = (_per_call(tracer, ("data.load_series",
                                           "graph.read_edge_list")), "s")
    m["data.prepare_s"] = (_per_call(tracer, ("data.prepare_dataset",)), "s")
    m["data.sample_bytes"] = (out.sample_bytes / MIB, "MiB")
    m["data.batch_s"] = (step_med("batch"), "s")
    m["training.optimizer_s"] = (step_med("optimizer", train_ids), "s")
    m["training.eval_s"] = (_median(s.end - s.start for s in
                                    _spans_named(tracer, "training.evaluate")), "s")
    m["training.grid_concurrency"] = (_grid_concurrency(tracer), "ratio")
    m["cli.resolve_s"] = (_median(s.end - s.start for s in
                                  _spans_named(tracer, "cli.resolve_config")), "s")
    m["cli.overhead_s"] = (_cli_overhead(tracer, self_s), "s")
    traced_step = step_median(tracer, out.kind)
    m["trace.overhead_frac"] = (
        traced_step / untraced_step_s - 1.0 if untraced_step_s else 0.0, "ratio")
    return m


def _per_call(tracer, names) -> float:
    """Summed time of `names` per call of the first one (one input build)."""
    spans = _spans_named(tracer, *names)
    calls = sum(1 for s in spans if s.name == names[0])
    return sum(s.end - s.start for s in spans) / calls if calls else 0.0


def _within(outer, spans):
    return [s for s in spans if outer.start <= s.start and s.end <= outer.end]


def _grid_concurrency(tracer) -> float:
    """Per grid: summed cell wall time over the grid's wall time."""
    cells = _spans_named(tracer, "training.train")
    return _median(sum(c.end - c.start for c in _within(g, cells)) / (g.end - g.start)
                   for g in _spans_named(tracer, "training.run_experiment"))


def _cli_overhead(tracer, self_s) -> float:
    """Self time of the `cli.main` calls that run the workload's loop.

    That is `experiment` where a grid ran, else `gen-data`: argument
    checks, manifests, tables and artifact files, without the wrapped
    library calls they make.
    """
    mains = _spans_named(tracer, "cli.main")
    grids = _spans_named(tracer, "training.run_experiment")
    driving = [m for m in mains if _within(m, grids)] or mains
    return _median(self_s[m.id] for m in driving)
