"""The benchmark's four closed-loop workloads and their output checks.

Each workload is one client in one process: every step waits for the one
before it. Inputs come from ``data.synth_generate`` with the workload seed,
written to files by ``gen-data`` and read back, so nothing is downloaded.
Each workload's configuration is a config document resolved by
``cli.resolve_config``, as a user's ``run.json`` would be. The program's
own loops do the work (``train_single``, ``predict``, ``cli.main``); the
tracer's wrappers find the step boundaries inside them.

A workload runs ``reps`` set-ups. Each set-up makes its inputs afresh and
starts the program, which pays for the first (cold) step; the last set-up
continues into the timed phase. The first set-up's last step sizes the
timed phase to the time budget (train_n32 runs one steady step for that,
since its cold step is much slower than a steady one).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from trafficast import cli, data, graph, training

BATCH = 16
ORDER_LABELS = ("attention_then_dgc", "dgc_then_attention")


@dataclass
class Ctx:
    seed: int
    seconds: float
    tracer: object
    workdir: str
    reps: int


@dataclass
class Outcome:
    """What a workload did, for the metrics and the checks."""

    kind: str                       # step kind that step_s reads: train or eval
    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)  # samples/s per fit or grid
    fit_s: List[float] = field(default_factory=list)
    grid_s: List[float] = field(default_factory=list)
    cells: int = 0
    test_mae: List[float] = field(default_factory=list)
    sample_bytes: int = 0
    working_set: Dict[str, float] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """The synthetic series a workload generates (`trafficast gen-data`)."""

    nodes: int
    days: int
    l_d: int
    noise: float

    def samples(self, P: int, Q: int) -> int:
        return self.days * self.l_d - 7 * self.l_d - P - Q + 1


@dataclass
class Inputs:
    doc: dict        # the config document, as a user would write it
    run: object      # cli.resolve_config(doc)
    splits: object
    a_pre: np.ndarray
    seconds: float


def _split(shape: Shape, P: int, Q: int, n_train: int, n_val: int) -> list:
    """Split ratios that give exactly n_train and n_val samples.

    prepare_dataset truncates n*ratio, so each ratio carries half a sample
    of margin against rounding.
    """
    n = shape.samples(P, Q)
    s0, s1 = (n_train + 0.5) / n, (n_val + 0.5) / n
    return [s0, s1, 1.0 - s0 - s1]


def make_inputs(ctx: Ctx, shape: Shape, sections: dict) -> Inputs:
    """Generate and write a series, resolve the config, read the files back,
    and build the adjacency and the splits.

    The series and edge list come from the CLI's `gen-data` command; the
    config goes through `cli.resolve_config`, the one schema every command
    uses.
    """
    t0 = time.perf_counter()
    argv = ["gen-data", "--nodes", str(shape.nodes), "--days", str(shape.days),
            "--ld", str(shape.l_d), "--shift", "2", "--noise", str(shape.noise),
            "--seed", str(ctx.seed), "--out", ctx.workdir]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gen-data exited {code}")
    doc = {key: dict(value) for key, value in sections.items()}
    doc["data"] = {"series": os.path.join(ctx.workdir, "series.stgt"),
                   "edges": os.path.join(ctx.workdir, "edges.csv"),
                   "l_d": shape.l_d, "kappa": 1.0, "sigma": 1.0}
    doc["train"]["seeds"] = [ctx.seed]
    run = cli.resolve_config(doc)
    loaded = data.load_series(run.data["series"], l_d=run.data["l_d"])
    edges = graph.read_edge_list(run.data["edges"])
    g = graph.GraphSpec(n_nodes=loaded.n_nodes, edges=edges,
                        kappa=run.data["kappa"], sigma=run.data["sigma"])
    a_pre = graph.row_normalize(graph.build_predefined(g)).matrix.data
    splits = data.prepare_dataset(loaded, run.dataset)
    return Inputs(doc, run, splits, a_pre, time.perf_counter() - t0)


def _describe(out: Outcome, inputs: Inputs, shape: Shape) -> None:
    """Record the stride-1 sample copies and the per-batch tensor sizes."""
    splits, cfg = inputs.splits, inputs.run.model
    out.sample_bytes = sum(s.r.nbytes + s.d.nbytes + s.w.nbytes + s.y.nbytes
                           for part in (splits.train, splits.val, splits.test)
                           for s in part)
    # The widest per-op activation is the DGC input [x, h]: B x N x 2 d_h.
    out.working_set = {
        "nodes": shape.nodes,
        "batch_hidden_mib": BATCH * shape.nodes * cfg.d_h * 8 / 2**20,
        "batch_dgc_input_mib": BATCH * shape.nodes * 2 * cfg.d_h * 8 / 2**20,
    }


def _timed_steps(ctx: Ctx, steady_s: float, cap: int) -> int:
    return max(3, min(cap, round(ctx.seconds / steady_s)))


def _budget_spent(start: float, last: float, seconds: float) -> bool:
    """True when one more repetition would end nearer after than before `seconds`."""
    return time.perf_counter() - start + last / 2 >= seconds


def _new_steps(tracer, k0: int, kind: str) -> list:
    return [s for s in tracer.steps[k0:] if s.kind == kind]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------

def check_loss(loss: float) -> Optional[str]:
    return None if math.isfinite(loss) else f"non-finite loss {loss}"


def check_eval_batch(pred: np.ndarray, target: np.ndarray, y_expected: np.ndarray,
                     normalizer, shape: tuple) -> Optional[str]:
    """Finite predictions of the right shape, and the MAE agrees with metrics()."""
    if pred.shape != shape:
        return f"prediction shape {list(pred.shape)} != {list(shape)}"
    if not np.all(np.isfinite(pred)):
        return "non-finite prediction"
    if not np.array_equal(target, y_expected):
        return "targets differ from the samples' y"
    reported = training.metrics(pred, target, normalizer).mae
    direct = float(np.mean(np.abs(normalizer.inverse(pred) - normalizer.inverse(target))))
    if not abs(reported - direct) <= 1e-9 * max(1.0, abs(direct)):
        return f"metrics() MAE {reported!r} != recomputed {direct!r}"
    return None


def check_fit(val_maes: List[float]) -> Optional[str]:
    if len(val_maes) < 2 or not val_maes[-1] < val_maes[0]:
        return f"final validation MAE did not improve on epoch 1: {val_maes}"
    return None


def check_grid(exit_code: int, table_text: Optional[str]) -> Dict[str, Optional[str]]:
    """Per order label: None when its row is present with status ok."""
    rows = {}
    for line in (table_text or "").splitlines()[1:]:
        parts = line.split(",")
        if len(parts) >= 2:
            rows[parts[0]] = parts[1]
    result = {}
    for label in ORDER_LABELS:
        if exit_code != 0:
            result[label] = f"experiment exited {exit_code}"
        elif rows.get(label) != "ok":
            result[label] = f"table.csv row {label!r} is {rows.get(label)!r}"
        else:
            result[label] = None
    return result


# ---------------------------------------------------------------------------
# train_n32 and fit_small: training.train_single
# ---------------------------------------------------------------------------

N32 = Shape(nodes=32, days=16, l_d=25, noise=0.1)
# 202 samples: 192 train, so every timed step is a full batch of 16, and
# 5 each for validation and test, which train_single evaluates after the
# timed steps and after every set-up.
N32_CONFIG = {
    "dataset": {"P": 12, "Q": 12, "S": 3,
                "split": _split(N32, 12, 12, n_train=192, n_val=5)},
    "model": {},
    "train": {"max_epochs": 100, "patience": 100},
}

# The frozen directional-ablation configuration of tests/test_acceptance.py,
# trained for a fixed number of epochs.
SMALL = Shape(nodes=8, days=12, l_d=24, noise=1.0)
SMALL_EPOCHS = 8
SMALL_CONFIG = {
    "dataset": {"P": 4, "Q": 6, "S": 3},
    "model": {"d_h": 12, "d_e": 2, "n_head": 2, "K": 2},
    "train": {"learning_rate": 0.003, "batch_size": BATCH,
              "max_epochs": SMALL_EPOCHS, "patience": SMALL_EPOCHS},
}


def _train_rep(ctx: Ctx, out: Outcome, inputs: Inputs, max_steps: Optional[int],
               splits=None):
    """One train_single call.

    Returns (SeedRun or None, its train steps, reasons the call failed) and
    records the set-up time: inputs, then train_single up to the end of its
    first (cold) step.
    """
    tracer = ctx.tracer
    k0, l0 = len(tracer.steps), len(tracer.losses)
    t_call = time.perf_counter()
    reasons = []
    try:
        run = training.train_single(inputs.run.model,
                                    inputs.splits if splits is None else splits,
                                    inputs.a_pre, inputs.run.train, seed=ctx.seed,
                                    max_steps=max_steps)
    except training.DivergenceError as exc:
        reasons.append(f"train_single diverged: {exc}")
        run = None
    steps = _new_steps(tracer, k0, "train")
    if steps:
        out.setup_s.append(inputs.seconds + steps[0].end - t_call)
    reasons += [r for r in map(check_loss, tracer.losses[l0:]) if r]
    return run, steps, reasons


def run_train_n32(ctx: Ctx) -> Outcome:
    out = Outcome(kind="train")
    steady = None
    for rep in range(ctx.reps):
        timed = rep == ctx.reps - 1
        inputs = make_inputs(ctx, N32, N32_CONFIG)
        if timed:
            max_steps = 1 + _timed_steps(ctx, steady, cap=40)
            ctx.tracer.phase = "timed"
        else:
            max_steps = 2 if rep == 0 else 1
        _, steps, reasons = _train_rep(ctx, out, inputs, max_steps)
        if timed:
            # one operation per timed step; the first step is set-up
            out.attempted = max(len(steps) - 1, 1)
            out.failed = min(len(reasons), out.attempted)
            out.failures += reasons
        if rep == 0:
            steady = steps[-1].end - steps[-1].start
        _describe(out, inputs, N32)
        del inputs
    return out


def run_fit_small(ctx: Ctx) -> Outcome:
    out = Outcome(kind="train")
    for _ in range(ctx.reps - 1):
        inputs = make_inputs(ctx, SMALL, SMALL_CONFIG)
        _train_rep(ctx, out, inputs, max_steps=1)
    ctx.tracer.phase = "timed"
    start = time.perf_counter()
    while True:
        inputs = make_inputs(ctx, SMALL, SMALL_CONFIG)
        t0 = time.perf_counter()
        run, _, reasons = _train_rep(ctx, out, inputs, max_steps=None)
        fit = time.perf_counter() - t0
        out.fit_s.append(fit)
        _describe(out, inputs, SMALL)
        out.attempted += 1  # one operation per fit
        if run is not None and not reasons:
            out.rates.append(run.epochs_run * len(inputs.splits.train) / fit)
            out.test_mae.append(run.test_report.mae)
            reasons = list(filter(None, [check_fit([h.val_mae for h in run.history])]))
        if reasons:
            out.fail("; ".join(reasons))
        if _budget_spent(start, fit, ctx.seconds):
            break
    return out


# ---------------------------------------------------------------------------
# eval_n207: training.predict, forward only
# ---------------------------------------------------------------------------

N207 = Shape(nodes=207, days=14, l_d=24, noise=0.1)
# 145 samples: 128 test = 8 full batches, enough for the warm-up and 7
# timed ones.
N207_CONFIG = {
    "dataset": {"P": 12, "Q": 12, "S": 3,
                "split": _split(N207, 12, 12, n_train=16, n_val=1)},
    "model": {},
    "train": {},
}


def run_eval_n207(ctx: Ctx) -> Outcome:
    out = Outcome(kind="eval")
    tracer = ctx.tracer
    steady = None
    for rep in range(ctx.reps):
        timed = rep == ctx.reps - 1
        inputs = make_inputs(ctx, N207, N207_CONFIG)
        test = inputs.splits.test
        if timed:
            n_batches = 1 + _timed_steps(ctx, steady, cap=len(test) // BATCH - 1)
            tracer.phase = "timed"
        else:
            n_batches = 1
        samples = test[: BATCH * n_batches]
        k0 = len(tracer.steps)
        t_call = time.perf_counter()
        state = training.init_model(inputs.run.model, N207.nodes, 1, seed=ctx.seed)
        pred, target = training.predict(state, samples, inputs.a_pre, BATCH)
        steps = _new_steps(tracer, k0, "eval")
        out.setup_s.append(inputs.seconds + steps[0].end - t_call)
        if rep == 0:
            # a cold eval batch costs about what a steady one does
            steady = steps[0].end - steps[0].start
        if timed:
            shape = (BATCH, inputs.run.model.Q, N207.nodes, 1)
            for b in range(1, n_batches):
                sl = slice(BATCH * b, BATCH * (b + 1))
                y = np.stack([s.y for s in samples[sl]])
                out.attempted += 1
                reason = check_eval_batch(pred[sl], target[sl], y,
                                          inputs.splits.normalizer, shape)
                if reason:
                    out.fail(f"batch {b}: {reason}")
            if tracer.traced:
                tracer.phase = "probe"
                _one_sample_step(ctx, out, inputs)
        _describe(out, inputs, N207)
        del inputs, state, pred, target
    return out


def _one_sample_step(ctx: Ctx, out: Outcome, inputs: Inputs) -> None:
    """train_single for one step on one sample: the tape, backward and
    optimizer figures of a traced eval_n207 run.

    predict puts nothing on a tape. Record counts do not depend on batch or
    node count; one sample keeps the tape at N=207 near 0.5 GiB.
    """
    test = inputs.splits.test
    one = data.DatasetSplits(train=test[:1], val=test[1:2], test=test[2:3],
                             normalizer=inputs.splits.normalizer,
                             spec=inputs.splits.spec)
    _, _, reasons = _train_rep(ctx, Outcome(kind="train"), inputs, max_steps=1,
                               splits=one)
    out.failed += len(reasons)
    out.failures += reasons


# ---------------------------------------------------------------------------
# grid_jobs2: cli.main experiment order --jobs 2
# ---------------------------------------------------------------------------

def run_grid_jobs2(ctx: Ctx) -> Outcome:
    out = Outcome(kind="train")
    for _ in range(ctx.reps - 1):
        out.setup_s.append(make_inputs(ctx, SMALL, SMALL_CONFIG).seconds)
    ctx.tracer.phase = "timed"
    start = time.perf_counter()
    while True:
        inputs = make_inputs(ctx, SMALL, SMALL_CONFIG)
        out.setup_s.append(inputs.seconds)
        _describe(out, inputs, SMALL)
        cfg_path = os.path.join(ctx.workdir, "grid.json")
        with open(cfg_path, "w", encoding="ascii") as fh:
            json.dump(inputs.doc, fh)
        out_dir = os.path.join(ctx.workdir, "grid")
        argv = ["experiment", "order", "--config", cfg_path, "--seeds", str(ctx.seed),
                "--out-dir", out_dir, "--jobs", "2"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        table_path = os.path.join(out_dir, "table.csv")
        table = None
        if os.path.isfile(table_path):
            with open(table_path, "r", encoding="ascii") as fh:
                table = fh.read()
            out.test_mae.append(_table_mae(table))
        for reason in check_grid(code, table).values():
            out.attempted += 1
            if reason:
                out.fail(reason)
        out.grid_s.append(wall)
        out.cells += len(ORDER_LABELS)
        out.rates.append(len(ORDER_LABELS) * SMALL_EPOCHS * len(inputs.splits.train) / wall)
        shutil.rmtree(out_dir, ignore_errors=True)
        if _budget_spent(start, wall, ctx.seconds):
            break
    return out


def _table_mae(table: str) -> float:
    maes = [float(line.split(",")[2]) for line in table.splitlines()[1:]
            if line.split(",")[1] == "ok"]
    return float(np.mean(maes)) if maes else float("nan")


WORKLOADS: Dict[str, Callable[[Ctx], Outcome]] = {
    "train_n32": run_train_n32,
    "eval_n207": run_eval_n207,
    "fit_small": run_fit_small,
    "grid_jobs2": run_grid_jobs2,
}
# Set-ups per run: a cold step costs seconds on the two large workloads.
REPS = {"train_n32": 3, "eval_n207": 3, "fit_small": 5, "grid_jobs2": 5}
