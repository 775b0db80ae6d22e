"""Self-test: every output check must reject a deliberately wrong result.

Two levels. Each check function is fed a right and a wrong output. Then each
workload is run for real with a fault injected into the package (NaN
parameters, NaN predictions, a failing grid cell), and the command's exit
code must be non-zero. Run with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

import workloads
from workloads import check_eval_batch, check_fit, check_grid, check_loss


def _unit_checks(data) -> list:
    problems = []

    def expect(name, good, bad):
        if good is not None:
            problems.append(f"{name}: rejected a right result: {good}")
        if bad is None:
            problems.append(f"{name}: accepted a wrong result")

    expect("loss", check_loss(0.5), check_loss(float("nan")))
    expect("loss", None, check_loss(float("inf")))

    rng = np.random.default_rng(0)
    shape = (workloads.BATCH, 12, 207, 1)
    pred, y = rng.standard_normal(shape), rng.standard_normal(shape)
    norm = data.Normalizer(mean=np.array([50.0]), std=np.array([10.0]))
    nan_pred = pred.copy()
    nan_pred[3, 4, 5, 0] = np.nan
    good = check_eval_batch(pred, y, y, norm, shape)
    expect("eval shape", good, check_eval_batch(pred[:, :6], y[:, :6], y[:, :6], norm, shape))
    expect("eval finite", good, check_eval_batch(nan_pred, y, y, norm, shape))
    expect("eval target", good, check_eval_batch(pred, y + 1.0, y, norm, shape))

    expect("fit", check_fit([9.0, 6.0, 4.0]), check_fit([4.0, 5.0, 4.5]))
    expect("fit", None, check_fit([4.0]))

    header = "label,status,mae_mean\n"
    ok_table = header + "attention_then_dgc,ok,3.1\ndgc_then_attention,ok,3.2\n"
    good = next(filter(None, check_grid(0, ok_table).values()), None)
    for name, code, table in (
        ("grid exit", 3, ok_table),
        ("grid missing row", 0, header + "attention_then_dgc,ok,3.1\n"),
        ("grid error row", 0, header + "attention_then_dgc,ok,3.1\n"
                                       "dgc_then_attention,error:boom,\n"),
        ("grid no table", 0, None),
    ):
        bad = next(filter(None, check_grid(code, table).values()), None)
        expect(name, good, bad)
    return problems


@contextlib.contextmanager
def _patched(mod, name, value):
    original = getattr(mod, name)
    setattr(mod, name, value)
    try:
        yield
    finally:
        setattr(mod, name, original)


def _faults(mods):
    training = mods["training"]
    adam = training.adam_step
    forward = training.forward
    train = training.train

    def nan_adam(opt, params, cfg):
        adam(opt, params, cfg)
        for p in params.values():
            p.data[...] = np.nan

    def nan_forward(*args, **kwargs):
        trace = forward(*args, **kwargs)
        trace.predictions.data[0, 0, 0, 0] = np.nan
        return trace

    def failing_cell(cell_cfg, *args, **kwargs):
        if cell_cfg.order == "dgc_then_attention":
            raise training.TrainError("injected cell failure")
        return train(cell_cfg, *args, **kwargs)

    return {
        "train_n32": (training, "adam_step", nan_adam),
        "fit_small": (training, "adam_step", nan_adam),
        "eval_n207": (training, "forward", nan_forward),
        "grid_jobs2": (training, "train", failing_cell),
    }


def run(mods, measure, report) -> int:
    """Return 0 when every check catches its wrong result, else 1."""
    problems = _unit_checks(mods["data"])
    for name, (mod, attr, fault) in _faults(mods).items():
        with _patched(mod, attr, fault), contextlib.redirect_stdout(io.StringIO()):
            code = report(measure(mods, name, seed=1, seconds=1.0, trace=False))
        if code == 0:
            problems.append(f"{name}: command exited 0 with a fault injected")
        print(f"self-test {name}: injected fault -> exit code {code}")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
