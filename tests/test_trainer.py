"""Trainer tests: loss, metrics, Adam, early stopping, grids, artifacts."""

import math
import tracemalloc

import numpy as np
import pytest

from trafficast import tensor as tc
from trafficast import training
from trafficast.data import DatasetSpec, Normalizer, prepare_dataset, synth_generate
from trafficast.graph import build_predefined, row_normalize
from trafficast.model import ModelConfig, init_model
from trafficast.tensor import Tensor, finite_diff_check
from trafficast.training import (
    AdamState,
    DivergenceError,
    GridRow,
    MetricReport,
    TrainConfig,
    TrainError,
    adam_step,
    clip_gradients,
    horizon_steps_for,
    mae_loss,
    metrics,
    run_experiment,
    summarize,
    train,
    train_single,
    write_comparison_table,
    write_history,
    write_metrics,
)

IDENTITY_NORM = Normalizer(mean=np.zeros(1), std=np.ones(1))


def _tiny_setup(seed=0, **cfg_kw):
    series, graph = synth_generate(
        n_nodes=4, days=16, l_d=12, shift_max=1, noise=0.3, seed=seed
    )
    spec = DatasetSpec(P=3, Q=2, S=1)
    splits = prepare_dataset(series, spec)
    a_pre = row_normalize(build_predefined(graph)).matrix.data
    base = dict(
        d_h=6, d_e=2, n_head=2, K=1, P=3, Q=2, S=1,
    )
    base.update(cfg_kw)
    return ModelConfig(**base), splits, a_pre


# --- loss ----------------------------------------------------------------------

def test_mae_zero_when_equal():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert mae_loss(x, Tensor(x.data.copy())).item() == 0.0


def test_mae_hand_example():
    pred = Tensor(np.array([0.0, 2.0]))
    target = Tensor(np.array([1.0, 0.0]))
    assert mae_loss(pred, target).item() == pytest.approx(1.5)


def test_mae_shape_mismatch():
    with pytest.raises(TrainError, match="shapes differ"):
        mae_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_mae_gradient_matches_sign_over_count():
    rng = np.random.default_rng(0)
    target = Tensor(rng.standard_normal((3, 4)))
    pred = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
    rep = finite_diff_check(lambda p: mae_loss(p, target), pred, tol=1e-6)
    assert rep.passed, rep.max_rel_error
    np.testing.assert_allclose(
        rep.analytic, np.sign(pred.data - target.data) / pred.size, atol=1e-15
    )


# --- metrics -------------------------------------------------------------------

def test_metrics_zero_when_equal():
    x = np.random.default_rng(1).standard_normal((4, 3, 2, 1))
    rep = metrics(x, x.copy(), IDENTITY_NORM)
    assert rep.mae == 0.0 and rep.rmse == 0.0 and rep.mape == 0.0


def test_metrics_hand_example():
    # errors {3, -4}: MAE 3.5, RMSE sqrt(25/2)
    target = np.zeros((2, 1, 1, 1))
    target[0] = 10.0
    target[1] = 10.0
    pred = target.copy()
    pred[0] += 3.0
    pred[1] -= 4.0
    rep = metrics(pred, target, IDENTITY_NORM)
    assert rep.mae == pytest.approx(3.5)
    assert rep.rmse == pytest.approx(3.5355339059327378, abs=1e-15)


def test_metrics_masked_mape():
    # target 0 is skipped; only the 100 -> 110 pair counts: 10%. Step 2's
    # targets are all skipped: its MAPE is 0 and the overall MAPE ignores it
    target = np.array([[0.0, 0.0], [100.0, 0.0]]).reshape(2, 2, 1, 1)
    pred = np.array([[5.0, 1.0], [110.0, 2.0]]).reshape(2, 2, 1, 1)
    rep = metrics(pred, target, IDENTITY_NORM)
    assert rep.mape == pytest.approx(10.0)
    assert rep.per_step_mape[0] == pytest.approx(10.0)
    assert rep.per_step_mape[1] == 0.0


def test_metrics_all_targets_masked():
    target = np.zeros((2, 1, 1, 1))
    pred = np.ones((2, 1, 1, 1))
    assert metrics(pred, target, IDENTITY_NORM).mape == 0.0


def test_metrics_rmse_at_least_mae_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.standard_normal((5, 4, 3, 1))
        target = rng.standard_normal((5, 4, 3, 1))
        rep = metrics(pred, target, IDENTITY_NORM)
        assert rep.rmse >= rep.mae - 1e-12
        assert np.all(rep.per_step_rmse >= rep.per_step_mae - 1e-12)


def test_metrics_respect_normalizer_units():
    norm = Normalizer(mean=np.array([100.0]), std=np.array([4.0]))
    target = np.zeros((1, 1, 1, 1))
    pred = np.ones((1, 1, 1, 1))  # 1 normalized unit = 4 original units
    rep = metrics(pred, target, norm)
    assert rep.mae == pytest.approx(4.0)
    assert rep.mape == pytest.approx(4.0)  # 4 / 100


def test_metrics_pure():
    rng = np.random.default_rng(3)
    pred = rng.standard_normal((4, 3, 2, 1))
    target = rng.standard_normal((4, 3, 2, 1))
    a = metrics(pred, target, IDENTITY_NORM)
    b = metrics(pred, target, IDENTITY_NORM)
    assert a.mae == b.mae and a.mape == b.mape and a.rmse == b.rmse
    np.testing.assert_array_equal(a.per_step_mae, b.per_step_mae)


def _many_batch_split():
    # 107 validation samples in 7 batches of a 2-wide model, so that the
    # split-sized arrays outweigh one batch's forward
    series, graph = synth_generate(n_nodes=4, days=30, l_d=24, shift_max=1, noise=0.3, seed=0)
    splits = prepare_dataset(series, DatasetSpec(P=3, Q=12, S=1))
    a_pre = row_normalize(build_predefined(graph)).matrix.data
    model_cfg = ModelConfig(d_h=2, d_e=2, n_head=1, K=1, P=3, Q=12, S=1)
    return init_model(model_cfg, 4, 1, seed=0), splits, a_pre, TrainConfig(batch_size=16)


def _reference_report(pred, target, normalizer):
    # the whole-split, step-by-step formulas, as a reference for the sums
    truth = normalizer.inverse(target)
    err = normalizer.inverse(pred) - truth

    def mape(e, y):
        mask = np.abs(y) > training.MAPE_FLOOR
        return np.mean(np.abs(e[mask]) / np.abs(y[mask])) * 100.0 if mask.any() else 0.0

    q = pred.shape[1]
    return dict(
        mae=np.mean(np.abs(err)), mape=mape(err, truth), rmse=np.sqrt(np.mean(err**2)),
        per_step_mae=[np.mean(np.abs(err[:, t])) for t in range(q)],
        per_step_mape=[mape(err[:, t], truth[:, t]) for t in range(q)],
        per_step_rmse=[np.sqrt(np.mean(err[:, t] ** 2)) for t in range(q)],
    )


def _assert_reports_agree(rep, expected):
    for name, value in expected.items():
        np.testing.assert_allclose(getattr(rep, name), value, rtol=1e-12, atol=0,
                                   err_msg=name)


def test_evaluate_sums_batches_like_metrics_on_the_whole_split(monkeypatch):
    # 11 samples in batches of 4, 4 and 3; the targets at step index 2 are
    # all 0 in original units and 3 at index 0 are, so MAPE skips them
    rng = np.random.default_rng(4)
    norm = Normalizer(mean=np.array([50.0]), std=np.array([10.0]))
    pred = rng.standard_normal((11, 4, 3, 1))
    target = rng.standard_normal((11, 4, 3, 1))
    target[:, 2] = -5.0
    target[:3, 0, 0] = -5.0
    monkeypatch.setattr(training, "predict",
                        lambda state, chunk, a_pre, bs: (pred[chunk], target[chunk]))
    rep = training.evaluate(None, list(range(11)), None, norm, TrainConfig(batch_size=4))
    expected = _reference_report(pred, target, norm)
    _assert_reports_agree(rep, expected)
    _assert_reports_agree(metrics(pred, target, norm), expected)
    assert rep.per_step_mape[2] == 0.0
    others = [0, 1, 3]
    np.testing.assert_allclose(
        rep.mape, _reference_report(pred[:, others], target[:, others], norm)["mape"],
        rtol=1e-12)


def test_evaluate_matches_metrics_on_predicts_arrays():
    state, splits, a_pre, cfg = _many_batch_split()
    pred, target = training.predict(state, splits.val, a_pre, cfg.batch_size)
    rep = training.evaluate(state, splits.val, a_pre, splits.normalizer, cfg)
    _assert_reports_agree(rep, vars(metrics(pred, target, splits.normalizer)))


def test_evaluate_peak_does_not_grow_with_the_split():
    # one batch's arrays are alive at a time, so 7 batches peak where 2 do
    state, splits, a_pre, cfg = _many_batch_split()
    # a first call's one-off allocations would inflate the 2-batch peak
    training.evaluate(state, splits.val[:16], a_pre, splits.normalizer, cfg)
    peaks = []
    for n_batches in (2, 7):
        tracemalloc.start()
        try:
            training.evaluate(state, splits.val[: 16 * n_batches], a_pre,
                              splits.normalizer, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    split_array = len(splits.val) * 12 * 4 * 8
    assert peaks[1] - peaks[0] < split_array, (peaks, split_array)


def test_horizon_steps():
    assert horizon_steps_for(12) == [3, 6, 9, 12]
    assert horizon_steps_for(3) == [1, 2, 3]
    assert horizon_steps_for(1) == [1]


# --- optimizer -----------------------------------------------------------------

def test_adam_first_step_hand_value():
    cfg = TrainConfig(seeds=(1,))
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = AdamState()
    adam_step(opt, {"p": p}, cfg)
    # m_hat = v_hat = 1 after bias correction: step = -lr / (1 + eps)
    expected = -0.001 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expected, abs=1e-18)


def test_adam_zero_gradient_no_motion():
    cfg = TrainConfig(seeds=(1,))
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = AdamState()
    for _ in range(5):
        p.grad = np.zeros(2)
        adam_step(opt, {"p": p}, cfg)
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adam_deterministic_across_replicas():
    cfg = TrainConfig(seeds=(1,))
    rng = np.random.default_rng(4)
    grads = [rng.standard_normal(3) for _ in range(100)]

    def run():
        p = Tensor(np.array([0.1, 0.2, 0.3]), requires_grad=True)
        opt = AdamState()
        for g in grads:
            p.grad = g.copy()
            adam_step(opt, {"p": p}, cfg)
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_clip_rescales_to_max_norm():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    norm = clip_gradients({"a": a, "b": b}, max_norm=5.0)
    assert norm == pytest.approx(math.sqrt(9 * 3 + 16 * 4))
    new_norm = math.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2))
    assert new_norm == pytest.approx(5.0)


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([0.3, 0.4])
    clip_gradients({"a": a}, max_norm=5.0)
    np.testing.assert_array_equal(a.grad, [0.3, 0.4])


def test_clip_leaves_nonfinite_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([np.inf, 1.0])
    assert clip_gradients({"a": a}, max_norm=5.0) == np.inf
    np.testing.assert_array_equal(a.grad, [np.inf, 1.0])


def test_clip_without_max_norm_only_measures():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([30.0, 40.0])
    assert clip_gradients({"a": a}, max_norm=None) == 50.0
    np.testing.assert_array_equal(a.grad, [30.0, 40.0])


# --- training loop -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(patience=0)
    with pytest.raises(TrainError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainError):
        TrainConfig(seeds=())


def test_grad_clip_must_be_positive_or_none():
    # a negative bound turns clipping into gradient ascent, zero erases
    # every step; None is the documented way to switch clipping off
    for bad in (-1.0, 0.0, float("nan")):
        with pytest.raises(TrainError, match="grad_clip must be positive"):
            TrainConfig(grad_clip=bad)
    assert TrainConfig(grad_clip=None).grad_clip is None


def test_patience_one_stops_after_two_epochs():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=50, patience=1, batch_size=16, seeds=(1,))
    run = train_single(model_cfg, splits, a_pre, cfg, seed=1,
                       val_metric_fn=lambda state, epoch: 1.0)
    assert run.epochs_run == 2


def test_best_checkpoint_restored():
    model_cfg, splits, a_pre = _tiny_setup()
    scores = {1: 3.0, 2: 1.0, 3: 2.0, 4: 2.5}
    snapshots = {}

    def hook(state, epoch):
        snapshots[epoch] = {k: t.data.copy() for k, t in state.params.items()}
        return scores[epoch]

    cfg = TrainConfig(max_epochs=4, patience=10, batch_size=16, seeds=(1,))
    run = train_single(model_cfg, splits, a_pre, cfg, seed=1, val_metric_fn=hook)
    assert run.best_val_mae == 1.0
    for name, t in run.state.params.items():
        np.testing.assert_array_equal(t.data, snapshots[2][name])


def test_training_reduces_loss():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=6, patience=10, batch_size=16, seeds=(1,),
                      learning_rate=5e-3)
    run = train_single(model_cfg, splits, a_pre, cfg, seed=1)
    assert run.history[-1].train_mae < run.history[0].train_mae


def test_training_bitwise_deterministic():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=3, patience=10, batch_size=16, seeds=(1,))
    r1 = train_single(model_cfg, splits, a_pre, cfg, seed=7)
    r2 = train_single(model_cfg, splits, a_pre, cfg, seed=7)
    for name, t in r1.state.params.items():
        np.testing.assert_array_equal(t.data, r2.state.params[name].data)
    assert [h.val_mae for h in r1.history] == [h.val_mae for h in r2.history]
    assert r1.test_report.mae == r2.test_report.mae


def test_divergence_guard_reports_location():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=3, patience=10, batch_size=16, seeds=(1,),
                      learning_rate=1e200, grad_clip=None)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc_info:
        train_single(model_cfg, splits, a_pre, cfg, seed=1)
    assert exc_info.value.epoch >= 1
    assert exc_info.value.batch >= 0
    assert "epoch" in str(exc_info.value)


def test_nonfinite_gradient_fails_its_own_step(monkeypatch):
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=3, patience=10, batch_size=16, seeds=(1,))
    built = {}
    real_init, real_backward = training.init_model, training.backward

    def init_model(*args, **kwargs):
        state = real_init(*args, **kwargs)
        built["state"] = state
        built["params"] = {k: t.data.copy() for k, t in state.params.items()}
        return state

    def backward(loss, tape):
        real_backward(loss, tape)
        built["state"].params["out.bias"].grad[0] = np.inf

    monkeypatch.setattr(training, "init_model", init_model)
    monkeypatch.setattr(training, "backward", backward)
    with pytest.raises(DivergenceError, match="gradient norm") as exc_info:
        train_single(model_cfg, splits, a_pre, cfg, seed=1)
    assert (exc_info.value.epoch, exc_info.value.batch) == (1, 0)
    for name, t in built["state"].params.items():
        np.testing.assert_array_equal(t.data, built["params"][name])


def test_empty_split_rejected():
    model_cfg, splits, a_pre = _tiny_setup()
    splits.val.clear()
    cfg = TrainConfig(seeds=(1,))
    with pytest.raises(TrainError, match="nonempty"):
        train_single(model_cfg, splits, a_pre, cfg, seed=1)


def test_max_steps_caps_optimizer_updates():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=50, patience=50, batch_size=16, seeds=(1,))
    run = train_single(model_cfg, splits, a_pre, cfg, seed=1, max_steps=5)
    assert run.steps_run == 5


def test_multi_seed_summary():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=2, patience=10, batch_size=16, seeds=(1, 2, 3))
    summary = train(model_cfg, splits, a_pre, cfg)
    assert len(summary.runs) == 3
    assert [r.seed for r in summary.runs] == [1, 2, 3]
    maes = np.array(summary.per_seed_mae)
    assert summary.mae_mean == pytest.approx(maes.mean())
    assert summary.mae_std == pytest.approx(maes.std())


# --- experiment grids ------------------------------------------------------------

def test_ablation_grid_rows():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=1, patience=10, batch_size=32, seeds=(1,))
    rows = run_experiment("ablation", model_cfg, splits, a_pre, cfg, max_steps=2)
    assert [r.label for r in rows] == [
        "full", "no_pre", "no_adp", "no_pre_adp", "no_window", "no_period"
    ]
    assert all(r.error is None for r in rows)


def test_multihead_grid_rows():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=1, patience=10, batch_size=32, seeds=(1,))
    rows = run_experiment("multihead", model_cfg, splits, a_pre, cfg, max_steps=1)
    assert [r.label for r in rows] == ["1H", "2H", "4H", "8H", "16H"]


def test_order_grid_rows():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=1, patience=10, batch_size=32, seeds=(1,))
    rows = run_experiment("order", model_cfg, splits, a_pre, cfg, max_steps=1)
    assert [r.label for r in rows] == ["attention_then_dgc", "dgc_then_attention"]


def test_grid_records_cell_failure_and_continues():
    model_cfg, splits, a_pre = _tiny_setup()
    cfg = TrainConfig(max_epochs=1, patience=10, batch_size=32, seeds=(1,))

    def hook(state, epoch):
        if state.config.no_window:
            raise RuntimeError("forced cell failure")
        return 1.0

    rows = run_experiment("ablation", model_cfg, splits, a_pre, cfg,
                          val_metric_fn=hook, max_steps=1)
    by_label = {r.label: r for r in rows}
    assert by_label["no_window"].error is not None
    assert "forced cell failure" in by_label["no_window"].error
    assert by_label["full"].error is None
    assert len(rows) == 6


def test_unknown_experiment_kind():
    model_cfg, splits, a_pre = _tiny_setup()
    with pytest.raises(TrainError, match="kind"):
        run_experiment("nope", model_cfg, splits, a_pre, TrainConfig(seeds=(1,)))


# --- text artifacts ---------------------------------------------------------------

def _fake_report(q=3):
    rng = np.random.default_rng(5)
    err = np.abs(rng.standard_normal(q)) + 0.5
    return MetricReport(
        mae=float(err.mean()), mape=12.5, rmse=float(err.mean() * 1.2),
        per_step_mae=err, per_step_mape=err * 10, per_step_rmse=err * 1.2,
        horizon_steps=horizon_steps_for(q),
    )


def test_metrics_file_round_trip_and_determinism(tmp_path):
    rep = _fake_report()
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    write_metrics(p1, rep)
    write_metrics(p2, rep)
    assert p1.read_bytes() == p2.read_bytes()
    lines = dict(line.split("=", 1) for line in p1.read_text().splitlines())
    assert float(lines["mae"]) == rep.mae
    assert [float(v) for v in lines["per_step_mae"].split(",")] == list(rep.per_step_mae)
    assert lines["horizon_steps"] == "1,2,3"


def test_history_file_format(tmp_path):
    from trafficast.training import EpochRecord
    hist = [
        EpochRecord(epoch=1, train_mae=0.5, val_mae=0.6, seconds=1.25),
        EpochRecord(epoch=2, train_mae=0.4, val_mae=0.55, seconds=1.5),
    ]
    p = tmp_path / "history.csv"
    write_history(p, hist)
    lines = p.read_text().splitlines()
    assert lines[0] == "epoch,train_mae,val_mae,seconds"
    assert lines[1].startswith("1,0.5")
    assert len(lines) == 3


def test_comparison_table_format(tmp_path):
    runs = []
    rep = _fake_report()

    class _Run:
        def __init__(self, seed):
            self.seed = seed
            self.test_report = rep

    summary = summarize([_Run(1), _Run(2)])
    rows = [
        GridRow(label="full", summary=summary),
        GridRow(label="broken", summary=None, error="a, bad\nthing"),
    ]
    p = tmp_path / "table.csv"
    write_comparison_table(p, rows)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("label,status,mae_mean")
    assert lines[1].startswith("full,ok,")
    assert float(lines[1].split(",")[2]) == summary.mae_mean
    assert lines[2].startswith("broken,error:")
    assert "," not in lines[2].split(",", 2)[1]  # error text is comma-free
