"""Training loop, metrics, and the comparison-grid runners.

MAE loss, Adam with bias correction, global-norm gradient clipping, early
stopping on validation MAE with best-checkpoint restore. `evaluate` scores
validation, test and `eval` alike: per-step errors in original units, summed
one predicted batch at a time; MAPE is masked where the target magnitude is
tiny. Multi-seed runs aggregate to mean and standard deviation per metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from trafficast import tensor as tc
from trafficast.data import DataError, DatasetSplits, Normalizer, TrainingSample
from trafficast.model import ORDERS, ModelConfig, ModelState, forward, init_model
from trafficast.tensor import Tape, Tensor, backward


class TrainError(ValueError):
    """Invalid training configuration or empty split."""


class DivergenceError(RuntimeError):
    """Non-finite loss or gradient norm; carries the epoch and batch index."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 15
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    grad_clip: Optional[float] = 5.0

    def __post_init__(self):
        if self.patience < 1:
            raise TrainError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise TrainError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not self.seeds:
            raise TrainError("seeds must be nonempty")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise TrainError(f"seeds must be >= 0, got {negative}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise TrainError(f"seeds must be distinct, got repeats of {repeated}")
        # a negative bound would flip every gradient, zero would erase it
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise TrainError(
                f"grad_clip must be positive (null disables clipping), got {self.grad_clip}"
            )


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------

def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise TrainError(
            f"mae_loss shapes differ: {list(pred.shape)} vs {list(target.shape)}"
        )
    return tc.reduce_mean(tc.absolute(tc.sub(pred, target)))


@dataclass
class MetricReport:
    """MAE/MAPE/RMSE in original units, aggregate and per forecast step.

    `horizon_steps` are the 1-indexed steps at quarter fractions of the
    horizon (3/6/9/12 when Q=12), deduplicated for short horizons.
    """

    mae: float
    mape: float
    rmse: float
    per_step_mae: np.ndarray
    per_step_mape: np.ndarray
    per_step_rmse: np.ndarray
    horizon_steps: List[int]

    def horizon_rows(self):
        for step in self.horizon_steps:
            i = step - 1
            yield step, self.per_step_mae[i], self.per_step_mape[i], self.per_step_rmse[i]


MAPE_FLOOR = 1e-3


def horizon_steps_for(q: int) -> List[int]:
    return sorted({max(1, round(q * k / 4)) for k in range(1, 5)})


def _step_sums(pred: np.ndarray, target: np.ndarray, normalizer: Normalizer) -> np.ndarray:
    """Per-step sums, in original units, over normalized [B, Q, N, C] arrays:
    |err|, err², |err|/|target| and the count over targets above MAPE_FLOOR,
    and the element count. Rows of a [5, Q] array; batches' sums add."""
    if pred.shape != target.shape:
        raise TrainError(f"metric shapes differ: {pred.shape} vs {target.shape}")
    axes = (0, 2, 3)
    y = normalizer.inverse(target)
    err = normalizer.inverse(pred) - y
    sq = np.square(err).sum(axes)
    abs_err = np.abs(err, out=err)
    abs_y = np.abs(y, out=y)
    kept = abs_y > MAPE_FLOOR
    ape = np.divide(abs_err, abs_y, out=np.zeros_like(abs_y), where=kept).sum(axes)
    count = np.full(pred.shape[1], pred.size // pred.shape[1])
    return np.stack([abs_err.sum(axes), sq, ape, kept.sum(axes), count])


def _report(sums: np.ndarray) -> MetricReport:
    """The report from `_step_sums` rows; MAPE is 0 where no target is kept."""
    abs_sum, sq_sum, ape_sum, kept, count = sums
    return MetricReport(
        mae=float(abs_sum.sum() / count.sum()),
        mape=float(ape_sum.sum() / max(kept.sum(), 1.0) * 100.0),
        rmse=float(np.sqrt(sq_sum.sum() / count.sum())),
        per_step_mae=abs_sum / count,
        per_step_mape=ape_sum / np.maximum(kept, 1.0) * 100.0,
        per_step_rmse=np.sqrt(sq_sum / count),
        horizon_steps=horizon_steps_for(len(count)),
    )


def metrics(pred: np.ndarray, target: np.ndarray, normalizer: Normalizer) -> MetricReport:
    """The report on normalized-scale arrays shaped [B, Q, N, C]; MAPE skips
    targets whose magnitude, in original units, is at most MAPE_FLOOR.
    `evaluate` gives a split's report, within rounding, one batch at a time."""
    return _report(_step_sums(pred, target, normalizer))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def grad_norm(params: Dict[str, Tensor]) -> float:
    """Global L2 norm over every gradient present."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float(np.sum(t.grad**2))
    return float(np.sqrt(total))


def clip_gradients(params: Dict[str, Tensor], max_norm: Optional[float]) -> float:
    """Scale all gradients so their global norm is at most max_norm.

    Returns the norm before scaling; a non-finite norm, or max_norm None
    (no clipping), leaves the gradients as they are.
    """
    norm = grad_norm(params)
    if max_norm is not None and np.isfinite(norm) and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad *= scale
    return norm


def adam_step(opt: AdamState, params: Dict[str, Tensor], cfg: TrainConfig) -> None:
    """One bias-corrected Adam update in place; skips gradient-free tensors."""
    opt.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p.data)
            opt.v[name] = np.zeros_like(p.data)
        opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1 - b2) * g * g
        m_hat = opt.m[name] / (1 - b1**opt.t)
        v_hat = opt.v[name] / (1 - b2**opt.t)
        p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# batching and evaluation
# ---------------------------------------------------------------------------

def stack_batch(samples: Sequence[TrainingSample]):
    """The batch's (r, d, w, y), each with a leading batch axis in sample
    order, as one gather per window from the series the samples share."""
    windows = samples[0].windows
    if any(s.windows is not windows for s in samples):
        raise DataError("batch mixes samples of different build_samples calls; "
                        "a batch is gathered from one series")
    t0s = np.fromiter((s.t0 for s in samples), dtype=np.intp, count=len(samples))
    return tuple(windows.gather(window, t0s) for window in "rdwy")


def predict(
    state: ModelState,
    samples: Sequence[TrainingSample],
    a_pre: Optional[np.ndarray],
    batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward the samples in fixed-order batches; returns (pred, target)."""
    preds, targets = [], []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        r, d, w, y = stack_batch(chunk)
        preds.append(forward(state, r, d, w, a_pre=a_pre).predictions.data)
        targets.append(y)
    return np.concatenate(preds), np.concatenate(targets)


def evaluate(
    state: ModelState,
    samples: Sequence[TrainingSample],
    a_pre: Optional[np.ndarray],
    normalizer: Normalizer,
    cfg: TrainConfig,
) -> MetricReport:
    """`metrics` over the samples, summed one `predict` batch at a time, so
    that only one batch's arrays are alive at once."""
    bs = cfg.batch_size
    sums = sum(_step_sums(*predict(state, samples[start : start + bs], a_pre, bs), normalizer)
               for start in range(0, len(samples), bs))
    return _report(sums)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_mae: float
    val_mae: float
    seconds: float


@dataclass
class SeedRun:
    seed: int
    state: ModelState
    best_val_mae: float
    test_report: MetricReport
    history: List[EpochRecord]
    epochs_run: int
    steps_run: int


def train_single(
    model_cfg: ModelConfig,
    splits: DatasetSplits,
    a_pre: Optional[np.ndarray],
    cfg: TrainConfig,
    seed: int,
    val_metric_fn: Optional[Callable[[ModelState, int], float]] = None,
    max_steps: Optional[int] = None,
) -> SeedRun:
    """One seeded run: minibatch epochs, early stopping, best-state restore.

    `val_metric_fn` overrides the validation measurement (testing hook);
    `max_steps` caps total optimizer steps regardless of epochs.
    """
    if not splits.train or not splits.val or not splits.test:
        raise TrainError(
            f"all splits must be nonempty, got "
            f"{len(splits.train)}/{len(splits.val)}/{len(splits.test)}"
        )
    sample = splits.train[0]
    n, c = sample.r.shape[1], sample.r.shape[2]
    state = init_model(model_cfg, n, c, seed=seed)
    opt = AdamState()
    shuffle_rng = np.random.default_rng([seed, 1])

    best_val = np.inf
    best_params: Dict[str, np.ndarray] = {}
    stale = 0
    history: List[EpochRecord] = []
    steps = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t_start = time.perf_counter()
        order = shuffle_rng.permutation(len(splits.train))
        epoch_losses = []
        for b_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = [splits.train[i] for i in order[start : start + cfg.batch_size]]
            r, d, w, y = stack_batch(chunk)
            with Tape() as tape:
                trace = forward(state, r, d, w, a_pre=a_pre)
                loss = mae_loss(trace.predictions, Tensor(y))
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise DivergenceError(
                        f"non-finite loss {loss_val} at epoch {epoch} batch {b_idx}",
                        epoch=epoch, batch=b_idx,
                    )
                backward(loss, tape)
            norm = clip_gradients(state.params, cfg.grad_clip)
            if not np.isfinite(norm):
                raise DivergenceError(
                    f"non-finite gradient norm {norm} at epoch {epoch} batch {b_idx}",
                    epoch=epoch, batch=b_idx,
                )
            adam_step(opt, state.params, cfg)
            for t in state.params.values():
                t.zero_grad()
            epoch_losses.append(loss_val)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break

        if val_metric_fn is not None:
            val_mae = float(val_metric_fn(state, epoch))
        else:
            val_mae = evaluate(state, splits.val, a_pre, splits.normalizer, cfg).mae
        history.append(EpochRecord(
            epoch=epoch,
            train_mae=float(np.mean(epoch_losses)),
            val_mae=val_mae,
            seconds=time.perf_counter() - t_start,
        ))
        if val_mae < best_val:
            best_val = val_mae
            best_params = {k: t.data.copy() for k, t in state.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
        if max_steps is not None and steps >= max_steps:
            break

    if best_params:
        for k, t in state.params.items():
            t.data[...] = best_params[k]
    test_report = evaluate(state, splits.test, a_pre, splits.normalizer, cfg)
    return SeedRun(
        seed=seed, state=state, best_val_mae=float(best_val),
        test_report=test_report, history=history,
        epochs_run=len(history), steps_run=steps,
    )


@dataclass
class TrainSummary:
    runs: List[SeedRun]
    mae_mean: float
    mae_std: float
    mape_mean: float
    mape_std: float
    rmse_mean: float
    rmse_std: float

    @property
    def per_seed_mae(self) -> List[float]:
        return [r.test_report.mae for r in self.runs]


def summarize(runs: List[SeedRun]) -> TrainSummary:
    maes = np.array([r.test_report.mae for r in runs])
    mapes = np.array([r.test_report.mape for r in runs])
    rmses = np.array([r.test_report.rmse for r in runs])
    return TrainSummary(
        runs=runs,
        mae_mean=float(maes.mean()), mae_std=float(maes.std()),
        mape_mean=float(mapes.mean()), mape_std=float(mapes.std()),
        rmse_mean=float(rmses.mean()), rmse_std=float(rmses.std()),
    )


def train(
    model_cfg: ModelConfig,
    splits: DatasetSplits,
    a_pre: Optional[np.ndarray],
    cfg: TrainConfig,
    **single_kw,
) -> TrainSummary:
    """Run every seed in cfg.seeds, in order, and aggregate the test metrics."""
    return summarize([train_single(model_cfg, splits, a_pre, cfg, seed, **single_kw)
                      for seed in cfg.seeds])


# ---------------------------------------------------------------------------
# experiment grids
# ---------------------------------------------------------------------------

# The model's component switches, and each ablation variant's label with
# the switches it turns on; every other switch is off in that variant.
SWITCHES = ("no_pre", "no_adp", "no_window", "no_period")
ABLATION_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "full": (),
    "no_pre": ("no_pre",),
    "no_adp": ("no_adp",),
    "no_pre_adp": ("no_pre", "no_adp"),
    "no_window": ("no_window",),
    "no_period": ("no_period",),
}


def variant_switches(label: str) -> Dict[str, bool]:
    """Every switch as the ablation variant `label` sets it."""
    return {key: key in ABLATION_VARIANTS[label] for key in SWITCHES}


def variant_of(cfg: ModelConfig) -> str:
    """The label of the variant whose switches `cfg` has, else "custom"."""
    state = {key: getattr(cfg, key) for key in SWITCHES}
    return next((label for label in ABLATION_VARIANTS if variant_switches(label) == state),
                "custom")


MULTIHEAD_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class GridRow:
    label: str
    summary: Optional[TrainSummary]
    error: Optional[str] = None


def run_experiment(
    kind: str,
    model_cfg: ModelConfig,
    splits: DatasetSplits,
    a_pre: Optional[np.ndarray],
    cfg: TrainConfig,
    **single_kw,
) -> List[GridRow]:
    """Train one cell per grid entry on the same data and seed list.

    Cells run one after another in grid order, which is the row order. A
    failing cell records its error and the grid continues.
    """
    if kind == "ablation":
        cells = [(label, replace(model_cfg, **variant_switches(label)))
                 for label in ABLATION_VARIANTS]
    elif kind == "multihead":
        cells = [(f"{h}H", replace(model_cfg, n_head=h)) for h in MULTIHEAD_COUNTS]
    elif kind == "order":
        cells = [(order, replace(model_cfg, order=order)) for order in ORDERS]
    else:
        raise TrainError(f"unknown experiment kind {kind!r}")

    rows = []
    for label, cell_cfg in cells:
        try:
            rows.append(GridRow(label=label,
                                summary=train(cell_cfg, splits, a_pre, cfg, **single_kw)))
        except Exception as exc:  # noqa: BLE001 - cell failures must not kill the grid
            rows.append(GridRow(label=label, summary=None, error=str(exc)))
    return rows


# ---------------------------------------------------------------------------
# text artifacts
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_history(path, history: List[EpochRecord]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,train_mae,val_mae,seconds\n")
        for rec in history:
            fh.write(
                f"{rec.epoch},{_fmt(rec.train_mae)},{_fmt(rec.val_mae)},"
                f"{rec.seconds:.3f}\n"
            )


def write_metrics(path, report: MetricReport) -> None:
    """Key-value metric document; reread-safe 17-digit values, no timings."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"mae={_fmt(report.mae)}\n")
        fh.write(f"mape={_fmt(report.mape)}\n")
        fh.write(f"rmse={_fmt(report.rmse)}\n")
        fh.write("horizon_steps=" + ",".join(str(s) for s in report.horizon_steps) + "\n")
        for name, arr in (
            ("per_step_mae", report.per_step_mae),
            ("per_step_mape", report.per_step_mape),
            ("per_step_rmse", report.per_step_rmse),
        ):
            fh.write(name + "=" + ",".join(_fmt(v) for v in arr) + "\n")


def write_comparison_table(path, rows: List[GridRow]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "label,status,mae_mean,mae_std,mape_mean,mape_std,"
            "rmse_mean,rmse_std,per_seed_mae\n"
        )
        for row in rows:
            if row.summary is None:
                fh.write(f"{row.label},error:{_csv_safe(row.error)},,,,,,,\n")
                continue
            s = row.summary
            per_seed = ";".join(_fmt(m) for m in s.per_seed_mae)
            fh.write(
                f"{row.label},ok,{_fmt(s.mae_mean)},{_fmt(s.mae_std)},"
                f"{_fmt(s.mape_mean)},{_fmt(s.mape_std)},"
                f"{_fmt(s.rmse_mean)},{_fmt(s.rmse_std)},{per_seed}\n"
            )


def _csv_safe(text: Optional[str]) -> str:
    if text is None:
        return ""
    return text.replace(",", ";").replace("\n", " ")
