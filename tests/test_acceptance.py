"""Acceptance suite: one test per shipped guarantee.

Each test measures the guarantee it names and records a [PASS]/[FAIL]
line with the observed value and the stated tolerance (echoed in the
terminal summary by conftest). Thresholded training checks (overfit,
directional ablation) run frozen configurations that were tuned once and
then pinned; everything in them is seeded, so reruns are bitwise stable.
"""

import json
import time

import numpy as np
import pytest

from trafficast.cli import _load_inputs, _manifest_base, main, resolve_config
from trafficast.data import DatasetSpec, DatasetSplits, prepare_dataset, synth_generate
from trafficast.gradcheck import model_param_checks, primitive_checks
from trafficast.graph import (
    GraphSpec,
    adaptive_adjacency,
    build_predefined,
    init_embeddings,
    row_normalize,
)
from trafficast.model import ModelConfig, forward, init_model
from trafficast.tensor import finite_diff_check
from trafficast.training import (
    TrainConfig,
    metrics,
    predict,
    run_experiment,
    train_single,
)


def _write_doc(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _tiny_grid_doc(out_dir):
    return {
        "out_dir": str(out_dir),
        "data": {"synth": {"nodes": 4, "days": 16, "l_d": 12,
                           "shift_max": 1, "noise": 0.3, "seed": 0}},
        "dataset": {"P": 3, "Q": 2, "S": 1},
        "model": {"d_h": 6, "d_e": 2, "n_head": 2, "K": 1},
        "train": {"max_epochs": 2, "seeds": [1], "batch_size": 8},
    }


def test_gradient_fidelity(acceptance):
    start = time.time()
    worst_prim = 0.0
    n_prims = 0
    for name, f, x0 in primitive_checks(np.random.default_rng(0)):
        report = finite_diff_check(f, x0, tol=1e-6)
        worst_prim = max(worst_prim, report.max_rel_error)
        n_prims += 1
    # toy network: N=4, C=1, d_h=8, P=Q=3, S=1, K=2, 2 heads
    model_rows = model_param_checks()
    worst_model = max(rel for _, rel in model_rows)
    elapsed = time.time() - start
    ok = (worst_prim <= 1e-6 and worst_model <= 1e-4
          and len(model_rows) >= 20 and elapsed <= 60)
    acceptance(
        "gradient fidelity", ok,
        f"{n_prims} primitives max rel {worst_prim:.3g} (tol 1e-6); "
        f"full model max rel {worst_model:.3g} (tol 1e-4) over "
        f"{len(model_rows)} sampled parameters; {elapsed:.1f}s (limit 60s)",
    )


def test_structural_constants(acceptance):
    # all-defaults config: P=Q=12, S=3, one daily and one weekly block
    res = resolve_config({"data": {"synth": {}}})
    loaded = _load_inputs(res)
    manifest = _manifest_base("train", res, loaded, None, res.train.seeds)
    candidates = manifest["derived"]["attention_candidates"]
    block_len = manifest["derived"]["block_len"]
    w_pre = manifest["config"]["model"]["w_pre"]
    w_adp = manifest["config"]["model"]["w_adp"]
    ok = (candidates == 14 and block_len == 27
          and w_pre == 0.1 and w_adp == 0.9)
    acceptance(
        "structural constants", ok,
        f"resolved manifest: attention candidates {candidates} (want 14), "
        f"context block length {block_len} (want 27), "
        f"fusion weights {w_pre}/{w_adp} (want 0.1/0.9)",
    )


def test_row_normalization_invariants(acceptance):
    rng = np.random.default_rng(7)
    worst_row_err = 0.0
    threshold_violations = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(3, 8))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.uniform(0.1, 3.0))))
        kappa = float(rng.uniform(0.5, 5.0))
        raw = build_predefined(GraphSpec(n, edges, kappa=kappa, sigma=1.0))
        for i, j, dist in edges:
            if dist * dist > kappa and raw.data[i, j] != 0.0:
                threshold_violations += 1
        pre = row_normalize(raw).matrix.data
        worst_row_err = max(worst_row_err, float(np.abs(pre.sum(axis=1) - 1.0).max()))
        emb = init_embeddings(n, 2, 3, rng)
        for head in range(2):
            adp = adaptive_adjacency(emb).matrix.data[head]
            worst_row_err = max(worst_row_err,
                                float(np.abs(adp.sum(axis=1) - 1.0).max()))
    ok = worst_row_err <= 1e-9 and threshold_violations == 0
    acceptance(
        "row normalization invariants", ok,
        f"{trials} randomized graphs: max |row sum - 1| = {worst_row_err:.2e} "
        f"(tol 1e-9) over predefined and per-head adaptive matrices; "
        f"{threshold_violations} nonzero weights beyond the distance threshold (want 0)",
    )


def test_overfit_small_zero_noise_dataset(acceptance):
    # Frozen after tuning: P=6/Q=3/S=1 windows, d_h=12, lr 0.01, batch 10
    # reach ~1% of target std by 800 steps; the budget allows 2000.
    start = time.time()
    series, graph = synth_generate(n_nodes=6, days=10, l_d=48,
                                   shift_max=0, noise=0.0, seed=5)
    spec = DatasetSpec(P=6, Q=3, S=1)
    splits = prepare_dataset(series, spec)
    small = DatasetSplits(train=splits.train[:50], val=splits.val[:4],
                          test=splits.test[:4],
                          normalizer=splits.normalizer, spec=spec)
    assert len(small.train) == 50
    a_pre = row_normalize(build_predefined(graph)).matrix.data
    model_cfg = ModelConfig(d_h=12, d_e=4, n_head=2, K=2, P=6, Q=3, S=1)
    train_cfg = TrainConfig(learning_rate=0.01, batch_size=10,
                            max_epochs=5000, patience=5000, seeds=(1,))
    run = train_single(model_cfg, small, a_pre, train_cfg, seed=1, max_steps=800)
    pred, target = predict(run.state, small.train, a_pre, 10)
    report = metrics(pred, target, small.normalizer)
    y_orig = small.normalizer.inverse(np.stack([s.y for s in small.train]))
    std = float(y_orig.std())
    ratio = report.mae / std
    elapsed = time.time() - start
    ok = ratio < 0.05 and run.steps_run <= 2000 and elapsed <= 600
    acceptance(
        "overfit capacity", ok,
        f"50 zero-noise samples (6 nodes, 48/day): train MAE {report.mae:.4f} "
        f"= {ratio:.2%} of target std {std:.2f} (threshold 5%) after "
        f"{run.steps_run} steps (cap 2000) in {elapsed:.0f}s (limit 600s)",
    )


def test_directional_ablation(acceptance):
    # Frozen after tuning: strong daily sinusoids, per-day phase jitter
    # up to 2 steps (inside the S=3 attention window), noise 1.0.
    start = time.time()
    series, graph = synth_generate(n_nodes=8, days=12, l_d=24,
                                   shift_max=2, noise=1.0, seed=42)
    spec = DatasetSpec(P=4, Q=6, S=3)
    splits = prepare_dataset(series, spec)
    a_pre = row_normalize(build_predefined(graph)).matrix.data
    seeds = (1, 2, 3)
    train_cfg = TrainConfig(learning_rate=0.003, batch_size=16,
                            max_epochs=30, patience=8, seeds=seeds)

    def median_mae(**flags):
        cfg = ModelConfig(d_h=12, d_e=2, n_head=2, K=2, P=4, Q=6, S=3, **flags)
        maes = [train_single(cfg, splits, a_pre, train_cfg, seed=s).test_report.mae
                for s in seeds]
        return float(np.median(maes))

    med_full = median_mae()
    med_no_period = median_mae(no_period=True)
    med_no_window = median_mae(no_window=True)
    elapsed = time.time() - start
    ok = (med_full < med_no_period and med_full < med_no_window
          and elapsed <= 3600)
    acceptance(
        "directional ablation", ok,
        f"median test MAE over seeds {seeds}: full {med_full:.3f} < "
        f"no_period {med_no_period:.3f} is {med_full < med_no_period}, "
        f"full < no_window {med_no_window:.3f} is {med_full < med_no_window} "
        f"(strict ordering required); {elapsed:.0f}s (limit 3600s)",
    )


def test_order_harness(acceptance, tmp_path):
    cfg = _write_doc(tmp_path / "c.json", _tiny_grid_doc(tmp_path / "grid"))
    code = main(["experiment", "order", "--config", cfg])
    table = (tmp_path / "grid" / "table.csv").read_text().splitlines()
    labels = [row.split(",")[0] for row in table[1:]]
    statuses = [row.split(",")[1] for row in table[1:]]
    ok = (code == 0
          and labels == ["attention_then_dgc", "dgc_then_attention"]
          and statuses == ["ok", "ok"])
    acceptance(
        "layer-order harness", ok,
        f"`experiment order` exit {code}; table rows {labels} with statuses "
        f"{statuses} (want both orders, both ok)",
    )


def test_multihead_harness(acceptance, tmp_path):
    cfg = _write_doc(tmp_path / "c.json", _tiny_grid_doc(tmp_path / "grid"))
    code = main(["experiment", "multihead", "--config", cfg])
    table = (tmp_path / "grid" / "table.csv").read_text().splitlines()
    labels = [row.split(",")[0] for row in table[1:]]
    statuses = [row.split(",")[1] for row in table[1:]]
    ok = (code == 0
          and labels == ["1H", "2H", "4H", "8H", "16H"]
          and statuses == ["ok"] * 5)
    acceptance(
        "multi-head harness", ok,
        f"`experiment multihead` exit {code}; table rows {labels} with "
        f"statuses {statuses} (want 1H,2H,4H,8H,16H all ok)",
    )


def test_determinism(acceptance, tmp_path):
    docs = [_write_doc(tmp_path / f"c{i}.json", _tiny_grid_doc(tmp_path / f"run{i}"))
            for i in (1, 2)]
    codes = [main(["train", "--config", doc, "--jobs", "1"]) for doc in docs]
    compared = {}
    for rel in ("seed1/checkpoint.ckpt", "seed1/metrics.txt", "summary.txt"):
        compared[rel] = ((tmp_path / "run1" / rel).read_bytes()
                         == (tmp_path / "run2" / rel).read_bytes())
    ok = codes == [0, 0] and all(compared.values())
    acceptance(
        "determinism", ok,
        f"two identical `train --jobs 1` runs: exits {codes}; byte-identical "
        + ", ".join(f"{k}={v}" for k, v in compared.items()),
    )


def test_node_isolation(acceptance):
    cfg = ModelConfig(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1,
                      no_period=True, no_pre=True, no_adp=True)
    n = 5
    state = init_model(cfg, n, 1, seed=0)
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, cfg.P, n, 1))
    d = rng.standard_normal((2, 1, cfg.block_len, n, 1))
    w = rng.standard_normal((2, 1, cfg.block_len, n, 1))
    base = forward(state, r, d, w).predictions.data
    r_pert = r.copy()
    r_pert[:, :, 2] += rng.standard_normal((2, cfg.P, 1))
    pert = forward(state, r_pert, d, w).predictions.data
    diff = np.abs(pert - base)
    leak = float(np.delete(diff, 2, axis=2).max())
    moved = float(diff[:, :, 2].max())
    ok = leak == 0.0 and moved > 0.0
    acceptance(
        "node isolation", ok,
        f"no_period + identity mixing: perturbing node 2 changes its own "
        f"predictions (max {moved:.3g}) while the max change on other nodes "
        f"is {leak} (must be exactly 0)",
    )
