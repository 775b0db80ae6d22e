"""Finite-difference checks of every tape primitive and of the full model.

`primitive_checks` lists one scalar function per primitive (and per
operand where an op has two), each checked at PRIMITIVE_TOL;
`model_param_checks` spot-checks sampled per-gate parameter blocks of a
toy network at MODEL_TOL. `run_checks` runs both and returns one row per
check, which is what `trafficast gradcheck` prints and writes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from trafficast import tensor as tc
from trafficast.graph import GraphSpec, build_predefined, row_normalize
from trafficast.model import ModelConfig, ModelState, forward, gate_blocks, init_model
from trafficast.tensor import Tape, Tensor, _rel_errors, backward, finite_diff_check

PRIMITIVE_TOL = 1e-6
MODEL_TOL = 1e-4
# the model rows: blocks sampled, coordinates per block, step, seed
MODEL_PARAMS, MODEL_COORDS, MODEL_H, MODEL_SEED = 20, 2, 1e-5, 0


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    # A fixed random weighting makes the scalar sensitive to element order,
    # so permutation bugs in reshape/transpose/concat cannot cancel out.
    return tc.reduce_sum(tc.mul(out, Tensor(weights)))


def primitive_checks(rng: np.random.Generator) -> List[Tuple[str, object, Tensor]]:
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
    w26 = rng.standard_normal((2, 6))
    w43 = rng.standard_normal((4, 3))

    t_other = Tensor(other)
    t_vec = Tensor(vec)
    t_scalar = Tensor(scalar)
    t_b43 = Tensor(b43)
    t_a34 = Tensor(a34)
    concat_mate = Tensor(rng.standard_normal((3, 4)))
    # a GRU step over the identity and two [3, 3] matrices: a [6, 2] input
    # and a [6, 3] state, two batch elements of three nodes, with one
    # [W_z | W_r | W_c] weight per matrix
    gru_x, gru_h = rng.standard_normal((6, 2)), rng.uniform(-0.9, 0.9, (6, 3))
    gru_mats = [None] + [Tensor(rng.standard_normal((3, 3))) for _ in range(2)]
    gru_w = [Tensor(0.5 * rng.standard_normal((5, 9))) for _ in gru_mats]
    gru_b = rng.standard_normal(9)
    w63 = rng.standard_normal((6, 3))

    def gru(x=Tensor(gru_x), h=Tensor(gru_h), mats=gru_mats, weights=gru_w, b=Tensor(gru_b)):
        return _weighted_sum(tc.gru_step(mats, x, h, weights, b), w63)

    # two leading indices: [2, 3, 4] x [2, 4, 3]
    x234 = rng.standard_normal((2, 3, 4))
    b243 = rng.standard_normal((2, 4, 3))
    w233 = rng.standard_normal((2, 3, 3))
    t_a234 = Tensor(rng.standard_normal((2, 3, 4)))
    t_b243 = Tensor(b243)
    # attention over a window of three of a bank's five [6, 4] states,
    # two row groups each, against a [3, 4] query, through an inner width of 3
    att_h = rng.standard_normal((3, 4))
    att_w1, att_w2 = 0.5 * rng.standard_normal((4, 3)), 0.5 * rng.standard_normal((4, 3))
    att_b, att_v = rng.standard_normal(3), rng.standard_normal(3)
    att_bank = rng.standard_normal((5, 6, 4))

    def attention(h=Tensor(att_h), bank=Tensor(att_bank), w1=Tensor(att_w1), b=Tensor(att_b),
                  w2=Tensor(att_w2), v=Tensor(att_v)):
        return _weighted_sum(tc.additive_attention(h, bank, 1, 3, w1, b, w2, v)[0], w34)

    # a dense GRU over four constant [6, 2] steps from a [6, 3] state,
    # returning the last three states
    seq_x, seq_h0 = rng.standard_normal((4, 6, 2)), rng.uniform(-0.9, 0.9, (6, 3))
    seq_w, seq_b = 0.5 * rng.standard_normal((5, 9)), rng.standard_normal(9)
    w363 = rng.standard_normal((3, 6, 3))

    def sequence(h0=Tensor(seq_h0), weight=Tensor(seq_w), b=Tensor(seq_b)):
        return _weighted_sum(tc.gru_sequence(seq_x, h0, weight, b, first=1), w363)

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
        ("matmul_batched_left", lambda t: _weighted_sum(tc.matmul(t, t_b243), w233), x234),
        ("matmul_batched_right", lambda t: _weighted_sum(tc.matmul(t_a234, t), w233), b243),
        ("relu", lambda t: _weighted_sum(tc.relu(t), w34), off_zero),
        ("absolute", lambda t: _weighted_sum(tc.absolute(t), w34), off_zero),
        ("softmax", lambda t: _weighted_sum(tc.softmax(t, axis=1), w34), x34),
        ("concat", lambda t: _weighted_sum(tc.concat([t, concat_mate], axis=1), w38), x34),
        ("reduce_sum_all", lambda t: tc.reduce_sum(t), x34),
        ("reduce_mean_all", lambda t: tc.reduce_mean(t), x34),
        ("reshape", lambda t: _weighted_sum(tc.reshape(t, (2, 6)), w26), x34),
        ("transpose", lambda t: _weighted_sum(tc.transpose(t, (1, 0)), w43), x34),
        ("gru_step_x", lambda t: gru(x=t), gru_x),
        ("gru_step_state", lambda t: gru(h=t), gru_h),
        ("gru_step_weight", lambda t: gru(weights=[t, *gru_w[1:]]), gru_w[0].data),
        ("gru_step_matrix_weight", lambda t: gru(weights=[*gru_w[:2], t]), gru_w[2].data),
        ("gru_step_bias", lambda t: gru(b=t), gru_b),
        ("gru_step_matrix", lambda t: gru(mats=[*gru_mats[:2], t]), gru_mats[2].data),
        ("additive_attention_query", lambda t: attention(h=t), att_h),
        ("additive_attention_w1", lambda t: attention(w1=t), att_w1),
        ("additive_attention_bias", lambda t: attention(b=t), att_b),
        ("additive_attention_w2", lambda t: attention(w2=t), att_w2),
        ("additive_attention_v", lambda t: attention(v=t), att_v),
        ("additive_attention_bank", lambda t: attention(bank=t), att_bank),
        ("gru_sequence_state0", lambda t: sequence(h0=t), seq_h0),
        ("gru_sequence_weight", lambda t: sequence(weight=t), seq_w),
        ("gru_sequence_bias", lambda t: sequence(b=t), seq_b),
    ]
    return [(name, f, Tensor(x0)) for name, f, x0 in checks]


def toy_model_setup(seed: int = 0):
    cfg = ModelConfig(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1,
                      d_count=1, w_count=1)
    n, c, b = 4, 1, 2
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((b, cfg.P, n, c))
    d = rng.standard_normal((b, cfg.d_count, cfg.block_len, n, c))
    w = rng.standard_normal((b, cfg.w_count, cfg.block_len, n, c))
    y = rng.standard_normal((b, cfg.Q, n, c))
    ring = GraphSpec(n, [(i, (i + 1) % n, 1.0) for i in range(n)], kappa=1.0, sigma=1.0)
    a_pre = row_normalize(build_predefined(ring)).matrix.data
    state = init_model(cfg, n, c, seed=seed)
    return state, r, d, w, y, a_pre


def model_loss(state: ModelState, r, d, w, y, a_pre) -> Tensor:
    # Squared error, not MAE: the absolute value's kink turns central
    # differences into garbage whenever a residual sits near zero.
    trace = forward(state, r, d, w, a_pre=a_pre)
    diff = tc.sub(trace.predictions, Tensor(y))
    return tc.reduce_mean(tc.mul(diff, diff))


def model_param_checks():
    """Central-difference spot checks on MODEL_PARAMS sampled `gate_blocks`
    blocks, MODEL_COORDS coordinates each.

    Returns (name, max_rel_error) per sampled block.
    """
    state, r, d, w, y, a_pre = toy_model_setup(MODEL_SEED)
    with Tape() as tape:
        loss = model_loss(state, r, d, w, y, a_pre)
        backward(loss, tape)
    grads = gate_blocks({name: p.grad for name, p in state.params.items()})
    blocks = gate_blocks({name: p.data for name, p in state.params.items()})

    rng = np.random.default_rng(MODEL_SEED + 1)
    names = sorted(blocks)
    picked = [names[i] for i in rng.choice(len(names), size=min(MODEL_PARAMS, len(names)),
                                           replace=False)]
    rows = []
    for name in sorted(picked):
        block = blocks[name]
        idxs = rng.choice(block.size, size=min(MODEL_COORDS, block.size), replace=False)
        worst = 0.0
        for idx in idxs:
            coord = np.unravel_index(idx, block.shape)
            orig = block[coord]
            block[coord] = orig + MODEL_H
            up = model_loss(state, r, d, w, y, a_pre).item()
            block[coord] = orig - MODEL_H
            down = model_loss(state, r, d, w, y, a_pre).item()
            block[coord] = orig
            numeric = (up - down) / (2.0 * MODEL_H)
            analytic = grads[name][coord]
            rel = _rel_errors(np.array([analytic]), np.array([numeric]))[0]
            worst = max(worst, float(rel))
        rows.append((name, worst))
    return rows


def install_matmul_fault():
    """Swap in a matmul whose backward rule carries a constant bias.

    Test hook for the check harness itself: a correct harness must flag
    this immediately, in the primitive rows and in the model rows (the
    output layer and the adjacency powers record matmul). Returns the
    original op for restoration.
    """
    original = tc.matmul

    def faulty_matmul(a: Tensor, b: Tensor) -> Tensor:
        def backward_fn(g):
            return (g @ b.data.swapaxes(-1, -2) + 1e-2, a.data.swapaxes(-1, -2) @ g + 1e-2)

        return tc._emit((a, b), a.data @ b.data, backward_fn)

    tc.matmul = faulty_matmul
    return original


def run_checks(inject_fault: bool = False) -> List[Tuple[str, float, float]]:
    """Every primitive, then the model: (check, max_rel_error, tol) rows.

    With `inject_fault`, matmul's backward rule is corrupted for the run
    and restored afterwards.
    """
    original_matmul = install_matmul_fault() if inject_fault else None
    rows: List[Tuple[str, float, float]] = []
    try:
        for name, f, x0 in primitive_checks(np.random.default_rng(0)):
            report = finite_diff_check(f, x0, tol=PRIMITIVE_TOL)
            rows.append((f"op:{name}", report.max_rel_error, PRIMITIVE_TOL))
        for name, max_rel in model_param_checks():
            rows.append((f"model:{name}", max_rel, MODEL_TOL))
    finally:
        if original_matmul is not None:
            tc.matmul = original_matmul
    return rows
