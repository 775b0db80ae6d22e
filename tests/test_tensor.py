"""Engine primitives: frozen examples, gradient oracles, tape invariants."""

import contextlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from trafficast import tensor as tc
from trafficast.gradcheck import PRIMITIVE_TOL, _weighted_sum
from trafficast.model import (
    ModelConfig,
    adaptive_mix_mats,
    attention_step,
    dgc_terms,
    dgcgru_cell,
    encode,
    forward,
    gru_cell,
    init_model,
    pre_mix_mats,
)
from trafficast.tensor import Tape, Tensor, backward, finite_diff_check
from trafficast.training import mae_loss


def rand(shape, seed, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape))


# Taped sigmoid and tanh: no model code records either (the GRU records
# apply them inside), so they live here, for the unfused reference chains
# and the engine tests, over the same kernels the GRU records use.

def sigmoid(a):
    y = tc._sigmoid(a.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return tc._emit((a,), y, bwd)


def tanh(a):
    y = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return tc._emit((a,), y, bwd)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(tc.matmul(a, b).data, b.data)


def test_matmul_inner_product():
    out = tc.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(tc.ShapeError, match=r"\[2, 3\].*\[2, 2\]"):
        tc.matmul(rand((2, 3), 0), rand((2, 2), 1))
    with pytest.raises(tc.ShapeError, match=r"\[2, 3, 4\].*\[3, 4, 2\]"):
        tc.matmul(rand((2, 3, 4), 0), rand((3, 4, 2), 1))
    with pytest.raises(tc.ShapeError, match=r"\[2, 3, 4\].*\[4, 2\]"):
        tc.matmul(rand((2, 3, 4), 0), rand((4, 2), 1))


def test_batched_matmul_is_one_product_per_leading_index():
    a, b = rand((3, 2, 4), 2), rand((3, 4, 5), 3)
    out = tc.matmul(a, b)
    assert out.shape == (3, 2, 5)
    for i in range(3):
        np.testing.assert_array_equal(out.data[i], a.data[i] @ b.data[i])


# ---------------------------------------------------------------------------
# fused steps: gru_step and additive_attention against their unfused chains
# ---------------------------------------------------------------------------

def unfused_gate_sum(mats, x, weights, bias):
    # x W_0 + sum_k M_k (x W_k) + b from generic ops: rows are node-major
    # (row n*B + b), so each M_k mixes x W_k reshaped to [N, B*w]
    out = tc.matmul(x, weights[0])
    for mat, w in zip(mats[1:], weights[1:]):
        xw = tc.matmul(x, w)
        n = mat.shape[0]
        mixed = tc.matmul(mat, tc.reshape(xw, (n, xw.size // n)))
        out = tc.add(out, tc.reshape(mixed, xw.shape))
    return tc.add(out, bias)


def unfused_gru_step(mats, x, h, gates, biases):
    # the chain of records a GRU step took before gru_step fused it, over
    # separate W_z, W_r and W_c per matrix (gates[k]) and b_z, b_r, b_c
    # (biases); a product with columns of the identity picks the z and r
    # halves exactly
    d = h.shape[1]
    zr = sigmoid(unfused_gate_sum(mats, tc.concat([x, h], axis=1),
                                  [tc.concat([wz, wr], axis=1) for wz, wr, _ in gates],
                                  tc.concat(biases[:2], axis=0)))
    z = tc.matmul(zr, Tensor(np.eye(2 * d)[:, :d]))
    r = tc.matmul(zr, Tensor(np.eye(2 * d)[:, d:]))
    c = tanh(unfused_gate_sum(mats, tc.concat([x, tc.mul(r, h)], axis=1),
                              [wc for *_, wc in gates], biases[2]))
    return tc.add(tc.sub(h, tc.mul(z, h)), tc.mul(z, c))


def _gru_operands(n_mats, rows, d_x, d_h, seed, requires_grad=False):
    # gru_step's operands, and the chain's: separate per-gate weights and
    # biases, whose concat is each joined weight [W_z | W_r | W_c] and the
    # joined bias [b_z | b_r | b_c]
    mats = [None] + [rand((3, 3), seed + k, 0.0, 1.0) for k in range(1, n_mats)]
    x, h = rand((rows, d_x), seed + 10), rand((rows, d_h), seed + 11, -1.0, 1.0)
    gates = [[rand((d_x + d_h, d_h), seed + 20 + 3 * k + i, -0.5, 0.5) for i in range(3)]
             for k in range(n_mats)]
    biases = [rand((d_h,), seed + 40 + i) for i in range(3)]
    weights = [Tensor(np.concatenate([t.data for t in gate], axis=1)) for gate in gates]
    bias = Tensor(np.concatenate([t.data for t in biases]))
    for t in [x, h, bias, *weights, *biases, *sum(gates, []), *mats[1:]]:
        t.requires_grad = requires_grad
    return (mats, x, h, weights, bias), (mats, x, h, gates, biases)


@pytest.mark.parametrize("n_mats", [1, 3])
def test_gru_step_bitwise_equals_unfused_chain(n_mats):
    # the dense GRUs mix by the identity alone; a graph GRU adds matrices
    operands, chain = _gru_operands(n_mats, 6, 2, 3, 100)
    expected = unfused_gru_step(*chain).data
    np.testing.assert_array_equal(tc.gru_step(*operands).data, expected)
    operands, chain = _gru_operands(n_mats, 6, 2, 3, 100, requires_grad=True)
    with Tape():
        np.testing.assert_array_equal(tc.gru_step(*operands).data, expected)


def _leaf_grads(step, operands, leaves, weights):
    # d sum(weights * output) / d leaf for every leaf, from one backward
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = step(*operands)
        out = out[0] if isinstance(out, tuple) else out
        backward(tc.reduce_sum(tc.mul(out, weights)), tape)
    return [t.grad.copy() for t in leaves]


def test_gru_step_gradients_match_unfused_chain():
    # each joined weight's and the joined bias's adjoint is the chain's
    # per-gate adjoints, concatenated
    operands, chain = _gru_operands(3, 6, 2, 3, 110, requires_grad=True)
    mats, x, h, joined, bias = operands
    gates, biases = chain[3], chain[4]
    out_weights = rand((6, 3), 119)
    fused = _leaf_grads(tc.gru_step, operands, [x, h, bias, *joined, *mats[1:]], out_weights)
    plain = _leaf_grads(unfused_gru_step, chain, [x, h, *biases, *sum(gates, []), *mats[1:]],
                        out_weights)
    # the bias's three blocks, then each matrix's three weight blocks
    blocks = plain[2:14]
    plain = [*plain[:2], *[np.concatenate(blocks[i:i + 3], axis=-1) for i in range(0, 12, 3)],
             *plain[14:]]
    assert len(fused) == len(plain) == 8
    for fused, plain in zip(fused, plain):
        np.testing.assert_allclose(fused, plain, rtol=0, atol=1e-14 * np.abs(plain).max())


def gru_step_loop(steps, h0, weight, bias, first=0):
    # the records an encoder pass took before gru_sequence fused it: one
    # gru_step per constant step, the states from `first` on stacked
    h, states = h0, []
    for x_t in steps:
        h = tc.gru_step([None], Tensor(x_t), h, [weight], bias)
        states.append(tc.reshape(h, (1, *h.shape)))
    return tc.concat(states[first:], axis=0)


def _sequence_operands(n_steps, rows, d_x, d_h, seed, requires_grad=False):
    steps = rand((n_steps, rows, d_x), seed).data
    h0 = rand((rows, d_h), seed + 1, -1.0, 1.0)
    weight, bias = rand((d_x + d_h, 3 * d_h), seed + 2, -0.5, 0.5), rand((3 * d_h,), seed + 3)
    for t in (h0, weight, bias):
        t.requires_grad = requires_grad
    return steps, h0, weight, bias


@pytest.mark.parametrize("first", [0, 3, 6])
def test_gru_sequence_bitwise_equals_gru_step_loop(first):
    operands = _sequence_operands(7, 6, 2, 3, 170)
    expected = gru_step_loop(*operands, first=first).data
    np.testing.assert_array_equal(tc.gru_sequence(*operands, first=first).data, expected)
    operands = _sequence_operands(7, 6, 2, 3, 170, requires_grad=True)
    with Tape() as tape:
        out = tc.gru_sequence(*operands, first=first)
    assert [_op(rec) for rec in tape.records] == ["gru_sequence"]
    assert out.shape == (7 - first, 6, 3)
    np.testing.assert_array_equal(out.data, expected)


@pytest.mark.parametrize("first", [0, 3, 6])
def test_gru_sequence_gradients_match_gru_step_loop(first):
    operands = _sequence_operands(7, 6, 2, 3, 180, requires_grad=True)
    leaves, weights = operands[1:], rand((7 - first, 6, 3), 189)
    for fused, plain in zip(
            _leaf_grads(lambda *ops: tc.gru_sequence(*ops, first=first), operands, leaves,
                        weights),
            _leaf_grads(lambda *ops: gru_step_loop(*ops, first=first), operands, leaves,
                        weights)):
        np.testing.assert_allclose(fused, plain, rtol=0, atol=1e-13 * np.abs(plain).max())


def test_gru_sequence_shape_mismatch():
    steps, h0, weight, bias = _sequence_operands(4, 6, 2, 3, 190)
    with pytest.raises(tc.ShapeError, match=r"\[T,rows,d\].*\[4, 6, 2\] and \[5, 3\]"):
        tc.gru_sequence(steps, rand((5, 3), 1), weight, bias)
    with pytest.raises(tc.ShapeError, match=r"\[T,rows,d\].*\[6, 2\]"):
        tc.gru_sequence(steps[0], h0, weight, bias)
    for first in (-1, 4):
        with pytest.raises(tc.ShapeError, match=f"first state {first} out of range for 4"):
            tc.gru_sequence(steps, h0, weight, bias, first=first)
    with pytest.raises(tc.ShapeError, match=r"width mismatch.*\[5, 9\], got \[4, 9\]"):
        tc.gru_sequence(steps, h0, rand((4, 9), 1), bias)
    with pytest.raises(tc.ShapeError, match=r"width mismatch.*\[5, 9\], got \[5, 6\]"):
        tc.gru_sequence(steps, h0, rand((5, 6), 1), bias)
    with pytest.raises(tc.ShapeError, match=r"gru_sequence bias must be \[9\]"):
        tc.gru_sequence(steps, h0, weight, rand((6,), 1))


def test_gate_sum_mixes_each_batch_element():
    # rows are node-major: row n*2 + b is node n of batch element b; weights
    # 0 on the identity and I on adj reduce the gate sum to M x
    adj, x = rand((3, 3), 2), rand((6, 4), 3)
    weights, bias = [np.zeros((4, 4)), np.eye(4)], np.zeros(4)
    out = tc._gate_sum([None, adj], x.data, weights, bias)
    assert out.shape == (6, 4)
    for b in range(2):
        rows = slice(b, None, 2)
        np.testing.assert_allclose(out[rows], adj.data @ x.data[rows], rtol=0, atol=1e-14)


def test_gate_sum_is_term_by_term_sum_then_bias():
    mats = [None, rand((3, 3), 4), rand((3, 3), 5)]
    x, bias = rand((6, 4), 6), rand((5,), 7)
    weights = [rand((4, 5), 8 + k) for k in range(3)]
    # x W_0 + M_1 (x W_1) + M_2 (x W_2), each product mixed over the free
    # [N, B*w] view of its node-major rows, summed in that order
    expected = x.data @ weights[0].data
    for mat, w in zip(mats[1:], weights[1:]):
        expected = expected + (mat.data @ (x.data @ w.data).reshape(3, 10)).reshape(6, 5)
    out = tc._gate_sum(mats, x.data, [w.data for w in weights], bias.data)
    np.testing.assert_array_equal(out, expected + bias.data)


def test_gate_sum_shape_mismatch():
    (mats, x, h, weights, bias), _ = _gru_operands(2, 6, 2, 3, 120)
    with pytest.raises(tc.ShapeError, match=r"\[3, 4\] and 6 rows"):
        tc.gru_step([None, rand((3, 4), 0)], x, h, weights, bias)
    with pytest.raises(tc.ShapeError, match=r"\[3, 3\] and 8 rows"):
        tc.gru_step(mats, rand((8, 2), 1), rand((8, 3), 2), weights, bias)
    with pytest.raises(tc.ShapeError, match="identity"):
        tc.gru_step(mats[::-1], x, h, weights, bias)
    with pytest.raises(tc.ShapeError, match="one weight per matrix"):
        tc.gru_step(mats, x, h, weights[:1], bias)
    with pytest.raises(tc.ShapeError, match=r"weights \[5, 9\], got \[5, 6\]"):
        tc.gru_step(mats, x, h, [weights[0], rand((5, 6), 3)], bias)
    with pytest.raises(tc.ShapeError, match=r"gru_step bias must be \[9\]"):
        tc.gru_step(mats, x, h, weights, rand((6,), 5))
    with pytest.raises(tc.ShapeError, match=r"\[6, 2\] and \[4, 3\]"):
        tc.gru_step(mats, x, rand((4, 3), 4), weights, bias)


def test_gate_halves_are_update_left_reset_right():
    # [z | r] = sigmoid([x, h] [W_z | W_r] + [b_z | b_r]): z mixes the
    # state, r gates it; c = tanh([x, r h] W_c + b_c) from the last third
    (_, x, h, weights, bias), _ = _gru_operands(1, 4, 2, 3, 130)
    w, b = weights[0].data, bias.data
    xh = np.concatenate([x.data, h.data], axis=1)
    zr = 1.0 / (1.0 + np.exp(-(xh @ w[:, :6] + b[:6])))
    z, r = zr[:, :3], zr[:, 3:]
    c = np.tanh(np.concatenate([x.data, r * h.data], axis=1) @ w[:, 6:] + b[6:])
    np.testing.assert_array_equal(tc.gru_step([None], x, h, weights, bias).data,
                                  (h.data - z * h.data) + z * c)


def test_gru_step_keeps_no_mix_or_operand_on_a_tape(monkeypatch):
    # each M_k [..] is dropped once it is summed and the [x, h] / [x, r*h]
    # operand once the step is formed, taped or not: the backward rebuilds
    # the operand and mixes the adjoint instead
    mixes, operands = [], []
    node_mix, gate_sum = tc._node_mix, tc._gate_sum
    monkeypatch.setattr(tc, "_node_mix", lambda *a: mixes.append(weakref.ref(
        out := node_mix(*a))) or out)
    monkeypatch.setattr(tc, "_gate_sum", lambda mats, xd, *a: operands.append(
        weakref.ref(xd)) or gate_sum(mats, xd, *a))
    step, _ = _gru_operands(2, 6, 2, 3, 140, requires_grad=True)
    tc.gru_step(*step)
    assert len(mixes) == 2 and len(operands) == 2
    assert all(ref() is None for ref in mixes + operands)
    del mixes[:], operands[:]
    with Tape() as tape:
        loss = tc.reduce_sum(tc.gru_step(*step))
    assert len(mixes) == 2 and len(operands) == 2
    assert all(ref() is None for ref in mixes + operands)
    backward(loss, tape)
    assert all(t.grad is not None for t in [step[1], step[2], *step[0][1:]])


def _kept_bytes(n_mats, rows=256, d_x=16, d_h=16):
    # bytes a taped gru_step allocates and keeps while its tape is alive
    operands, _ = _gru_operands(n_mats, rows, d_x, d_h, 150, requires_grad=True)
    # [32, 32] matrices, so that they tile the rows
    operands[0][1:] = [rand((32, 32), 151 + k, 0.0, 1.0) for k in range(1, n_mats)]
    for t in operands[0][1:]:
        t.requires_grad = True
    tracemalloc.start()
    try:
        with Tape() as tape:
            tc.gru_step(*operands)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    return kept


def test_gru_step_keeps_the_same_bytes_for_any_number_of_matrices():
    # the record keeps h', [z | r] and c whatever the matrices: 2K mixes
    # of [x, h] and of [x, r*h] would add 8 operands from 1 to 5 matrices
    gate_bytes = 256 * 16 * 8
    assert abs(_kept_bytes(5) - _kept_bytes(1)) < gate_bytes


def test_gru_sequence_keeps_no_gate_taped_or_not(monkeypatch):
    # every gate sum's output and its [x, h] or [x, r*h] operand are
    # dropped by the end of the call, taped or not: a taped pass keeps only
    # its states, and its backward recomputes both gate sums of every step
    # from them; an untaped one keeps no state before `first` either
    seen = []
    gate_sum = tc._gate_sum

    def spy(mats, xd, weights, bias, out=None):
        result = gate_sum(mats, xd, weights, bias, out)
        seen.append((weakref.ref(xd), weakref.ref(result)))
        return result

    monkeypatch.setattr(tc, "_gate_sum", spy)
    operands = _sequence_operands(7, 6, 2, 3, 200, requires_grad=True)
    out = tc.gru_sequence(*operands, first=4)
    assert len(seen) == 14 and all(xd() is None and g() is None for xd, g in seen)
    assert out.data.base is None and out.data.shape == (3, 6, 3)
    del seen[:]
    with Tape() as tape:
        out = tc.gru_sequence(*operands, first=4)
        loss = tc.reduce_sum(tc.mul(out, out))
    assert len(seen) == 14 and all(xd() is None and g() is None for xd, g in seen)
    assert out.data.base.shape == (7, 6, 3)
    del seen[:]
    backward(loss, tape)
    assert len(seen) == 14 and all(xd() is None and g() is None for xd, g in seen)
    assert all(t.grad is not None and np.abs(t.grad).max() > 0 for t in operands[1:])


def test_gru_sequence_keeps_only_its_states_on_a_tape():
    # bytes a taped pass allocates and keeps while its tape is alive, its
    # operands built before the count starts: its 20 states and a few
    # small objects, where each step's [z | r] and c would add 60 states
    steps, h0, weight, bias = _sequence_operands(20, 256, 1, 16, 205, requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = tc.gru_sequence(steps, h0, weight, bias)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and out.data.base.shape == (20, 256, 16)
    states = out.data.base.nbytes
    assert kept <= states + h0.data.nbytes + 16 * 1024


def test_untaped_gru_sequence_lets_go_of_its_initial_state(monkeypatch):
    # untaped, h0 is copied into the first state's slot before step 0, so
    # no step runs beside it; on a tape the record keeps it for its backward
    alive = []
    gate_sum = tc._gate_sum

    def spy(mats, xd, weights, bias, out=None):
        alive.append(h0_data() is not None)
        return gate_sum(mats, xd, weights, bias, out)

    monkeypatch.setattr(tc, "_gate_sum", spy)
    steps, h0, weight, bias = _sequence_operands(4, 6, 2, 3, 201, requires_grad=True)
    for taped, first in ((False, 0), (False, 2), (True, 0)):
        # the state is passed straight from the list, so only the call holds it
        held = [Tensor(h0.data.copy())]
        h0_data = weakref.ref(held[0].data)
        del alive[:]
        with Tape() if taped else contextlib.nullcontext():
            out = tc.gru_sequence(steps, held.pop(), weight, bias, first)
            assert alive == [taped] * 8
        np.testing.assert_array_equal(
            out.data, tc.gru_sequence(steps, h0, weight, bias, first).data)


def _unfused_scores(h, window, w1, b, w2, v):
    # the per-offset chain attention recorded before its scores fused: the
    # query repeated over row groups, then matmul, add, tanh, matmul
    rows, width = h.shape
    groups = window[0].shape[0] // rows
    query = tc.add(tc.matmul(h, w1), b)
    query = tc.reshape(tc.concat([query] * groups, axis=1), (rows * groups, width))
    v_col = tc.reshape(v, (v.shape[0], 1))
    scores = [tc.matmul(tanh(tc.add(tc.matmul(k, w2), query)), v_col) for k in window]
    return tc.reshape(tc.concat(scores, axis=1), (rows, groups * len(window)))


def _window(bank, start, n_off):
    # the window states picked out of the bank exactly, by rows of the identity
    n, k_rows, d = bank.shape
    flat = tc.reshape(bank, (n, k_rows * d))
    return [tc.reshape(tc.matmul(Tensor(np.eye(n)[start + c:start + c + 1]), flat), (k_rows, d))
            for c in range(n_off)]


def unfused_attention(h, bank, start, n_off, w1, b, w2, v):
    # the window read out of the bank, scores, a softmax per row, then the
    # context pooled one candidate at a time (column g*C + c weights row
    # r*G + g of window[c]), each offset's row groups summed in group order,
    # the offsets' sums added in offset order, and h added last
    window = _window(bank, start, n_off)
    rows, width = h.shape
    groups = window[0].shape[0] // rows
    weights = tc.softmax(_unfused_scores(h, window, w1, b, w2, v), axis=1)
    ones = Tensor(np.ones((1, width)))
    pooled = None
    for c in range(n_off):
        offset = None
        for group in range(groups):
            j = group * n_off + c
            k_rows = tc.matmul(Tensor(np.eye(rows * groups)[group::groups]), window[c])
            scale = tc.matmul(tc.matmul(weights, Tensor(np.eye(groups * n_off)[:, j:j + 1])),
                              ones)
            term = tc.mul(scale, k_rows)
            offset = term if offset is None else tc.add(offset, term)
        pooled = offset if pooled is None else tc.add(pooled, offset)
    return tc.add(pooled, h), weights


def _score_operands(rows, groups, n_off, d, seed, requires_grad=False):
    # the window is n_off states of a bank with one state on either side
    ops = [rand(shape, seed + i) for i, shape in enumerate(
        [(rows, d), (n_off + 2, rows * groups, d), (d, d), (d,), (d, d), (d,)])]
    for t in ops:
        t.requires_grad = requires_grad
    return ops[0], ops[1], 1, n_off, *ops[2:]


@pytest.mark.parametrize("rows,groups,n_off", [(3, 2, 3), (4, 1, 1), (2, 5, 7)])
def test_additive_scores_bitwise_equals_unfused_chain(rows, groups, n_off):
    # output and weights, with and without a tape
    operands = _score_operands(rows, groups, n_off, 4, 70)
    out, weights = unfused_attention(*operands)
    fused = tc.additive_attention(*operands)
    np.testing.assert_array_equal(fused[0].data, out.data)
    np.testing.assert_array_equal(fused[1].data, weights.data)
    operands = _score_operands(rows, groups, n_off, 4, 70, requires_grad=True)
    with Tape():
        fused = tc.additive_attention(*operands)
    np.testing.assert_array_equal(fused[0].data, out.data)
    np.testing.assert_array_equal(fused[1].data, weights.data)
    assert not fused[1].requires_grad


def test_additive_attention_gradients_match_unfused_chain():
    operands = _score_operands(3, 2, 3, 4, 75, requires_grad=True)
    h, bank, _, _, *params = operands
    leaves, weights = [h, bank, *params], rand((3, 4), 79)
    for fused, plain in zip(_leaf_grads(tc.additive_attention, operands, leaves, weights),
                            _leaf_grads(unfused_attention, operands, leaves, weights)):
        np.testing.assert_allclose(fused, plain, rtol=0, atol=1e-14 * np.abs(plain).max())


def test_additive_attention_keeps_no_tanh_output(monkeypatch):
    # every offset's tanh output goes to one scratch buffer that is dropped
    # on return, taped or not: a taped record recomputes the activations in
    # its backward
    seen = []
    np_tanh = np.tanh

    def tanh(x, out=None):
        res = np_tanh(x, out=out)
        seen.append((weakref.ref(res), res.ctypes.data))
        return res

    operands = _score_operands(3, 2, 4, 4, 80, requires_grad=True)
    monkeypatch.setattr(np, "tanh", tanh)
    leaves = [t for t in operands if isinstance(t, Tensor)]
    for taped in (False, True):
        del seen[:]
        with Tape() if taped else contextlib.nullcontext() as tape:
            out, _ = tc.additive_attention(*operands)
            assert len(seen) == 4 and len({addr for _, addr in seen}) == 1
            assert all(ref() is None for ref, _ in seen)
            loss = tc.reduce_sum(out)
        if taped:
            backward(loss, tape)
            assert all(t.grad is not None for t in leaves)
            for t in leaves:
                t.grad = None


def _attention_kept_bytes(n_off, rows=16, groups=2, d=16):
    # bytes a taped additive_attention allocates and keeps while its tape
    # is alive
    h, bank, start, _, w1, b, w2, v = _score_operands(rows, groups, 7, d, 170,
                                                      requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out, weights = tc.additive_attention(h, bank, start, n_off, w1, b, w2, v)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and weights.shape == (rows, groups * n_off)
    return kept


def test_additive_attention_keeps_the_same_bytes_for_any_window():
    # the record keeps its output and weights, whatever its window: a tanh
    # output per offset would add 6 arrays of [32, 16] from 1 to 7 offsets
    weights_bytes = 16 * 2 * 7 * 8
    assert abs(_attention_kept_bytes(7) - _attention_kept_bytes(1)) < weights_bytes


def test_weighted_pool_is_per_row_weighted_sum():
    # one row group: the context is sum_c weights[:, c] * window[c]
    operands = _score_operands(4, 1, 3, 2, 140)
    out, weights = tc.additive_attention(*operands)
    window = operands[1].data[1:4]
    expected = sum(weights.data[:, c:c + 1] * window[c] for c in range(3))
    np.testing.assert_allclose(out.data - operands[0].data, expected, rtol=0, atol=1e-14)


def test_weighted_pool_groups_rows():
    # G = 2 groups of 3 values: weight column g*3 + c scales row r*2 + g of
    # value c, and each output row sums its groups
    operands = _score_operands(4, 2, 3, 2, 150)
    out, weights = tc.additive_attention(*operands)
    window = operands[1].data[1:4]
    expected = sum(weights.data[:, g * 3 + c:g * 3 + c + 1] * window[c][g::2]
                   for g in range(2) for c in range(3))
    np.testing.assert_allclose(out.data - operands[0].data, expected, rtol=0, atol=1e-14)


def test_additive_attention_reads_a_whole_bank_window_as_a_ring():
    # a window of the whole bank from slot 3 of 5 reads offsets 0..4 from
    # slots 3, 4, 0, 1, 2: bitwise the window of the bank rolled to start
    # there, outputs and weights, and on a tape every parameter gradient
    # too; a bank that needs its adjoint gets the rolled bank's, rolled back
    h, bank, _, _, w1, b, w2, v = _score_operands(3, 2, 3, 4, 95)  # 5 states
    rolled = Tensor(np.roll(bank.data, -3, axis=0))
    ring, plain = (tc.additive_attention(h, bank, 3, 5, w1, b, w2, v),
                   tc.additive_attention(h, rolled, 0, 5, w1, b, w2, v))
    for got, want in zip(ring, plain):
        np.testing.assert_array_equal(got.data, want.data)
    params, weights = [h, w1, b, w2, v], rand((3, 4), 96)
    for t in params:
        t.requires_grad = True
    for got, want in zip(
            _leaf_grads(tc.additive_attention, (h, bank, 3, 5, w1, b, w2, v), params, weights),
            _leaf_grads(tc.additive_attention, (h, rolled, 0, 5, w1, b, w2, v), params,
                        weights)):
        np.testing.assert_array_equal(got, want)
    bank.requires_grad = rolled.requires_grad = True
    ring_grads = _leaf_grads(tc.additive_attention, (h, bank, 3, 5, w1, b, w2, v),
                             [bank, *params], weights)
    plain_grads = _leaf_grads(tc.additive_attention, (h, rolled, 0, 5, w1, b, w2, v),
                              [rolled, *params], weights)
    np.testing.assert_array_equal(ring_grads[0], np.roll(plain_grads[0], 3, axis=0))
    for got, want in zip(ring_grads[1:], plain_grads[1:]):
        np.testing.assert_array_equal(got, want)


def test_weighted_pool_shape_mismatch():
    h, bank, _, _, w1, b, w2, v = _score_operands(3, 2, 3, 4, 90)
    # an empty window, and windows that run off either end of 5 states
    for start, n_off in ((1, 0), (-1, 3), (3, 3)):
        with pytest.raises(tc.ShapeError, match="outside a bank of 5 states"):
            tc.additive_attention(h, bank, start, n_off, w1, b, w2, v)
    # 7 rows is no whole number of row groups for 3 query rows
    with pytest.raises(tc.ShapeError, match=r"\[l,r\*g,4\].*\[5, 7, 4\]"):
        tc.additive_attention(h, rand((5, 7, 4), 1), 1, 3, w1, b, w2, v)
    # a bank of one state per tensor, not a stack of states
    with pytest.raises(tc.ShapeError, match=r"\[l,r\*g,4\].*\[6, 4\]"):
        tc.additive_attention(h, rand((6, 4), 1), 0, 1, w1, b, w2, v)
    # bank states narrower than the query
    with pytest.raises(tc.ShapeError, match=r"\[l,r\*g,4\].*\[5, 6, 3\]"):
        tc.additive_attention(h, rand((5, 6, 3), 1), 1, 3, w1, b, w2, v)


def test_additive_scores_shape_mismatch():
    h, bank, start, n_off, w1, b, w2, v = _score_operands(3, 2, 3, 4, 90)
    with pytest.raises(tc.ShapeError, match=r"\[r,d\] query"):
        tc.additive_attention(rand((3, 4, 1), 1), bank, start, n_off, w1, b, w2, v)
    with pytest.raises(tc.ShapeError, match=r"w2 must be \[4, 4\], got \[4, 3\]"):
        tc.additive_attention(h, bank, start, n_off, w1, b, rand((4, 3), 1), v)
    with pytest.raises(tc.ShapeError, match=r"b must be \[4\], got \[3\]"):
        tc.additive_attention(h, bank, start, n_off, w1, rand((3,), 1), w2, v)


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).item() == 0.5


def test_sigmoid_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])


def test_sigmoid_is_bitwise_the_textbook_formula():
    x = np.concatenate([rand((40, 16), 11).data.ravel(), rand((200,), 12, -60.0, 60.0).data])
    np.testing.assert_array_equal(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))


def test_relu_definition():
    np.testing.assert_array_equal(
        tc.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0]
    )


def test_binary_shape_rejection():
    with pytest.raises(tc.ShapeError):
        tc.add(rand((2, 3), 0), rand((3, 2), 1))


def test_trailing_vector_broadcast():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    np.testing.assert_array_equal(tc.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])


def test_softmax_uniform_over_equal_logits():
    out = tc.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)


def test_softmax_no_overflow_on_large_logits():
    out = tc.softmax(Tensor([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], rtol=0, atol=0)


def test_softmax_rows_sum_to_one():
    x = rand((7, 5), 3, lo=-8, hi=8)
    y = tc.softmax(x, axis=1)
    assert np.all(y.data > 0)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(7), rtol=0, atol=1e-12)


def test_concat_rows():
    out = tc.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=0)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_concat_width_arithmetic():
    parts = [rand((3, 4), s) for s in range(5)]
    assert tc.concat(parts, axis=1).shape == (3, 20)


def test_concat_off_axis_mismatch():
    with pytest.raises(tc.ShapeError):
        tc.concat([rand((2, 3), 0), rand((3, 3), 1)], axis=1)
    with pytest.raises(tc.ShapeError, match="differ off-axis"):
        tc.concat([rand((2, 3), 0), rand((2, 3, 1), 1)], axis=-1)
    with pytest.raises(tc.ShapeError, match="axis 2 invalid"):
        tc.concat([rand((2, 3), 0), rand((2, 3), 1)], axis=2)


def test_reduce_examples():
    assert tc.reduce_mean(Tensor([2.0, 4.0, 6.0])).item() == 4.0


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(5.0), requires_grad=True)
    with Tape() as tape:
        loss = tc.reduce_sum(x)
        backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones(5))


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tc.reduce_sum(tc.mul(x, x))
        backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = tc.mul(x, x)
        with pytest.raises(tc.ShapeError):
            backward(y, tape)


def test_backward_rejects_a_loss_its_tape_did_not_produce():
    # a leaf, or a loss recorded on an earlier tape, is refused before the
    # pass consumes anything
    x = Tensor([3.0], requires_grad=True)
    with Tape() as first:
        loss = tc.mul(x, x)
    with Tape() as tape:
        tc.mul(x, x)
        for other in (x, loss):
            with pytest.raises(ValueError, match="not produced on this tape"):
                backward(other, tape)
        assert len(tape) == 1 and len(first) == 1
    assert x.grad is None


def test_backward_accumulates_across_calls():
    # a leaf's .grad sums the passes of two tapes until zeroed
    x = Tensor([3.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            backward(tc.mul(x, x), tape)
    np.testing.assert_array_equal(x.grad, [12.0])


def test_backward_consumes_its_tape():
    # each record is released once replayed, so a second pass has nothing
    # to replay and raises rather than adding nothing
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = tc.mul(x, x)
        backward(loss, tape)
        assert len(tape) == 0
        with pytest.raises(ValueError, match="already replayed"):
            backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [6.0])


# ---------------------------------------------------------------------------
# gradient oracles (central differences, h=1e-5)
# ---------------------------------------------------------------------------

def test_matmul_gradients():
    b = rand((3, 2), 11)
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.matmul(x, b)), rand((4, 3), 10)
    )
    assert rep.passed, rep

    a = rand((4, 3), 10)
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.matmul(a, x)), rand((3, 2), 11)
    )
    assert rep.passed, rep


def test_tanh_gradient_at_point():
    rep = finite_diff_check(lambda x: tc.reduce_sum(tanh(x)), Tensor([0.3]))
    assert rep.passed, rep


@pytest.mark.parametrize(
    "op", [sigmoid, tanh, tc.absolute, lambda t: tc.relu(tc.add(t, Tensor([0.1])))]
)
def test_unary_gradients(op):
    rep = finite_diff_check(lambda x: tc.reduce_sum(op(x)), rand((8,), 21))
    assert rep.passed, rep


def test_composite_gradient():
    # a chain through matmul, sigmoid, tanh and mul, each record's adjoint
    # feeding the next, under a weighted sum
    w1, w2, weights = rand((4, 3), 25), rand((4, 3), 26), rand((3, 3), 24).data
    rep = finite_diff_check(
        lambda t: _weighted_sum(tc.mul(sigmoid(tc.matmul(t, w1)), tanh(tc.matmul(t, w2))),
                                weights),
        rand((3, 4), 22), tol=PRIMITIVE_TOL)
    assert rep.passed, rep


def test_binary_gradients_both_sides():
    b = rand((6,), 31)
    for f in (tc.add, tc.sub, tc.mul):
        rep = finite_diff_check(lambda x: tc.reduce_sum(f(x, b)), rand((4, 6), 30))
        assert rep.passed, rep
        a = rand((4, 6), 30)
        rep = finite_diff_check(lambda x: tc.reduce_sum(f(a, x)), rand((6,), 31))
        assert rep.passed, rep


def test_softmax_gradient_weighted():
    t = rand((5,), 40)
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.mul(tc.softmax(x, 0), t)), rand((5,), 41)
    )
    assert rep.passed, rep


def test_concat_slice_gradient_routing():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    with Tape() as tape:
        joined = tc.concat([a, b], axis=0)
        kept = tc.mul(joined, Tensor([[0.0, 0.0], [1.0, 1.0]]))  # only b's row survives
        backward(tc.reduce_sum(kept), tape)
    assert a.grad is None or np.all(a.grad == 0.0)
    np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    cols = Tensor(np.tile([0.0, 1.0, 1.0, 1.0, 0.0, 0.0], (3, 1)))  # columns 1..3
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.mul(tc.concat([x, x], axis=1), cols)),
        rand((3, 3), 44),
    )
    assert rep.passed, rep


def test_reduce_gradients():
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.reduce_mean(x)), rand((3, 4), 50)
    )
    assert rep.passed, rep


def test_reshape_transpose_gradients():
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.mul(tc.reshape(x, (6, 2)), tc.reshape(x, (6, 2)))),
        rand((3, 4), 60),
    )
    assert rep.passed, rep
    w = rand((4, 3), 61)
    rep = finite_diff_check(
        lambda x: tc.reduce_sum(tc.matmul(tc.transpose(x, (1, 0)), w)),
        rand((4, 3), 62),
    )
    assert rep.passed, rep


def test_gradcheck_exact_for_sum():
    rep = finite_diff_check(tc.reduce_sum, rand((6,), 70))
    assert rep.max_rel_error <= 1e-9


def test_gradcheck_consistent_across_steps():
    x = rand((8,), 71)
    for h in (1e-4, 1e-5):
        rep = finite_diff_check(
            lambda t: tc.reduce_sum(sigmoid(t)), x, h=h, tol=1e-6
        )
        assert rep.passed, rep


def test_gradcheck_flags_wrong_backward():
    def negated_identity(a):
        def bwd(g):
            return (-g,)  # deliberately wrong rule

        return tc._emit((a,), a.data.copy(), bwd)

    rep = finite_diff_check(
        lambda x: tc.reduce_sum(negated_identity(x)), rand((4,), 72)
    )
    assert not rep.passed


# ---------------------------------------------------------------------------
# engine invariants
# ---------------------------------------------------------------------------

def test_gradients_only_on_requires_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])  # constant
    with Tape() as tape:
        loss = tc.reduce_sum(tc.mul(x, c))
        backward(loss, tape)
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, [3.0, 4.0])
    # a constant loss reaches nothing, itself included
    with Tape() as tape:
        const = tc.reduce_sum(c)
        backward(const, tape)
    assert const.grad is None and c.grad is None


def test_constant_operands_get_no_gradient_product(monkeypatch):
    # a matrix's gradient is one np.matmul to an [n, n] result, and the
    # adjoint is mixed by M_k^T through np.matmul of the [n, n] matrix to
    # an [n, B*width] one: a constant matrix gets no such product, and an
    # adjoint is mixed only for an operand that needs it (not for constant
    # weights, state or x)
    operands, chain = _gru_operands(2, 6, 2, 3, 160)
    mats, x, h, weights, bias = operands
    w = rand((6, 3), 161)
    products, mixes, matmul = [], [], np.matmul

    def spy(a, *rest, **kw):
        out = matmul(a, *rest, **kw)
        (products if out.shape == (3, 3) else mixes).append(1)
        return out

    def step_grads(variable):
        # the gru_step record's adjoints with only `variable` variable
        variable.requires_grad = True
        with Tape() as tape:
            tc.gru_step(*operands)
        del products[:], mixes[:]
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", spy)
            g = tape.records[0].backward_fn(w.data)
        variable.requires_grad = False
        return g

    g = step_grads(x)  # x's adjoint needs one mix per gate
    assert g[0] is not None and all(t is None for t in g[1:])
    assert products == [] and len(mixes) == 2
    # the bias needs no product, and one mix per matrix: its reset block's
    # adjoint reads r h's, which the candidate sum's operand adjoint gives
    g = step_grads(bias)
    assert g[2] is not None and sum(t is not None for t in g) == 1
    assert products == [] and len(mixes) == 1
    g = step_grads(mats[1])  # a variable matrix: one product per gate
    assert g[-1] is not None and len(products) == 2

    x.requires_grad = True
    with Tape() as tape:
        backward(tc.reduce_sum(tc.mul(tc.gru_step(*operands), w)), tape)
    fused = x.grad.copy()
    x.grad = None
    with Tape() as tape:
        backward(tc.reduce_sum(tc.mul(unfused_gru_step(*chain), w)), tape)
    np.testing.assert_allclose(fused, x.grad, rtol=0, atol=1e-14)

    # attention with only the query variable: no bank or weight products
    operands = _score_operands(3, 2, 3, 4, 162)
    operands[0].requires_grad = True
    with Tape() as tape:
        tc.additive_attention(*operands)
    g = tape.records[0].backward_fn(np.ones((3, 4)))
    assert g[0] is not None and all(t is None for t in g[1:])

    a, b = rand((2, 3), 43), Tensor(rand((3, 2), 44).data, requires_grad=True)
    with Tape() as tape:
        tc.matmul(a, b)
    g_a, g_b = tape.records[0].backward_fn(np.ones((2, 2)))
    assert g_a is None
    np.testing.assert_array_equal(g_b, a.data.T @ np.ones((2, 2)))


def _op(rec) -> str:
    # each primitive's backward rule is a closure named "<op>.<locals>.bwd"
    return rec.backward_fn.__qualname__.split(".")[0]


def test_backward_writes_grad_to_leaves_only():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)
    with Tape() as tape:
        # x reaches the loss three ways: through x*w, through x*x, and directly
        s = tc.add(tc.mul(x, w), tc.mul(x, x))
        loss = tc.reduce_sum(tc.add(s, x))
        outputs = [rec.output for rec in tape.records]
        backward(loss, tape)
    assert len(outputs) == 5 and all(t.grad is None for t in outputs)
    np.testing.assert_array_equal(x.grad, [3.0 + 2.0 + 1.0, -1.0 + 4.0 + 1.0])
    np.testing.assert_array_equal(w.grad, [1.0, 2.0])


def test_backward_frees_each_adjoint_after_use():
    handed = []
    alive = []

    def keep_ref(a):
        def bwd(g):
            handed.append(weakref.ref(g))
            return (g * 1.0,)

        return tc._emit((a,), a.data.copy(), bwd)

    def probe(a):
        def bwd(g):
            alive.append(handed[0]() is not None)
            return (g,)

        return tc._emit((a,), a.data.copy(), bwd)

    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(tc.reduce_sum(keep_ref(probe(x))), tape)
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


# The pass adds a later contribution in place only into an adjoint it
# allocated itself; integer-valued operands make every sum exact, so any
# order of summation gives these gradients, and a write through an alias
# would not.

def test_backward_add_of_a_leaf_to_itself():
    # add hands back its output adjoint for both operands, the same array twice
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = Tensor([3.0, 5.0, -7.0])
    with Tape() as tape:
        backward(tc.reduce_sum(tc.mul(tc.add(x, x), w)), tape)
    np.testing.assert_array_equal(x.grad, [6.0, 10.0, -14.0])


def test_backward_aliased_adjoint_is_not_added_into():
    # y and z first receive add's one array; y's next contribution must
    # leave z's adjoint alone
    x = Tensor([1.0, 2.0], requires_grad=True)
    s1, s2, u, v = (Tensor(a) for a in ([2.0, 3.0], [5.0, -1.0], [1.0, 4.0], [-3.0, 2.0]))
    with Tape() as tape:
        y, z = tc.mul(x, s1), tc.mul(x, s2)
        late = tc.reduce_sum(tc.mul(y, v))
        loss = tc.add(late, tc.reduce_sum(tc.mul(tc.add(y, z), u)))
        backward(loss, tape)
    np.testing.assert_array_equal(x.grad, (u.data + v.data) * s1.data + u.data * s2.data)


def test_backward_reshape_view_adjoint():
    # y's adjoint sums three contributions, in place from the third; its
    # reshape hands x a view of it, and x then takes two more
    x = Tensor(np.arange(6.0), requires_grad=True)
    u, v, w = (Tensor(np.arange(6.0).reshape(2, 3) + k) for k in (1.0, -4.0, 2.0))
    p, q = Tensor(np.arange(6.0) - 2.0), Tensor(np.arange(6.0) * 3.0)
    with Tape() as tape:
        direct = [tc.mul(x, p), tc.mul(x, q)]
        y = tc.reshape(x, (2, 3))
        terms = [tc.mul(y, u), tc.mul(y, v), tc.mul(y, w)]
        loss = tc.add(tc.reduce_sum(tc.concat(terms, axis=0)),
                      tc.reduce_sum(tc.concat(direct, axis=0)))
        backward(loss, tape)
    expected = (u.data + v.data + w.data).reshape(-1) + p.data + q.data
    np.testing.assert_array_equal(x.grad, expected)


def test_backward_adds_row_adjoints_into_the_whole_input():
    # the bank reaches the loss only through two attention windows, which
    # hand back only their rows
    h, bank, _, _, w1, b, w2, v = _score_operands(3, 2, 3, 4, 210, requires_grad=True)
    u, weights = rand(bank.shape, 211), rand((3, 4), 213)

    def bank_grad(attend):
        bank.grad = None
        with Tape() as tape:
            terms = [tc.reduce_sum(tc.mul(attend(h, bank, start, 3, w1, b, w2, v)[0], weights))
                     for start in (0, 2)]
            backward(tc.add(*terms), tape)
        return bank.grad

    plain = bank_grad(unfused_attention)
    np.testing.assert_allclose(bank_grad(tc.additive_attention), plain, rtol=0,
                               atol=1e-14 * np.abs(plain).max())

    # an adjoint is held one way for the whole pass. Records replay last
    # first, so the term recorded second reaches the bank first; a
    # contribution of the other form then raises, in either order
    def window():
        return tc.reduce_sum(tc.mul(tc.additive_attention(h, bank, 0, 3, w1, b, w2, v)[0],
                                    weights))

    def product():
        return tc.reduce_sum(tc.mul(bank, u))

    bank.grad = None
    for first, second, held in ((window, product, "held whole"),
                                (product, window, "held as state rows")):
        with Tape() as tape:
            loss = tc.add(first(), second())
            with pytest.raises(ValueError, match=rf"\[5, 6, 4\] tensor is {held}"):
                backward(loss, tape)
        assert bank.grad is None


def _row_record(t, rows):
    # a record whose rule adds each (state, value) of rows into t's adjoint
    # state by state, in order
    def bwd(g):
        for s, value in rows:
            tc._add_row(t, s, np.full(t.shape[1:], value))
        return [None]

    return tc._emit((t,), np.zeros(1), bwd)


def test_state_rows_are_added_only_inside_backward():
    # outside a pass there is no adjoint to add a state row into, also
    # right after a pass whose backward rule raised
    bank = Tensor(np.zeros((3, 2)), requires_grad=True)
    with pytest.raises(RuntimeError, match="only inside backward"):
        tc._add_row(bank, 0, np.ones(2))

    def bwd(g):
        tc._add_row(bank, 1, np.ones(2))
        raise ValueError("rule failed")

    with Tape() as tape:
        loss = tc._emit((bank,), np.zeros(1), bwd)
    with pytest.raises(ValueError, match="rule failed"):
        backward(loss, tape)
    with pytest.raises(RuntimeError, match="only inside backward"):
        tc._add_row(bank, 0, np.ones(2))


def test_state_rows_reach_their_producer_by_state_or_assembled():
    # a producer recorded as reading its adjoint state by state gets one
    # array per state, zero where no row reached; any other gets one array
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    got = {}

    def producer(by_state):
        def bwd(g):
            got[by_state] = g
            return [None]

        return tc._emit((x,), x.data.copy(), bwd, by_state=by_state)

    for by_state in (False, True):
        with Tape() as tape:
            backward(_row_record(producer(by_state), [(0, 2.0), (2, 1.0), (0, 1.0)]), tape)
    assert type(got[True]) is list and len(got[True]) == 3
    np.testing.assert_array_equal(got[False], [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(np.stack(got[True]), got[False])


def _closed_over(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_backward_releases_each_record_before_earlier_ones_replay():
    # every decoder GRU step's kept [z | r] is freed with its record, before
    # the encoder's passes replay
    cfg, state, a_pre = _toy_state()
    r, d, w, _ = _default_window_batch(cfg, 2, 4, seed=0)
    seen = []

    def spy(fn):
        def bwd(g):
            seen.append([ref() is None for ref in kept])
            return fn(g)

        return bwd

    with Tape() as tape:
        loss = tc.reduce_mean(forward(state, r, d, w, a_pre=a_pre).predictions)
        kept = [weakref.ref(_closed_over(rec.backward_fn, "zr"))
                for rec in tape.records if _op(rec) == "gru_step"]
        for rec in tape.records:
            if _op(rec) == "gru_sequence":
                rec.backward_fn = spy(rec.backward_fn)
        del rec
        backward(loss, tape)
    assert len(kept) == 2 * cfg.Q and seen == [[True] * len(kept)] * 2


def test_backward_peak_holds_a_window_of_bank_states():
    # a taped step at the default window (P = Q = 12, S = 3, one daily and
    # one weekly block): above the end of its forward, the backward peaks at
    # most at the 2S+1 bank states one window reaches, one [R*G, d_h]
    # buffer and 8 states of slack for the other rules' temporaries (it
    # reads about 13). The bank's whole adjoint and a window copy, each as
    # one array, would add 25 states.
    cfg = ModelConfig(d_h=16, d_e=2, n_head=2)
    n, b = 32, 8
    r, d, w, _ = _default_window_batch(cfg, b, n, seed=0)
    state = init_model(cfg, n, 1, seed=0)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = tc.reduce_mean(forward(state, r, d, w, a_pre=np.full((n, n), 1.0 / n)).predictions)
            end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bank_state = n * b * (cfg.d_count + cfg.w_count) * cfg.d_h * 8
    assert peak - end <= (2 * cfg.S + 1 + 1 + 8) * bank_state


def test_reshape_is_a_view_and_routes_gradient():
    x = Tensor(np.arange(6.0), requires_grad=True)
    w = rand((2, 3), 5)
    with Tape() as tape:
        y = tc.reshape(x, (2, 3))
        backward(tc.reduce_sum(tc.mul(y, w)), tape)
    assert np.shares_memory(y.data, x.data)
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, w.data.reshape(-1))


def test_toy_model_step_leaves_no_intermediate_grad():
    cfg = ModelConfig(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1)
    b, n = 2, 4
    rng = np.random.default_rng(0)
    r = rng.standard_normal((b, cfg.P, n, 1))
    d = rng.standard_normal((b, cfg.d_count, cfg.block_len, n, 1))
    w = rng.standard_normal((b, cfg.w_count, cfg.block_len, n, 1))
    a_pre = np.full((n, n), 1.0 / n)
    state = init_model(cfg, n, 1, seed=0)
    with Tape() as tape:
        loss = tc.reduce_mean(forward(state, r, d, w, a_pre=a_pre).predictions)
        outputs = [rec.output for rec in tape.records]
        backward(loss, tape)
    assert outputs and all(t.grad is None for t in outputs)
    assert all(p.grad is not None for p in state.params.values())


def test_toy_model_step_grads_exactly_its_leaves():
    # of every tensor a toy step's records touch, only the parameters and
    # the target the caller built get a .grad; out.weight, used again twice
    # in a penalty, also sums the penalty's two contributions
    cfg, state, a_pre = _toy_state()
    r, d, w, y = _default_window_batch(cfg, 2, 4, seed=0)
    w_out = state.params["out.weight"]

    def step(penalty):
        for t in state.params.values():
            t.zero_grad()
        target = Tensor(y, requires_grad=True)
        with Tape() as tape:
            pred = forward(state, r, d, w, a_pre=a_pre).predictions
            loss = mae_loss(pred, target)
            if penalty:
                loss = tc.add(loss, tc.reduce_sum(tc.mul(w_out, w_out)))
            touched = {id(t): t for rec in tape.records for t in (rec.output, *rec.inputs)}
            backward(loss, tape)
        leaves = {id(t) for t in state.params.values()} | {id(target)}
        assert leaves <= touched.keys()
        assert {key for key, t in touched.items() if t.grad is not None} == leaves
        err = pred.data - y
        np.testing.assert_array_equal(target.grad, -np.sign(err) / err.size)
        return w_out.grad.copy()

    plain = step(False)
    np.testing.assert_allclose(step(True), plain + 2.0 * w_out.data, rtol=1e-12, atol=1e-15)


def test_a_tape_inside_another_raises_and_the_outer_keeps_recording():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as outer:
        y = tc.mul(x, x)
        with pytest.raises(RuntimeError, match="already recording"):
            with Tape():
                pass
        assert tc.recording()
        loss = tc.mul(y, x)
        assert len(outer) == 2
        backward(loss, outer)
    assert not tc.recording()
    np.testing.assert_array_equal(x.grad, [27.0])


# Structural guards on the decoder's tape: record counts, never timings.

def _toy_state():
    cfg = ModelConfig(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1)
    return cfg, init_model(cfg, 4, 1, seed=0), np.full((4, 4), 0.25)


def _dgc_gates(cfg, state, a_pre):
    return dgc_terms(state, pre_mix_mats(a_pre, cfg),
                     adaptive_mix_mats(state.embeddings(), cfg))


def test_dgcgru_cell_mixes_each_input_once_per_matrix(monkeypatch):
    # 2K non-identity matrices (K predefined powers, K adaptive), each
    # applied once per gate sum, to that sum's product: [x, h] W_k over the
    # [z | r] columns, then [x, r*h] W_k over the candidate's
    cfg, state, a_pre = _toy_state()
    gates = _dgc_gates(cfg, state, a_pre)
    x = Tensor(rand((8, cfg.d_h), 50).data, requires_grad=True)
    h = Tensor(rand((8, cfg.d_h), 51).data, requires_grad=True)
    mixed = []
    node_mix = tc._node_mix
    monkeypatch.setattr(tc, "_node_mix", lambda adj, rows, *out: mixed.append(
        (adj, rows.copy())) or node_mix(adj, rows, *out))
    with Tape() as tape:
        dgcgru_cell(gates, x, h)
    assert [_op(rec) for rec in tape.records] == ["gru_step"]
    assert len(mixed) == 4 * cfg.K
    # the two inputs gru_step forms: [x, h], then [x, r*h] with r the
    # right half of sigmoid(G_zr [x, h]), G_zr over the first 2 d_h columns
    zr_cols, c_cols = slice(None, 2 * cfg.d_h), slice(2 * cfg.d_h, None)
    zr = sigmoid(unfused_gate_sum(gates.mats, tc.concat([x, h], axis=1),
                                  [Tensor(w.data[:, zr_cols]) for w in gates.weights],
                                  Tensor(gates.bias.data[zr_cols]))).data
    inner = [np.concatenate([x.data, h.data], axis=1),
             np.concatenate([x.data, zr[:, cfg.d_h:] * h.data], axis=1)]
    for rows, cols, calls in zip(inner, (zr_cols, c_cols),
                                 (mixed[:2 * cfg.K], mixed[2 * cfg.K:])):
        assert [id(adj) for adj, _ in calls] == [id(m.data) for m in gates.mats[1:]]
        for (_, seen), w in zip(calls, gates.weights[1:]):
            np.testing.assert_array_equal(seen, rows @ w.data[:, cols])


def test_untaped_dgcgru_cell_peak_is_its_buffers():
    # an untaped DGC-GRU step at batch 8, N 32, d_h 64, K 2 with both
    # branches (4 matrices beside the identity) allocates its operand
    # buffer [x, h] (2 d_h wide), its gates [z | r] (2 d_h) and c (d_h),
    # its output (d_h) and two scratch buffers of its widest gate sum
    # (2 d_h each), and at most 32 KiB of numpy's small objects and ufunc
    # buffers besides. A gate sum that stacked its 4 products into one
    # [4N, B*w] buffer would add 4 * 2 d_h columns.
    cfg = ModelConfig(d_h=64, d_e=2, n_head=2, K=2)
    n, b = 32, 8
    state = init_model(cfg, n, 1, seed=0)
    gates = _dgc_gates(cfg, state, np.full((n, n), 1.0 / n))
    assert len(gates.mats) == 5
    x, h = rand((n * b, cfg.d_h), 52), rand((n * b, cfg.d_h), 53)
    dgcgru_cell(gates, x, h)
    tracemalloc.start()
    try:
        out = dgcgru_cell(gates, x, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = n * b * 8  # bytes of one column over every row
    d_h = cfg.d_h
    buffers = 2 * d_h + (2 * d_h + d_h) + d_h + 2 * (2 * d_h)
    assert out.shape == (n * b, d_h)
    assert peak <= buffers * column + 32 * 1024


def _eight_steps(cell, gates, x, h):
    with Tape() as tape:
        for _ in range(8):
            h = cell(gates, x, h)
    return [_op(rec) for rec in tape.records]


@pytest.mark.parametrize("no_pre, no_adp, records", [
    (False, False, 7), (True, False, 3), (False, True, 3), (True, True, 11)])
def test_dgc_terms_folds_each_hop_once(no_pre, no_adp, records):
    # at K=2 per active branch: 3 hop scales, each hop already one
    # [W_z | W_r | W_c] parameter, then one sum of the identity hops when
    # both branches are on; with both off, both branches' 6 hops stand in
    # for the identity (5 sums). Folding each gate apart took 27, 13 and
    # 35 records, and joining each hop and the bias per forward 14, 7 and
    # 18. Every scale reads a hop parameter itself, so the tape keeps no
    # [W_z | W_r | W_c] built per forward.
    cfg = ModelConfig(d_h=4, d_e=2, n_head=2, K=2, no_pre=no_pre, no_adp=no_adp)
    state = init_model(cfg, 3, 1, seed=0)
    pre = [] if no_pre else pre_mix_mats(np.full((3, 3), 1.0 / 3), cfg)
    adp = [] if no_adp else adaptive_mix_mats(state.embeddings(), cfg)
    with Tape() as tape:
        gates = dgc_terms(state, pre, adp)
    assert len(tape) == records
    params = {id(t) for t in state.params.values()}
    scales = [rec for rec in tape.records if _op(rec) == "mul"]
    assert len(scales) == (6 if no_pre == no_adp else 3)
    assert all(id(rec.inputs[0]) in params for rec in scales)
    assert gates.bias is state.params["dgc.bias"]
    assert len(gates.weights) == len(gates.mats) == 1 + len(pre[1:]) + len(adp[1:])
    assert all(w.shape == (2 * cfg.d_h, 3 * cfg.d_h) for w in gates.weights)


def test_dense_gru_cell_records_eight():
    # eight steps, eight records: a step is one gru_step record
    cfg, state, _ = _toy_state()
    x = Tensor(rand((8, 1), 52).data, requires_grad=True)
    h = Tensor(rand((8, cfg.d_h), 53).data, requires_grad=True)
    assert _eight_steps(gru_cell, state.gru("decoder"), x, h) == ["gru_step"] * 8


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("n_head", [2, 8])
def test_dgcgru_cell_records_eight(K, n_head):
    cfg = ModelConfig(d_h=4, d_e=2, n_head=n_head, K=K, P=3, Q=3, S=1)
    state = init_model(cfg, 4, 1, seed=0)
    gates = _dgc_gates(cfg, state, np.full((4, 4), 0.25))
    assert len(gates.mats) == 2 * K + 1
    x = Tensor(rand((8, cfg.d_h), 54).data, requires_grad=True)
    h = Tensor(rand((8, cfg.d_h), 55).data, requires_grad=True)
    assert _eight_steps(dgcgru_cell, gates, x, h) == ["gru_step"] * 8


def test_attention_step_pools_in_one_record():
    # window read, scores, weights, pooled context and residual: one record
    # over the whole bank, windowed or not
    cfg, state, _ = _toy_state()
    bank = Tensor(rand((cfg.Q + 2 * cfg.S, 16, cfg.d_h), 60).data, requires_grad=True)
    for no_window, n_off in ((False, 2 * cfg.S + 1), (True, 1)):
        cfg.no_window = no_window
        with Tape() as tape:
            _, weights = attention_step(rand((8, cfg.d_h), 59), bank, 1, cfg,
                                        state.attention())
        assert [_op(rec) for rec in tape.records] == ["additive_attention"]
        assert tape.records[0].inputs[-1] is bank and len(tape.records[0].inputs) == 6
        assert weights.shape == (8, 2 * n_off)


# One forward at the default window structure (P=Q=12, S=3, K=2, one daily
# and one weekly block) puts this many records on the tape when every gate
# mixes its own input and attention pools through per-candidate slices. The
# count does not depend on widths, node count or batch size.
PER_GATE_MIX_FORWARD_RECORDS = 4102


def test_forward_records_a_third_fewer_than_per_gate_mixing():
    cfg = ModelConfig(d_h=4, d_e=2, n_head=2)
    b, n = 1, 3
    rng = np.random.default_rng(0)
    r = rng.standard_normal((b, cfg.P, n, 1))
    d = rng.standard_normal((b, cfg.d_count, cfg.block_len, n, 1))
    w = rng.standard_normal((b, cfg.w_count, cfg.block_len, n, 1))
    state = init_model(cfg, n, 1, seed=0)
    with Tape() as tape:
        forward(state, r, d, w, a_pre=np.full((n, n), 1.0 / n))
    assert len(tape) < 0.7 * PER_GATE_MIX_FORWARD_RECORDS


def _default_window_batch(cfg, b, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((b, cfg.P, n, 1)),
            rng.standard_normal((b, cfg.d_count, cfg.block_len, n, 1)),
            rng.standard_normal((b, cfg.w_count, cfg.block_len, n, 1)),
            rng.standard_normal((b, cfg.Q, n, 1)))


def _encoder_records(d_count=1, w_count=1, P=3):
    cfg = ModelConfig(d_h=4, d_e=2, n_head=2, P=P, Q=2, S=1,
                      d_count=d_count, w_count=w_count)
    r, d, w, _ = _default_window_batch(cfg, 2, 3, seed=0)
    state = init_model(cfg, 3, 1, seed=0)
    with Tape() as tape:
        encode(state, r, d, w)
    return len(tape)


def test_encoder_records_do_not_grow_with_block_count():
    # every daily and weekly block runs in the same stacked pass
    assert _encoder_records(1, 1) == _encoder_records(2, 3)


def test_encoder_records_do_not_grow_with_window_length():
    # each pass is one gru_sequence record however many steps it runs: the
    # R pass and its reshape, the block pass
    assert _encoder_records(P=3) == _encoder_records(P=12) == 3


def _untaped_encode_peak(P):
    # the peak bytes an untaped encode allocates, and its window's bytes
    cfg = ModelConfig(d_h=64, d_e=2, n_head=2, P=P, Q=12, S=3)
    r, d, w, _ = _default_window_batch(cfg, 8, 32, seed=0)
    state = init_model(cfg, 32, 1, seed=0)
    tracemalloc.start()
    try:
        _, window = encode(state, r, d, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, window.at(0)[0].data.nbytes


def test_untaped_encode_keeps_no_state_before_the_bank():
    # a forward-only pass keeps no state before the 2S+1 of step 0's
    # window, which it returns: at P=12 the 9 block states before the
    # window and the 11 R states before the last would add about 14
    # states. The rest of the peak is one step's working set ([x, h],
    # [z | r], [x, r h] and c, about 4.5 states), the last R state and
    # the inputs; no zero initial state is held beside them.
    state_bytes = 8 * 32 * 2 * 64 * 8
    peak, window_bytes = _untaped_encode_peak(12)
    assert window_bytes == (2 * 3 + 1) * state_bytes
    assert peak < window_bytes + 7 * state_bytes
    assert peak < _untaped_encode_peak(3)[0] + state_bytes


def test_streamed_bank_step_allocates_no_block_state():
    # `at` copies the newest state into the oldest slot of its ring and
    # runs the block step there in place: one step allocates its gates
    # [z | r] and c (3 states) and an operand buffer [x, h] (65/64 of a
    # state), and under one state of numpy working space, but no state.
    # Running the step into a fresh state made it about 5.5.
    cfg = ModelConfig(d_h=64, d_e=2, n_head=2, P=12, Q=12, S=3)
    r, d, w, _ = _default_window_batch(cfg, 8, 32, seed=0)
    state = init_model(cfg, 32, 1, seed=0)
    _, window = encode(state, r, d, w)
    window.at(0)
    rows = 8 * 32 * 2
    state_bytes, buf_bytes = rows * cfg.d_h * 8, rows * (1 + cfg.d_h) * 8
    tracemalloc.start()
    try:
        window.at(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buf_bytes + 4 * state_bytes


def _adaptive_records(n_head):
    cfg = ModelConfig(d_h=4, d_e=2, n_head=n_head)
    state = init_model(cfg, 3, 1, seed=0)
    with Tape() as tape:
        adaptive_mix_mats(state.embeddings(), cfg)
    return len(tape)


def test_adaptive_mix_mats_records_do_not_grow_with_heads():
    # every head rides in one stacked tensor: 6 records build the
    # adjacency stack, then one power matmul and a 3-record head mean
    # per power (K=2)
    assert _adaptive_records(2) == _adaptive_records(8) == 13


# One forward plus loss at the default window structure (P=Q=12, S=3, K=2,
# 8 heads, one daily and one weekly block) put 2,734 records on the tape
# when each block had its own encoder pass and attention scored each
# block's candidates apart, 2,003 when the adaptive adjacency was built
# one head at a time, and 1,920 when a dense GRU step took 16 records and
# a DGC-GRU step 47, 1,042 when attention took 38 records a step, 634
# when a GRU step took 8 records and attention 4, and 159 with one record
# per GRU step and per attention step, and 123 with one record per
# encoder pass. Stacking the forecast with one concat, reshape and
# transpose instead of a reshape per step makes it 113, and one weight
# [W_z | W_r | W_c] per mixing matrix, with each DGC hop folded once for
# all three gates, 100, and 89 when those joined weights are the
# parameters rather than joined per forward; the budget allows 4% more.
# The count does not depend on widths, node count or batch size.
FUSED_STEP_RECORDS = 92


def test_forward_and_loss_record_budget_at_default_windows():
    cfg = ModelConfig(d_h=4, d_e=2)
    r, d, w, y = _default_window_batch(cfg, 1, 3, seed=0)
    state = init_model(cfg, 3, 1, seed=0)
    with Tape() as tape:
        pred = forward(state, r, d, w, a_pre=np.full((3, 3), 1.0 / 3)).predictions
        mae_loss(pred, Tensor(y))
    assert len(tape) <= FUSED_STEP_RECORDS


def test_tape_determinism_bitwise():
    def run():
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        w = Tensor(np.linspace(0.5, 1.5, 8).reshape(4, 2), requires_grad=True)
        with Tape() as tape:
            y = tanh(tc.matmul(x, w))
            backward(tc.reduce_sum(tc.mul(y, y)), tape)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_backward_linearity():
    alpha, beta = 1.7, -0.6
    base = rand((5,), 80)

    def grads_of(scale_f, scale_g):
        x = Tensor(base.data.copy(), requires_grad=True)
        with Tape() as tape:
            f = tc.reduce_sum(sigmoid(x))
            g = tc.reduce_sum(tc.mul(x, x))
            loss = tc.add(
                tc.mul(f, Tensor([scale_f])), tc.mul(g, Tensor([scale_g]))
            )
            backward(loss, tape)
        return x.grad.copy()

    combined = grads_of(alpha, beta)
    separate = alpha * grads_of(1.0, 0.0) + beta * grads_of(0.0, 1.0)
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12)
