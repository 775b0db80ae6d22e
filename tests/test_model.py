"""Model tests: cells, attention, graph convolution, full forward, checkpoints."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from trafficast import tensor as tc
from trafficast.data import DataError, DatasetSpec, tensor_blob
from trafficast.graph import GraphSpec, NodeEmbeddings, build_predefined, init_embeddings, row_normalize
from trafficast.model import (
    GATES,
    AttentionParams,
    GruGates,
    ModelConfig,
    ModelError,
    adaptive_mix_mats,
    attention_step,
    conv_terms,
    dgc_terms,
    dgcgru_cell,
    encode,
    forward,
    gate_blocks,
    gru_cell,
    init_model,
    load_checkpoint,
    pre_mix_mats,
    save_checkpoint,
)
from trafficast.tensor import ShapeError, Tape, Tensor, backward, finite_diff_check

import reference_model
from test_tensor import _op, unfused_gate_sum


def _toy_cfg(**kw):
    base = dict(d_h=8, d_e=3, n_head=2, K=2, P=3, Q=3, S=1)
    base.update(kw)
    return ModelConfig(**base)


def _toy_batch(cfg, b=2, n=4, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((b, cfg.P, n, c)),
        rng.standard_normal((b, cfg.d_count, cfg.block_len, n, c)),
        rng.standard_normal((b, cfg.w_count, cfg.block_len, n, c)),
        rng.standard_normal((b, cfg.Q, n, c)),
    )


def _ring_adjacency(n):
    spec = GraphSpec(n, [(i, (i + 1) % n, 1.0) for i in range(n)], kappa=1.0, sigma=1.0)
    return row_normalize(build_predefined(spec)).matrix.data


# --- config validation -------------------------------------------------------

def test_config_defaults():
    cfg = ModelConfig()
    assert (cfg.S, cfg.d_count, cfg.w_count) == (3, 1, 1)
    assert (cfg.w_pre, cfg.w_adp) == (0.1, 0.9)
    assert cfg.n_head == 8 and cfg.K == 2
    assert cfg.order == "attention_then_dgc"


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_head=0),
        dict(K=0),
        dict(d_h=0),
        dict(w_pre=-0.1),
        dict(P=2, S=3),
        dict(order="sideways"),
        dict(d_count=0),
    ],
)
def test_config_rejects(kw):
    with pytest.raises(ModelError):
        ModelConfig(**kw)


@pytest.mark.parametrize("cls, error", [(DatasetSpec, DataError), (ModelConfig, ModelError)])
@pytest.mark.parametrize("field, value, bound", [
    ("P", 0, 1), ("Q", 0, 1), ("S", -1, 0), ("d_count", 0, 1), ("w_count", 0, 1),
])
def test_window_rules_name_field_and_bound(cls, error, field, value, bound):
    # one rule for both classes: the message names the field and its bound
    with pytest.raises(error) as exc:
        cls(**{field: value})
    assert str(exc.value) == f"{field} must be >= {bound}, got {value}"


# --- gru_cell ----------------------------------------------------------------

def _dense_gates(wz, bz, wr, br, wc, bc):
    return GruGates([None], [tc.concat([wz, wr, wc], axis=1)], tc.concat([bz, br, bc], axis=0))


def _zero_gru(d_in, d_h):
    z = lambda *s: Tensor(np.zeros(s))
    return _dense_gates(
        wz=z(d_in, d_h), bz=z(d_h), wr=z(d_in, d_h), br=z(d_h),
        wc=z(d_in, d_h), bc=z(d_h),
    )


def test_gru_zero_everything_gives_zero():
    params = _zero_gru(2 + 3, 3)
    h = gru_cell(params, Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))))
    np.testing.assert_array_equal(h.data, 0.0)


def test_gru_output_bounded_by_state_and_one():
    rng = np.random.default_rng(2)
    d_in, d_h = 5, 6
    params = _dense_gates(*[
        Tensor(rng.standard_normal((d_in + d_h, d_h) if i % 2 == 0 else d_h))
        for i in range(6)
    ])
    x = Tensor(rng.standard_normal((7, d_in)))
    h = Tensor(rng.uniform(-0.99, 0.99, size=(7, d_h)))
    out = gru_cell(params, x, h).data
    bound = np.maximum(np.abs(h.data), 1.0)
    assert np.all(np.abs(out) <= bound)


def test_gru_matches_textbook_equations():
    # z and r come from separate weights joined column-wise; a swapped
    # half would feed r into the state mix and z into r*h
    rng = np.random.default_rng(4)
    d_in, d_h = 3, 4
    wz, wr, wc = (rng.standard_normal((d_in + d_h, d_h)) for _ in range(3))
    bz, br, bc = (rng.standard_normal(d_h) for _ in range(3))
    x, h = rng.standard_normal((5, d_in)), rng.standard_normal((5, d_h))
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    z = sig(np.concatenate([x, h], axis=1) @ wz + bz)
    r = sig(np.concatenate([x, h], axis=1) @ wr + br)
    c = np.tanh(np.concatenate([x, r * h], axis=1) @ wc + bc)
    out = gru_cell(_dense_gates(*map(Tensor, (wz, bz, wr, br, wc, bc))), Tensor(x), Tensor(h))
    np.testing.assert_allclose(out.data, (1.0 - z) * h + z * c, rtol=0, atol=1e-14)


def test_gru_width_mismatch_rejected():
    params = _zero_gru(5, 3)
    with pytest.raises(ShapeError, match="width"):
        gru_cell(params, Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))))


def test_gru_three_chained_cells_gradient():
    rng = np.random.default_rng(3)
    d_in, d_h = 2, 4
    fixed = {
        name: Tensor(rng.standard_normal((d_in + d_h, d_h) if name.startswith("w") else d_h),
                     requires_grad=True)
        for name in ("wz", "bz", "wr", "br", "wc", "bc")
    }
    xs = [Tensor(rng.standard_normal((3, d_in))) for _ in range(3)]

    def run(params):
        h = Tensor(np.zeros((3, d_h)))
        for x in xs:
            h = gru_cell(params, x, h)
        return tc.reduce_sum(tc.mul(h, h))

    for name in ("wz", "wc", "br"):
        rep = finite_diff_check(lambda t: run(_dense_gates(**{**fixed, name: t})),
                                fixed[name], tol=1e-5)
        assert rep.passed, f"{name}: rel error {rep.max_rel_error}"

    x_var = Tensor(rng.standard_normal((3, d_in)), requires_grad=True)

    def run_input(x0):
        h = Tensor(np.zeros((3, d_h)))
        for x in (x0, xs[1], xs[2]):
            h = gru_cell(_dense_gates(**fixed), x, h)
        return tc.reduce_sum(tc.mul(h, h))

    rep = finite_diff_check(run_input, x_var, tol=1e-5)
    assert rep.passed, f"input: rel error {rep.max_rel_error}"


# --- encode ------------------------------------------------------------------

def test_encode_bank_counts_and_lengths():
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=1)
    r, d, w, _ = _toy_batch(cfg)
    with Tape():
        h, bank = encode(state, r, d, w)
    assert h.shape == (2 * 4, cfg.d_h)
    # one tensor of the Q+2S states attention reads, each stacking one
    # daily and one weekly block for every (node, batch) row
    assert bank.shape == (cfg.Q + 2 * cfg.S, 2 * 4 * 2, cfg.d_h)
    # a forward-only pass keeps the 2S+1 states of one decoder step's
    # window, a ring whose offset 0 moves on one slot per decoder step
    h, window = encode(state, r, d, w)
    assert h.shape == (2 * 4, cfg.d_h)
    states, start = window.at(0)
    assert states.shape == (2 * cfg.S + 1, 2 * 4 * 2, cfg.d_h) and start == 0
    states, start = window.at(cfg.Q - 1)
    assert states.shape == (2 * cfg.S + 1, 2 * 4 * 2, cfg.d_h)
    assert start == (cfg.Q - 1) % (2 * cfg.S + 1)
    with pytest.raises(ModelError, match="cannot return"):
        window.at(0)


def test_streamed_window_rewrites_one_slot_per_step():
    # each decoder step writes the next block state into the slot of the
    # oldest and moves offset 0 on by one slot; the other 2S states keep
    # their bytes (a slide would rewrite every slot)
    cfg = _toy_cfg(S=2, Q=4)
    state = init_model(cfg, 4, 1, seed=1)
    r, d, w, _ = _toy_batch(cfg)
    _, window = encode(state, r, d, w)
    ring, start = window.at(0)
    for t in range(1, cfg.Q):
        before = ring.data.copy()
        ring_t, start_t = window.at(t)
        assert ring_t is ring and start_t == (start + 1) % len(before)
        changed = [slot for slot in range(len(before))
                   if not np.array_equal(ring.data[slot], before[slot])]
        assert changed == [start]
        start = start_t


def _per_block_states(state, cfg, blocks, b, n):
    # each block's states at every position, from a separate GRU pass over
    # it, in node-major rows (row n*B + b)
    enc = state.gru("encoder")
    per_block = []
    for source in blocks:
        h, states = Tensor(np.zeros((n * b, cfg.d_h))), []
        for pos in range(cfg.block_len):
            x = np.ascontiguousarray(source[:, pos].transpose(1, 0, 2)).reshape(n * b, 1)
            h = gru_cell(enc, Tensor(x), h)
            states.append(h.data)
        per_block.append(states)
    return per_block


def test_encode_stacked_bank_matches_per_block_passes():
    # row (n*B + b)*G + g of bank state j is block g's state at position P-S+j,
    # as a separate GRU pass over that block alone computes it; so is row
    # (n*B + b)*G + g of window offset k of decoder step t's streamed ring,
    # in slot (start + k) mod (2*half+1), at position P+t-half+k, with and
    # without windowing
    b, n, g = 2, 4, 5
    for no_window in (False, True):
        cfg = _toy_cfg(d_count=2, w_count=3, no_window=no_window)
        state = init_model(cfg, n, 1, seed=1)
        r, d, w, _ = _toy_batch(cfg, b=b, n=n)
        with Tape():
            _, bank = encode(state, r, d, w)
        _, window = encode(state, r, d, w)
        per_block = _per_block_states(state, cfg, [d[:, i] for i in range(2)]
                                      + [w[:, i] for i in range(3)], b, n)
        for block, states in enumerate(per_block):
            for pos, h in enumerate(states):
                j = pos - (cfg.P - cfg.S)
                if j >= 0:
                    np.testing.assert_allclose(
                        bank.data[j].reshape(n * b, g, cfg.d_h)[:, block],
                        h, rtol=0, atol=1e-14)
        half = 0 if no_window else cfg.S
        for t in range(cfg.Q):
            ring, start = window.at(t)
            slots = ring.data.reshape(2 * half + 1, n * b, g, cfg.d_h)
            for block, states in enumerate(per_block):
                for k in range(2 * half + 1):
                    slot = (start + k) % (2 * half + 1)
                    np.testing.assert_allclose(slots[slot, :, block],
                                               states[cfg.P + t - half + k],
                                               rtol=0, atol=1e-14)


def test_encode_no_period_empty_banks():
    cfg = _toy_cfg(no_period=True)
    state = init_model(cfg, 4, 1, seed=1)
    r, d, w, _ = _toy_batch(cfg)
    h, bank = encode(state, r, d, w)
    assert bank is None
    assert h.shape == (8, cfg.d_h)


def test_encode_deterministic():
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=1)
    r, d, w, _ = _toy_batch(cfg)
    with Tape():
        h1, bank1 = encode(state, r, d, w)
        h2, bank2 = encode(state, r, d, w)
    np.testing.assert_array_equal(h1.data, h2.data)
    np.testing.assert_array_equal(bank1.data, bank2.data)
    (h3, window3), (h4, window4) = encode(state, r, d, w), encode(state, r, d, w)
    np.testing.assert_array_equal(h3.data, h1.data)
    np.testing.assert_array_equal(h3.data, h4.data)
    for t in range(cfg.Q):
        (ring3, start3), (ring4, start4) = window3.at(t), window4.at(t)
        assert start3 == start4
        np.testing.assert_array_equal(ring3.data, ring4.data)


def test_encode_rejects_wrong_block_count():
    cfg = _toy_cfg(d_count=2)
    state = init_model(cfg, 4, 1, seed=1)
    r, d, w, _ = _toy_batch(cfg)
    with pytest.raises(ShapeError, match="daily"):
        encode(state, r, d[:, :1], w)


# --- attention ---------------------------------------------------------------

def _rand_attention(d_h, rng):
    return AttentionParams(
        w1=Tensor(rng.standard_normal((d_h, d_h))),
        w2=Tensor(rng.standard_normal((d_h, d_h))),
        b=Tensor(rng.standard_normal(d_h)),
        v=Tensor(rng.standard_normal(d_h)),
    )


def _rand_bank(cfg, rows, d_h, rng):
    """The bank `encode` returns: Q+2S stacked states, [Q+2S, rows*G, d_h]."""
    n_blocks = cfg.d_count + cfg.w_count
    return Tensor(rng.standard_normal((cfg.Q + 2 * cfg.S, rows * n_blocks, d_h)))


def test_attention_candidate_count_default_windows():
    # |d| = |w| = 1 and S = 3: 2 banks x 7 window positions = 14 candidates
    cfg = ModelConfig(d_h=2, P=3, Q=2, S=3)
    rng = np.random.default_rng(4)
    bank = _rand_bank(cfg, 6, 2, rng)
    a, weights = attention_step(Tensor(rng.standard_normal((6, 2))), bank, 0, cfg,
                                _rand_attention(2, rng))
    assert weights.shape == (6, 14)
    assert a.shape == (6, 2)


def test_attention_no_window_single_position():
    cfg = ModelConfig(d_h=2, P=3, Q=2, S=3, no_window=True)
    rng = np.random.default_rng(4)
    bank = _rand_bank(cfg, 6, 2, rng)
    _, weights = attention_step(Tensor(rng.standard_normal((6, 2))), bank, 1, cfg,
                                _rand_attention(2, rng))
    assert weights.shape == (6, 2)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(5)
    for trial in range(25):
        s = int(rng.integers(0, 3))
        cfg = ModelConfig(
            d_h=3, P=3, Q=2, S=s,
            no_window=bool(rng.integers(0, 2)),
        )
        bank = _rand_bank(cfg, 4, 3, rng)
        t = int(rng.integers(0, cfg.Q))
        _, weights = attention_step(Tensor(rng.standard_normal((4, 3))), bank, t,
                                    cfg, _rand_attention(3, rng))
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-9)


def test_attention_identical_bank_states_add_residually():
    # every candidate equals u, so the context is u for any weights
    cfg = ModelConfig(d_h=3, P=2, Q=2, S=2)
    rng = np.random.default_rng(6)
    u = rng.standard_normal((5, 3))
    bank = Tensor(np.tile(np.repeat(u, 2, axis=0), (cfg.Q + 2 * cfg.S, 1, 1)))
    h_t = Tensor(rng.standard_normal((5, 3)))
    a, _ = attention_step(h_t, bank, 1, cfg, _rand_attention(3, rng))
    np.testing.assert_allclose(a.data, h_t.data + u, atol=1e-9)


def test_attention_planted_match_dominates():
    # one candidate scores 5, the other 13 score 0: its softmax weight is
    # e^5 / (e^5 + 13) which clears 0.9
    cfg = ModelConfig(d_h=1, P=3, Q=1, S=3)
    params = AttentionParams(
        w1=Tensor([[0.0]]),
        w2=Tensor([[3.0]]),
        b=Tensor([0.0]),
        v=Tensor([5.0]),
    )
    # one row, two blocks: bank state t+S is block position P+t, and its
    # row 0 is the daily block's state
    bank = Tensor(np.zeros((cfg.Q + 2 * cfg.S, 2, 1)))
    bank.data[cfg.S] = [[10.0], [0.0]]  # tanh(30) == 1.0 -> score 5
    h_t = Tensor([[0.5]])
    a, weights = attention_step(h_t, bank, 0, cfg, params)
    expected = math.exp(5.0) / (math.exp(5.0) + 13.0)
    assert weights.data[0, 3] == pytest.approx(expected, abs=1e-12)
    assert weights.data[0, 3] > 0.9
    assert a.data[0, 0] == pytest.approx(0.5 + weights.data[0, 3] * 10.0, abs=1e-9)


def test_attention_no_period_passthrough():
    cfg = ModelConfig(d_h=3, P=3, Q=2, S=1, no_period=True)
    rng = np.random.default_rng(7)
    h_t = Tensor(rng.standard_normal((4, 3)))
    a, weights = attention_step(h_t, None, 0, cfg, _rand_attention(3, rng))
    assert a is h_t
    assert weights is None


def test_attention_step_out_of_range():
    cfg = ModelConfig(d_h=2, P=3, Q=2, S=1)
    rng = np.random.default_rng(8)
    bank = _rand_bank(cfg, 2, 2, rng)
    with pytest.raises(ModelError, match="out of range"):
        attention_step(Tensor(np.zeros((2, 2))), bank, 2, cfg, _rand_attention(2, rng))


def test_attention_never_mixes_nodes():
    # perturbing node 1's bank rows leaves every other row of a_t bitwise
    # unchanged (rows are (node, batch) pairs; node j occupies rows j*b + bi,
    # and bank rows (j*b + bi)*G + g)
    cfg = ModelConfig(d_h=3, P=3, Q=2, S=2)
    rng = np.random.default_rng(9)
    b, n, g = 2, 3, 2
    rows = b * n
    bank = _rand_bank(cfg, rows, 3, rng)
    params = _rand_attention(3, rng)
    h_t = Tensor(rng.standard_normal((rows, 3)))
    a1, _ = attention_step(h_t, bank, 0, cfg, params)

    target_rows = [1 * b + bi for bi in range(b)]
    bank2 = Tensor(bank.data.copy())
    bank2.data[:, [r * g + gi for r in target_rows for gi in range(g)]] += 0.77
    a2, _ = attention_step(h_t, bank2, 0, cfg, params)
    untouched = [i for i in range(rows) if i not in target_rows]
    np.testing.assert_array_equal(a1.data[untouched], a2.data[untouched])
    assert np.any(a1.data[target_rows] != a2.data[target_rows])


# --- double graph convolution --------------------------------------------------

def _identity_gate(d_in, d_h, hops_pre, hops_adp):
    return [Tensor(m) for m in hops_pre], [Tensor(m) for m in hops_adp]


def _graph_conv(x, folded):
    """sum_k (M_k x) W_k over one gate's conv_terms, for x [N*B, d_in]."""
    mats, weights = folded
    return unfused_gate_sum(mats, x, weights, Tensor(np.zeros(weights[0].shape[1])))


def test_dgc_identity_adjacency_half_weights_reproduce_input():
    # A = I, K = 1, W0 = W1 = I/2, predefined branch only at weight 1.0
    cfg = _toy_cfg(d_h=2, K=1, n_head=1, w_pre=1.0, no_adp=True)
    eye = np.eye(2)
    gate = _identity_gate(2, 2, [eye / 2, eye / 2], [])
    x = Tensor(np.random.default_rng(10).standard_normal((2, 3, 2)).reshape(6, 2))
    mats = pre_mix_mats(np.eye(3), cfg)
    out = _graph_conv(x, conv_terms(mats, [], *gate, cfg))
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_dgc_one_hop_swaps_two_nodes():
    # A = [[0,1],[1,0]], W0 = 0, W1 = I: output rows are the swapped inputs
    cfg = _toy_cfg(d_h=2, K=1, n_head=1, w_pre=1.0, no_adp=True)
    gate = _identity_gate(2, 2, [np.zeros((2, 2)), np.eye(2)], [])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])  # one batch, nodes e0 and e1
    a_pre = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = _graph_conv(Tensor(x), conv_terms(pre_mix_mats(a_pre, cfg), [], *gate, cfg))
    np.testing.assert_allclose(out.data, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_dgc_head_mean_matches_single_head():
    # two heads with identical embeddings produce the single-head output
    rng = np.random.default_rng(11)
    n, d_e, d_h = 3, 2, 2
    one = init_embeddings(n, 1, d_e, np.random.default_rng(12))
    e1 = np.repeat(one.e1.data, 2, axis=1)
    e2 = np.repeat(one.e2.data, 2, axis=1)
    two = NodeEmbeddings(Tensor(e1, requires_grad=True), Tensor(e2, requires_grad=True))

    cfg1 = _toy_cfg(d_h=d_h, d_e=d_e, K=2, n_head=1, no_pre=True, w_adp=1.0)
    cfg2 = _toy_cfg(d_h=d_h, d_e=d_e, K=2, n_head=2, no_pre=True, w_adp=1.0)
    hops = [rng.standard_normal((d_h, d_h)) for _ in range(3)]
    gate = _identity_gate(d_h, d_h, [], hops)
    x = Tensor(rng.standard_normal((2, n, d_h)).reshape(2 * n, d_h))

    out1 = _graph_conv(x, conv_terms([], adaptive_mix_mats(one, cfg1), *gate, cfg1))
    out2 = _graph_conv(x, conv_terms([], adaptive_mix_mats(two, cfg2), *gate, cfg2))
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_dgc_fusion_weights_scale_linearly():
    rng = np.random.default_rng(13)
    n, d_h = 3, 2
    emb = init_embeddings(n, 2, 2, rng)
    hops_pre = [rng.standard_normal((d_h, d_h)) for _ in range(3)]
    hops_adp = [rng.standard_normal((d_h, d_h)) for _ in range(3)]
    gate = _identity_gate(d_h, d_h, hops_pre, hops_adp)
    x = Tensor(rng.standard_normal((2, n, d_h)).reshape(2 * n, d_h))
    a_pre = _ring_adjacency(n)

    cfg = _toy_cfg(d_h=d_h, d_e=2, n_head=2, w_pre=0.1, w_adp=0.9)
    cfg2 = _toy_cfg(d_h=d_h, d_e=2, n_head=2, w_pre=0.2, w_adp=1.8)
    out = _graph_conv(x, conv_terms(
        pre_mix_mats(a_pre, cfg), adaptive_mix_mats(emb, cfg), *gate, cfg))
    out2 = _graph_conv(x, conv_terms(
        pre_mix_mats(a_pre, cfg2), adaptive_mix_mats(emb, cfg2), *gate, cfg2))
    np.testing.assert_array_equal(out2.data, 2.0 * out.data)


def test_dgc_gradients_into_hops_and_embeddings():
    rng = np.random.default_rng(14)
    n, d_h = 3, 2
    cfg = _toy_cfg(d_h=d_h, d_e=2, n_head=2, K=2)
    emb = init_embeddings(n, 2, 2, rng)
    a_pre = _ring_adjacency(n)
    x = Tensor(rng.standard_normal((2, n, d_h)).reshape(2 * n, d_h))
    hops_pre = [Tensor(rng.standard_normal((d_h, d_h)), requires_grad=True) for _ in range(3)]
    hops_adp = [Tensor(rng.standard_normal((d_h, d_h)), requires_grad=True) for _ in range(3)]

    def loss_wrt(tensor, rebuild):
        def f(t):
            pre, adp = rebuild(t)
            out = _graph_conv(x, conv_terms(
                pre_mix_mats(a_pre, cfg), adaptive_mix_mats(emb, cfg), pre, adp, cfg))
            return tc.reduce_sum(tc.mul(out, out))
        return finite_diff_check(f, tensor, tol=1e-5)

    rep = loss_wrt(hops_pre[1], lambda t: ([hops_pre[0], t, hops_pre[2]], hops_adp))
    assert rep.passed, rep.max_rel_error
    rep = loss_wrt(hops_adp[2], lambda t: (hops_pre, [hops_adp[0], hops_adp[1], t]))
    assert rep.passed, rep.max_rel_error

    def f_emb(e1):
        mats = adaptive_mix_mats(NodeEmbeddings(e1, emb.e2), cfg)
        out = _graph_conv(x, conv_terms(
            pre_mix_mats(a_pre, cfg), mats, hops_pre, hops_adp, cfg))
        return tc.reduce_sum(tc.mul(out, out))

    rep = finite_diff_check(f_emb, emb.e1, tol=1e-5)
    assert rep.passed, rep.max_rel_error


# --- dgcgru cell ---------------------------------------------------------------

def test_dgcgru_zero_params_zero_state():
    cfg = _toy_cfg(d_h=4, no_pre=True, no_adp=True)
    state = init_model(cfg, 3, 1, seed=15)
    for name, t in state.named_parameters():
        if name.startswith("dgc."):
            t.data[...] = 0.0
    x = Tensor(np.random.default_rng(16).standard_normal((2, 3, 4)).reshape(6, 4))
    h = Tensor(np.zeros((6, 4)))
    out = dgcgru_cell(dgc_terms(state, [None] * 3, [None] * 3), x, h)
    np.testing.assert_array_equal(out.data, 0.0)


def _probe_params(params, name, probe):
    """params with the probe standing in for gate block `name`: its GRU
    tensor joined again around the probe, by this test's own slicing."""
    parts = name.split(".")
    if parts[1] not in GATES:
        return {**params, name: probe}
    joined = ".".join(parts[:1] + parts[2:])
    data, i = params[joined].data, GATES.index(parts[1])
    width = data.shape[-1] // len(GATES)
    cols = [Tensor(data[..., :i * width]), probe, Tensor(data[..., (i + 1) * width:])]
    return {**params, joined: tc.concat(cols, axis=-1)}


def test_dgcgru_two_step_gradient():
    cfg = _toy_cfg(d_h=4, d_e=2, n_head=2, K=1)
    state = init_model(cfg, 3, 1, seed=17)
    rng = np.random.default_rng(18)
    a_pre = _ring_adjacency(3)
    x1 = Tensor(rng.standard_normal((2, 3, 4)).reshape(6, 4))
    x2 = Tensor(rng.standard_normal((2, 3, 4)).reshape(6, 4))

    def run():
        gates = dgc_terms(state, pre_mix_mats(a_pre, cfg),
                          adaptive_mix_mats(state.embeddings(), cfg))
        h = Tensor(np.zeros((6, 4)))
        h = dgcgru_cell(gates, x1, h)
        h = dgcgru_cell(gates, x2, h)
        return tc.reduce_sum(tc.mul(h, h))

    for name in ("dgc.update.pre.hop1", "dgc.cand.adp.hop0", "embed.e1", "dgc.reset.bias"):
        original = state.params

        def f(t):
            # the probe stands in for the block, so its gradient is checked
            state.params = _probe_params(original, name, t)
            try:
                return run()
            finally:
                state.params = original

        rep = finite_diff_check(f, Tensor(_blocks(state)[name].copy()), tol=1e-5)
        assert rep.passed, f"{name}: rel error {rep.max_rel_error}"
        assert np.abs(rep.analytic).max() > 0, name


def test_dgcgru_identity_isolation():
    # predefined = identity, adaptive off: node 2's input cannot reach node 0
    cfg = _toy_cfg(d_h=4, no_adp=True, w_pre=1.0)
    state = init_model(cfg, 3, 1, seed=19)
    rng = np.random.default_rng(20)
    # rows are node-major: [N, B, d] reshaped, node n in rows n*B .. n*B + B-1
    x = rng.standard_normal((3, 2, 4))
    h = Tensor(rng.standard_normal((3, 2, 4)).reshape(6, 4))
    gates = dgc_terms(state, pre_mix_mats(np.eye(3), cfg), [])
    out1 = dgcgru_cell(gates, Tensor(x.reshape(6, 4)), h).data.reshape(3, 2, 4)
    x2 = x.copy()
    x2[2] += 1.5
    out2 = dgcgru_cell(gates, Tensor(x2.reshape(6, 4)), h).data.reshape(3, 2, 4)
    np.testing.assert_array_equal(out1[:2], out2[:2])
    assert np.any(out1[2] != out2[2])


# --- full forward ---------------------------------------------------------------

def test_forward_output_shape():
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=21)
    r, d, w, _ = _toy_batch(cfg)
    trace = forward(state, r, d, w, a_pre=_ring_adjacency(4))
    assert trace.predictions.shape == (2, cfg.Q, 4, 1)
    assert len(trace.attention_weights) == cfg.Q
    for wt in trace.attention_weights:
        np.testing.assert_allclose(wt.data.sum(axis=1), 1.0, atol=1e-9)


def test_forward_single_step_horizon():
    cfg = _toy_cfg(Q=1)
    state = init_model(cfg, 4, 1, seed=21)
    r, d, w, _ = _toy_batch(cfg)
    trace = forward(state, r, d, w, a_pre=_ring_adjacency(4))
    assert trace.predictions.shape == (2, 1, 4, 1)


def test_forward_requires_adjacency_unless_pre_off():
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=21)
    r, d, w, _ = _toy_batch(cfg)
    with pytest.raises(ModelError, match="adjacency"):
        forward(state, r, d, w, a_pre=None)


def test_forward_no_period_ignores_context_blocks():
    cfg = _toy_cfg(no_period=True)
    state = init_model(cfg, 4, 1, seed=22)
    r, d, w, _ = _toy_batch(cfg)
    rng = np.random.default_rng(23)
    t1 = forward(state, r, d, w, a_pre=_ring_adjacency(4))
    t2 = forward(state, r, rng.standard_normal(d.shape), rng.standard_normal(w.shape),
                 a_pre=_ring_adjacency(4))
    np.testing.assert_array_equal(t1.predictions.data, t2.predictions.data)


def test_forward_isolated_configuration_is_per_node():
    # periodic context off and both graph branches at identity: node 1's
    # inputs cannot influence any other node's predictions, bit for bit
    cfg = _toy_cfg(no_period=True, no_pre=True, no_adp=True)
    state = init_model(cfg, 4, 1, seed=24)
    r, d, w, _ = _toy_batch(cfg)
    base = forward(state, r, d, w).predictions.data
    r2 = r.copy()
    r2[:, :, 1, :] += 0.7
    moved = forward(state, r2, d, w).predictions.data
    diff = np.abs(moved - base)
    others = [0, 2, 3]
    assert diff[:, :, others, :].max() == 0.0
    assert diff[:, :, 1, :].max() > 0.0


def test_forward_orders_differ_but_both_run():
    cfg1 = _toy_cfg()
    cfg2 = _toy_cfg(order="dgc_then_attention")
    r, d, w, _ = _toy_batch(cfg1)
    a_pre = _ring_adjacency(4)
    t1 = forward(init_model(cfg1, 4, 1, seed=25), r, d, w, a_pre=a_pre)
    t2 = forward(init_model(cfg2, 4, 1, seed=25), r, d, w, a_pre=a_pre)
    assert t1.predictions.shape == t2.predictions.shape
    assert not np.array_equal(t1.predictions.data, t2.predictions.data)


def test_forward_deterministic():
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=27)
    r, d, w, _ = _toy_batch(cfg)
    a_pre = _ring_adjacency(4)
    t1 = forward(state, r, d, w, a_pre=a_pre)
    t2 = forward(state, r, d, w, a_pre=a_pre)
    np.testing.assert_array_equal(t1.predictions.data, t2.predictions.data)


# --- reference forward -------------------------------------------------------------

# configurations of the toy model whose forward and gradients are pinned,
# each changed from _toy_cfg(Q=4) by the given fields
REFERENCE_CONFIGS = {
    "toy": {},
    "8heads_K3": dict(n_head=8, K=3),
    "no_pre": dict(no_pre=True),
    "no_adp": dict(no_adp=True),
    "no_graph": dict(no_pre=True, no_adp=True),
    "no_window": dict(no_window=True),
    "no_period": dict(no_period=True),
    "dgc_first": dict(order="dgc_then_attention"),
    "d2_w3": dict(d_count=2, w_count=3),
    "Q1": dict(Q=1),
    "S0": dict(S=0),
    "P_eq_S": dict(P=2, S=2),
}


@pytest.mark.parametrize("config", list(REFERENCE_CONFIGS))
def test_forward_matches_numpy_reference(config):
    # the plain-numpy loops of tests/reference_model.py, from the same
    # parameters, agree to rounding; the forward-only pass, which streams
    # the block pass through a window of 2S+1 states, gives predictions and
    # attention weights bitwise those of a taped one, which reads the bank
    cfg = _toy_cfg(**{"Q": 4, **REFERENCE_CONFIGS[config]})
    state = init_model(cfg, 4, 2, seed=40)
    r, d, w, _ = _toy_batch(cfg, c=2, seed=41)
    a_pre = _ring_adjacency(4)
    streamed = forward(state, r, d, w, a_pre=a_pre)
    pred = streamed.predictions.data
    expected = reference_model.forward(state, r, d, w, a_pre=a_pre)
    assert np.abs(pred - expected).max() <= 1e-12 * np.abs(expected).max()
    with Tape():
        taped = forward(state, r, d, w, a_pre=a_pre)
    np.testing.assert_array_equal(pred, taped.predictions.data)
    assert len(streamed.attention_weights) == len(taped.attention_weights) == cfg.Q
    for got, want in zip(streamed.attention_weights, taped.attention_weights):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got.data, want.data)


def _untaped_forward_peak(Q):
    # the peak bytes an untaped forward allocates, less the bytes of the
    # predictions and attention weights it returns, which grow with Q
    cfg = ModelConfig(d_h=64, d_e=2, n_head=2, P=12, Q=Q, S=3)
    r, d, w, _ = _toy_batch(cfg, b=8, n=32)
    state = init_model(cfg, 32, 1, seed=0)
    a_pre = _ring_adjacency(32)
    tracemalloc.start()
    try:
        trace = forward(state, r, d, w, a_pre=a_pre)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = trace.predictions.data.nbytes + sum(
        weights.data.nbytes for weights in trace.attention_weights)
    return peak - returned


def test_untaped_forward_peak_does_not_grow_with_horizon():
    # a forward-only pass keeps the 2S+1 bank states of one decoder step,
    # not the Q+2S of the whole bank: 12 more steps would add 12 block
    # states (batch 8 x 32 nodes x 2 blocks x d_h 64)
    block_state = 8 * 32 * 2 * 64 * 8
    assert abs(_untaped_forward_peak(24) - _untaped_forward_peak(12)) < block_state


def test_taped_encode_keeps_about_its_states():
    # on a tape each encoder pass keeps only its states, for the R window
    # and every block: each step's [z | r] and c would add three times those
    cfg = ModelConfig(d_h=64, d_e=2, n_head=2, P=12, Q=12, S=3)
    r, d, w, _ = _toy_batch(cfg, b=8, n=32)
    state = init_model(cfg, 32, 1, seed=0)
    tracemalloc.start()
    try:
        with Tape() as tape:
            h, bank = encode(state, r, d, w)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [_op(rec) for rec in tape.records].count("gru_sequence") == 2
    states = h.data.base.nbytes + bank.data.base.nbytes
    assert states == (cfg.P + 2 * cfg.block_len) * 8 * 32 * cfg.d_h * 8
    assert kept <= 1.5 * states


# --- full-model gradient checks ---------------------------------------------------

def _model_loss(state, r, d, w, y, a_pre):
    trace = forward(state, r, d, w, a_pre=a_pre)
    diff = tc.sub(trace.predictions, Tensor(y))
    return tc.reduce_mean(tc.mul(diff, diff))


def _blocks(state):
    return gate_blocks({name: t.data for name, t in state.params.items()})


def _check_param_coords(state, names, coords_per, r, d, w, y, a_pre, tol, h=1e-5):
    """Central-difference check of sampled coordinates of named gate blocks."""
    with Tape() as tape:
        loss = _model_loss(state, r, d, w, y, a_pre)
        backward(loss, tape)
    grads = gate_blocks({k: t.grad.copy() for k, t in state.params.items() if t.grad is not None})
    blocks = _blocks(state)
    rng = np.random.default_rng(99)
    worst = 0.0
    for name in names:
        block = blocks[name]
        for idx in rng.choice(block.size, size=min(coords_per, block.size), replace=False):
            coord = np.unravel_index(idx, block.shape)
            orig = block[coord]
            block[coord] = orig + h
            up = _model_loss(state, r, d, w, y, a_pre).item()
            block[coord] = orig - h
            down = _model_loss(state, r, d, w, y, a_pre).item()
            block[coord] = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[name][coord]
            denom = max(abs(analytic), abs(numeric), 1e-3 * (1 + abs(numeric)))
            rel = abs(analytic - numeric) / denom
            worst = max(worst, rel)
            assert rel <= tol, f"{name}[{idx}]: analytic {analytic} numeric {numeric} rel {rel}"
    return worst


@pytest.mark.parametrize("q", [1, 3, 12])
def test_full_model_gradients_at_horizon(q):
    cfg = _toy_cfg(Q=q)
    state = init_model(cfg, 4, 1, seed=28)
    r, d, w, y = _toy_batch(cfg, seed=q)
    names = [
        "encoder.cand.weight", "decoder.update.weight", "attn.w2", "attn.v",
        "dgc.cand.pre.hop2", "dgc.update.adp.hop1", "embed.e1", "out.weight",
    ]
    worst = _check_param_coords(state, names, 2, r, d, w, y, _ring_adjacency(4), tol=1e-4)
    assert worst <= 1e-4


# the blocks (`gate_blocks` names) a reference configuration's switches
# cut out of the backward: an off branch's hops and, with the adaptive
# branch off, the embeddings; with both graph branches off every hop
# stands in for an identity adjacency and still gets a gradient
_EMBEDDINGS = {"embed.e1", "embed.e2"}
_HOPS = {branch: {f"dgc.{gate}.{branch}.hop{k}" for gate in GATES for k in range(3)}
         for branch in ("pre", "adp")}
_GRAD_FREE = {
    "no_pre": _HOPS["pre"],
    "no_adp": _HOPS["adp"] | _EMBEDDINGS,
    "no_graph": _EMBEDDINGS,
    "no_period": {"attn.w1", "attn.w2", "attn.b", "attn.v"},
}


@pytest.mark.parametrize("config", list(REFERENCE_CONFIGS))
def test_full_model_gradients_on_every_reference_config(config):
    # on every configuration whose forward is pinned, every parameter that
    # gets a gradient is checked at 2 coordinates, and exactly the
    # parameters the configuration's switches cut out get none
    cfg = _toy_cfg(**{"Q": 4, **REFERENCE_CONFIGS[config]})
    state = init_model(cfg, 4, 2, seed=40)
    r, d, w, y = _toy_batch(cfg, c=2, seed=41)
    a_pre = _ring_adjacency(4)
    with Tape() as tape:
        backward(_model_loss(state, r, d, w, y, a_pre), tape)
    free = set(gate_blocks({k: t.data for k, t in state.params.items() if t.grad is None}))
    assert free == _GRAD_FREE.get(config, set())
    for t in state.params.values():
        t.zero_grad()
    names = [name for name in _blocks(state) if name not in free]
    _check_param_coords(state, names, 2, r, d, w, y, a_pre, tol=1e-4)


def test_full_model_gradients_alternate_order():
    cfg = _toy_cfg(order="dgc_then_attention")
    state = init_model(cfg, 4, 1, seed=29)
    r, d, w, y = _toy_batch(cfg, seed=5)
    names = ["decoder.cand.weight", "attn.w1", "dgc.reset.adp.hop0", "embed.e2"]
    _check_param_coords(state, names, 2, r, d, w, y, _ring_adjacency(4), tol=1e-4)


# --- checkpoints -------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    cfg = _toy_cfg()
    a = init_model(cfg, 4, 1, seed=30)
    b = init_model(cfg, 4, 1, seed=31)
    path = tmp_path / "model.ckpt"
    save_checkpoint(a, path)
    load_checkpoint(path, b)
    for name, t in a.named_parameters():
        np.testing.assert_array_equal(t.data, b.params[name].data)


def _per_gate_entries(state):
    """The checkpoint's (name, array) entries, each gate's columns sliced
    out of its GRU's joined tensor here: encoder and decoder weight and
    bias gate by gate, attention, every dgc hop and the bias gate by gate,
    then embeddings and output layer."""
    p, d_h = {k: t.data for k, t in state.params.items()}, state.config.d_h

    def gru(prefix, parts):
        return [(f"{prefix}.{gate}.{part}", p[f"{prefix}.{part}"][..., i * d_h:(i + 1) * d_h])
                for i, gate in enumerate(GATES) for part in parts]

    def plain(*names):
        return [(name, p[name]) for name in names]

    hops = [f"{branch}.hop{k}" for branch in ("pre", "adp") for k in range(state.config.K + 1)]
    return (gru("encoder", ["weight", "bias"]) + gru("decoder", ["weight", "bias"])
            + plain("attn.w1", "attn.w2", "attn.b", "attn.v") + gru("dgc", hops + ["bias"])
            + plain("embed.e1", "embed.e2", "out.weight", "out.bias"))


def test_checkpoint_is_the_per_gate_file(tmp_path):
    # the joined tensors save as one blob per gate, in the per-gate
    # names and order the format has always had, and such a file loads
    # back into the joined tensors bitwise
    state = init_model(_toy_cfg(), 4, 2, seed=36)
    entries = _per_gate_entries(state)
    assert len(entries) == 41
    manifest = [b"STGC-CKPT 1 41"] + [
        f"{name},{arr.ndim},{','.join(map(str, arr.shape))}".encode() for name, arr in entries]
    expected = b"\n".join(manifest) + b"\n" + b"".join(tensor_blob(arr) for _, arr in entries)
    saved, built = tmp_path / "saved.ckpt", tmp_path / "built.ckpt"
    save_checkpoint(state, saved)
    assert saved.read_bytes() == expected
    built.write_bytes(expected)
    other = init_model(_toy_cfg(), 4, 2, seed=37)
    load_checkpoint(built, other)
    assert list(other.params) == list(state.params)
    for name, t in state.params.items():
        assert other.params[name].data.tobytes() == t.data.tobytes(), name


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = _toy_cfg()
    state = init_model(cfg, 4, 1, seed=32)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state, p1)
    save_checkpoint(state, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_name_mismatch(tmp_path):
    a = init_model(_toy_cfg(K=2), 4, 1, seed=33)
    b = init_model(_toy_cfg(K=1), 4, 1, seed=33)
    path = tmp_path / "model.ckpt"
    save_checkpoint(a, path)
    with pytest.raises(ModelError, match="names"):
        load_checkpoint(path, b)


def test_checkpoint_shape_mismatch(tmp_path):
    a = init_model(_toy_cfg(d_h=8), 4, 1, seed=34)
    b = init_model(_toy_cfg(d_h=6), 4, 1, seed=34)
    path = tmp_path / "model.ckpt"
    save_checkpoint(a, path)
    with pytest.raises(ModelError, match="shape"):
        load_checkpoint(path, b)


def _saved_checkpoint(tmp_path):
    state = init_model(_toy_cfg(), 4, 1, seed=35)
    path = tmp_path / "model.ckpt"
    save_checkpoint(state, path)
    return state, path


def _assert_rejected(path, state, pattern):
    before = {k: t.data.copy() for k, t in state.params.items()}
    with pytest.raises(DataError, match=pattern) as exc_info:
        load_checkpoint(path, state)
    assert str(path) in str(exc_info.value)
    for name, t in state.params.items():
        np.testing.assert_array_equal(t.data, before[name])


def test_checkpoint_truncated_to_five_bytes(tmp_path):
    state, path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:5])
    _assert_rejected(path, state, "truncated manifest at byte offset 0")


def test_checkpoint_bad_parameter_count(tmp_path):
    state, path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(b"STGC-CKPT 1 x" + raw[raw.index(b"\n"):])
    _assert_rejected(path, state, r"bad parameter count b'x' at byte offset 12")


def test_checkpoint_trailing_bytes(tmp_path):
    state, path = _saved_checkpoint(tmp_path)
    size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b"junk")
    _assert_rejected(path, state, f"4 trailing bytes at byte offset {size}")


def test_checkpoint_dims_past_2_64(tmp_path):
    # the first blob claims [2**32, 2**32] values, which wraps to 0 in
    # 64-bit arithmetic
    state, path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    start = raw.index(b"STGT")
    dims = struct.pack("<2Q", 2 ** 32, 2 ** 32)
    path.write_bytes(raw[:start + 6] + dims + raw[start + 6 + len(dims):])
    _assert_rejected(path, state, f"payload at byte offset {start + 22}")


def test_checkpoint_non_ascii_parameter_name(tmp_path):
    state, path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1
    path.write_bytes(raw[:start] + b"\xff" + raw[start + 1:])
    _assert_rejected(path, state, f"non-ASCII parameter name at byte offset {start}")
