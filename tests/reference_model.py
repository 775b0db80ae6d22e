"""A plain-numpy reference forward of the forecaster, one loop at a time.

It reads a `ModelState`'s parameters by name, slices each gate's columns
out of a GRU's joined [W_z | W_r | W_c] itself, and follows the equations of
the `trafficast.model` docstrings with no tape, no fused op and no shared
helper: every GRU runs per time step, attention loops over blocks and
window offsets, and the graph convolution loops over heads and hops,
applying each adjacency once per hop. Gradient checks compare a backward
only with its own forward, so this is what pins the forward to the maths.
"""

import numpy as np


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _gru(gate, x, h):
    """(1 - z) h + z c, z = sig(G_z [x, h]), r = sig(G_r [x, h]), c = tanh(G_c [x, r h])."""
    xh = np.concatenate([x, h], axis=-1)
    z = _sigmoid(gate("update", xh))
    r = _sigmoid(gate("reset", xh))
    c = np.tanh(gate("cand", np.concatenate([x, r * h], axis=-1)))
    return (1.0 - z) * h + z * c


def _cols(joined, gate):
    """Gate `gate`'s third of a joined tensor's columns: update, reset, cand."""
    width = joined.shape[-1] // 3
    i = ("update", "reset", "cand").index(gate)
    return joined[..., i * width:(i + 1) * width]


def _dense_gate(p, prefix):
    return lambda name, xh: (xh @ _cols(p[f"{prefix}.weight"], name)
                             + _cols(p[f"{prefix}.bias"], name))


def _adaptive_heads(p, d_e):
    """Per head i: A_i = row softmax of relu(E1_i E2_i^T) / d_e."""
    e1, e2 = p["embed.e1"], p["embed.e2"]  # [N, H, d_e]
    heads = []
    for i in range(e1.shape[1]):
        logits = np.maximum(e1[:, i] @ e2[:, i].T, 0.0) / d_e
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        heads.append(e / e.sum(axis=1, keepdims=True))
    return heads


def _dgc_gate(p, cfg, a_pre):
    """w_pre sum_k (A_pre^k x) Wpre_k + w_adp mean_i sum_k (A_i^k x) Wadp_k + b.

    A switched-off branch drops out; with both off, each stands in as the
    identity adjacency.
    """
    both_off = cfg.no_pre and cfg.no_adp
    branches = []
    if not cfg.no_pre or both_off:
        branches.append(("pre", cfg.w_pre, [None if both_off else a_pre]))
    if not cfg.no_adp or both_off:
        heads = [None] if both_off else _adaptive_heads(p, cfg.d_e)
        branches.append(("adp", cfg.w_adp, heads))

    def gate(name, xh):  # xh [B, N, d]
        total = _cols(p["dgc.bias"], name)
        for branch, weight, adjs in branches:
            term = 0.0
            for adj in adjs:
                hop = xh
                for k in range(cfg.K + 1):
                    if k:
                        hop = hop if adj is None else np.einsum("nm,bmd->bnd", adj, hop)
                    term = term + hop @ _cols(p[f"dgc.{branch}.hop{k}"], name)
            total = total + weight * term / len(adjs)
        return total

    return gate


def _attention(p, cfg, bank, t, q):
    """q + sum_j a_j k_j over every block's window around position P+t.

    bank[g][j] is block g's state at position P-S+j, so P+t+o is
    bank[g][t+S+o]; a is a softmax per node over the candidates of all
    blocks, scored v . tanh(k W2 + q W1 + b).
    """
    half = 0 if cfg.no_window else cfg.S
    cands = [states[t + cfg.S + o] for states in bank for o in range(-half, half + 1)]
    query = q @ p["attn.w1"] + p["attn.b"]
    scores = np.stack([np.tanh(k @ p["attn.w2"] + query) @ p["attn.v"] for k in cands], axis=-1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    return q + sum(a[..., j, None] * k for j, k in enumerate(cands))


def forward(state, r, d, w, a_pre=None):
    """Predictions [B, Q, N, C] for windows r [B, P, N, C] and blocks d, w."""
    cfg = state.config
    p = {name: t.data for name, t in state.params.items()}
    enc, dec = _dense_gate(p, "encoder"), _dense_gate(p, "decoder")
    b, _, n, _ = r.shape

    h = np.zeros((b, n, cfg.d_h))
    for step in range(cfg.P):
        h = _gru(enc, r[:, step], h)
    bank = []  # per block, its states at positions P-S .. P+Q+S-1
    if not cfg.no_period:
        for block in [d[:, i] for i in range(cfg.d_count)] + [w[:, i] for i in range(cfg.w_count)]:
            g_h, states = np.zeros((b, n, cfg.d_h)), []
            for pos in range(cfg.block_len):
                g_h = _gru(enc, block[:, pos], g_h)
                if pos >= cfg.P - cfg.S:
                    states.append(g_h)
            bank.append(states)

    dgc = _dgc_gate(p, cfg, a_pre)
    attend = (lambda t, q: _attention(p, cfg, bank, t, q)) if bank else (lambda t, q: q)
    g = np.zeros((b, n, cfg.d_h))
    x = r[:, -1]
    preds = []
    for t in range(cfg.Q):
        h = _gru(dec, x, h)
        if cfg.order == "attention_then_dgc":
            g = _gru(dgc, attend(t, h), g)
            out = g
        else:
            g = _gru(dgc, h, g)
            out = attend(t, g)
        x = out @ p["out.weight"] + p["out.bias"]
        preds.append(x)
    return np.stack(preds, axis=1)
