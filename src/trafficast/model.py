"""The forecasting network.

Encoder: one GRU parameter set, run per node over the recent window R and,
in one pass over stacked rows, over every daily/weekly context block; each
pass is one `gru_sequence` record. The R pass ends in the decoder's
initial state; on a tape the block pass leaves the bank, one
[Q+2S, N*B*G, d_h] tensor of hidden states covering every block, that
attention indexes. A forward-only pass streams the block pass instead
(`BankWindow`): it keeps the 2S+1 bank states one decoder step reads, as
a ring, and advances one block step per decoder step into the slot of
the state the window no longer reads, bitwise the same states.

Decoder, per forecast step t: a GRU (separate parameters) advances on its
own previous output, attention pools a (2S+1)-wide window from every block
around the position aligned with t, and a graph-convolutional GRU mixes
nodes. An affine layer maps its state to the forecast. The attention and
graph stages can be swapped (`order`), and each mechanism has an off
switch so its contribution can be measured.

All three GRUs run one gate step (as in DCRNN's DCGRU): each gate is
[..] W_0 + sum_k M_k ([..] W_k) + b over a list of mixing matrices,
identity first.
The encoder and decoder GRUs have the identity alone; the graph GRU adds
the K predefined and K adaptive adjacency powers. Both branches' powers
come from one helper over an [H, N, N] adjacency stack: every learned
head at once, or the predefined matrix as one head. The three gates
differ only in their weights, so each mixing matrix has one weight
[W_z | W_r | W_c] and each GRU one bias [b_z | b_r | b_c]; these are the
parameters, and `gate_blocks` names each gate's columns. The graph GRU
folds its hop and fusion weights into one weight per matrix, once for
all three gates. Every decoder GRU step, dense or graph, is one
`gru_step` record, each encoder pass one `gru_sequence` record, and
every attention step one `additive_attention` record: the window read
out of the bank, the scores of every window offset over every block
against one query, the softmax per node, the pooled context and the
residual add. A GRU record never keeps a mix M_k ([..] W_k): its
backward mixes the adjoint by each M_k^T. A decoder
step's record keeps its gates; an encoder pass keeps only its states,
and its backward recomputes each step's gates from them. An attention
record forms each window state's key W2 h_p itself and keeps no key and
no tanh output: its backward recomputes them from the window.
Every activation is [N*B, d] rows, node-major (row n*B + b), so no cell
copies or slices, and each graph mix is one [N, N] x [N, B*w] product on
a free reshape to [N, B*w], as in DCRNN's graph convolution. The rows of
the bank and of a streamed window add the block as the fastest index
(row (n*B + b)*G + g).

Everything here runs on the tape from `tensor`; data enters as constant
tensors, parameters carry requires_grad.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from trafficast import tensor as tc
from trafficast.data import DataError, parse_tensor_blob, tensor_blob, window_error
from trafficast.graph import NodeEmbeddings, adaptive_adjacency, init_embeddings
from trafficast.tensor import ShapeError, Tensor

ORDERS = ("attention_then_dgc", "dgc_then_attention")
GATES = ("update", "reset", "cand")  # the column order of a joined GRU weight


class ModelError(ValueError):
    """Invalid configuration or out-of-range argument."""


@dataclass
class ModelConfig:
    d_h: int = 64
    d_e: int = 8
    n_head: int = 8
    K: int = 2
    w_pre: float = 0.1
    w_adp: float = 0.9
    P: int = 12
    Q: int = 12
    S: int = 3
    d_count: int = 1
    w_count: int = 1
    no_pre: bool = False
    no_adp: bool = False
    no_window: bool = False
    no_period: bool = False
    order: str = "attention_then_dgc"

    def __post_init__(self):
        if self.n_head < 1:
            raise ModelError(f"n_head must be >= 1, got {self.n_head}")
        if self.K < 1:
            raise ModelError(f"K must be >= 1, got {self.K}")
        if self.d_h < 1 or self.d_e < 1:
            raise ModelError(f"d_h and d_e must be >= 1, got {self.d_h}, {self.d_e}")
        if self.w_pre < 0 or self.w_adp < 0:
            raise ModelError(
                f"fusion weights must be >= 0, got {self.w_pre}, {self.w_adp}"
            )
        error = window_error(self)
        if error:
            raise ModelError(error)
        if self.order not in ORDERS:
            raise ModelError(f"order must be one of {ORDERS}, got {self.order!r}")

    @property
    def block_len(self) -> int:
        """Steps in each daily/weekly block, P+Q+S; the encoder's bank
        keeps the last Q+2S of them."""
        return self.P + self.Q + self.S

    @property
    def window_half(self) -> int:
        """The attention window's half-width: S, or 0 under no_window."""
        return 0 if self.no_window else self.S


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class GruGates:
    """One GRU's gates, each [..] W_0 + sum_k M_k ([..] W_k) + b.

    `mats` lists the mixing matrices, the identity (None) first, and
    `weights` holds one weight per matrix: the encoder's or decoder's own
    parameter, or the DGC-GRU's folded graph convolution. Each weight is
    [W_z | W_r | W_c] and `bias` [b_z | b_r | b_c] (a parameter), in GATES
    order, so z is the left third.
    """

    mats: List[Optional[Tensor]]
    weights: List[Tensor]
    bias: Tensor


@dataclass
class AttentionParams:
    w1: Tensor
    w2: Tensor
    b: Tensor
    v: Tensor


def gate_blocks(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Writable views: gate i of GATES is columns [i*d_h, (i+1)*d_h) of each
    GRU tensor, named with the gate after its first dotted component
    (`dgc.pre.hop1` -> `dgc.update.pre.hop1`), gate-major within each GRU;
    other arrays map to themselves. This is the checkpoint and init order."""
    blocks: Dict[str, np.ndarray] = {}
    for prefix, group in groupby(arrays, key=lambda name: name.split(".")[0]):
        names = list(group)
        if prefix not in ("encoder", "decoder", "dgc"):
            blocks.update((name, arrays[name]) for name in names)
            continue
        for i, gate in enumerate(GATES):
            for name in names:
                width = arrays[name].shape[-1] // len(GATES)
                blocks[f"{prefix}.{gate}{name[len(prefix):]}"] = \
                    arrays[name][..., i * width:(i + 1) * width]
    return blocks


@dataclass
class ModelState:
    """All trainable tensors, keyed by stable dotted names.

    Insertion order is the optimizer order and, through `gate_blocks`, the
    checkpoint order; it must not depend on config flags so ablations stay
    checkpoint-compatible. GRU tensors are joined [W_z | W_r | W_c].
    """

    config: ModelConfig
    n_nodes: int
    n_channels: int
    params: Dict[str, Tensor]

    def named_parameters(self):
        return self.params.items()

    def gru(self, prefix: str) -> GruGates:
        return GruGates([None], [self.params[f"{prefix}.weight"]], self.params[f"{prefix}.bias"])

    def attention(self) -> AttentionParams:
        p = self.params
        return AttentionParams(p["attn.w1"], p["attn.w2"], p["attn.b"], p["attn.v"])

    def dgc_hops(self, branch: str) -> List[Tensor]:
        """The branch's hop weights [W_z | W_r | W_c], k = 0..K."""
        return [self.params[f"dgc.{branch}.hop{k}"] for k in range(self.config.K + 1)]

    def embeddings(self) -> NodeEmbeddings:
        return NodeEmbeddings(self.params["embed.e1"], self.params["embed.e2"])


def init_model(cfg: ModelConfig, n_nodes: int, n_channels: int, seed: int) -> ModelState:
    """Seeded init: weights uniform +-1/sqrt(fan_in), biases zero; each
    gate's weight is drawn into its block, in `gate_blocks` order."""
    rng = np.random.default_rng(seed)
    params: Dict[str, Tensor] = {}

    def add(shapes):  # zeros, then every weight block drawn in order
        new = {name: Tensor(np.zeros(shape), requires_grad=True) for name, shape in shapes}
        params.update(new)
        for name, block in gate_blocks({k: t.data for k, t in new.items()}).items():
            if block.ndim == 2 or name == "attn.v":
                bound = 1.0 / np.sqrt(block.shape[0])
                block[...] = rng.uniform(-bound, bound, size=block.shape)

    d_h, c, joined = cfg.d_h, n_channels, 3 * cfg.d_h
    hops = [f"dgc.{branch}.hop{k}" for branch in ("pre", "adp") for k in range(cfg.K + 1)]
    # attention inner width follows the hidden size
    add([("encoder.weight", (c + d_h, joined)), ("encoder.bias", joined),
         ("decoder.weight", (c + d_h, joined)), ("decoder.bias", joined),
         ("attn.w1", (d_h, d_h)), ("attn.w2", (d_h, d_h)), ("attn.b", d_h), ("attn.v", d_h),
         *((hop, (2 * d_h, joined)) for hop in hops), ("dgc.bias", joined)])
    emb = init_embeddings(n_nodes, cfg.n_head, cfg.d_e, rng)
    params["embed.e1"], params["embed.e2"] = emb.e1, emb.e2
    add([("out.weight", (d_h, c)), ("out.bias", c)])
    return ModelState(config=cfg, n_nodes=n_nodes, n_channels=n_channels, params=params)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def gru_cell(gates: GruGates, x: Tensor, h: Tensor) -> Tensor:
    """One step of the encoder or decoder GRU (identity mixing only):
    h' = (1-z) * h + z * tanh(G_c [x, r*h]), [z | r] = sigmoid(G_zr [x, h])."""
    return tc.gru_step(gates.mats, x, h, gates.weights, gates.bias)


def _encoder_pass(enc: GruGates, steps: np.ndarray, first: int,
                  h0: Optional[Tensor] = None, out: Optional[np.ndarray] = None) -> Tensor:
    """The encoder GRU over constant steps [T, rows, C] from h0, or from a
    zero state, as one `gru_sequence`; the states from step `first` on,
    into `out` when given (untaped only)."""
    # the zero state is built in the call, so no name here holds it
    return tc.gru_sequence(
        steps, Tensor(np.zeros((steps.shape[1], enc.bias.shape[0] // 3))) if h0 is None else h0,
        enc.weights[0], enc.bias, first, out)


class BankWindow:
    """The periodic block pass of a forward-only forward, run as the decoder
    reaches it.

    Decoder step t attends over block positions P+t-half .. P+t+half, with
    half = cfg.window_half. `states` [2*half+1, N*B*G, d_h] holds just
    those for decoder step `step`, in the rows of the bank `encode`
    returns on a tape, as a ring: window offset c is in slot
    (start + c) mod (2*half+1). The first pass runs the block steps up to
    the end of step 0's window, with start 0. Each later decoder step
    advances the pass one block step from the newest state into the slot
    of the oldest, the one state the window no longer reads, and moves
    start on by one slot: one state copy, no slide. Each state is the same
    GRU arithmetic in the same order as the taped bank's, so it is bitwise
    equal to it.
    """

    def __init__(self, enc: GruGates, steps: np.ndarray, cfg: ModelConfig):
        half = cfg.window_half
        self.enc, self.steps, self.step, self.start = enc, steps, 0, 0
        self.last = cfg.P + half  # block position of the window's last state
        self.states = _encoder_pass(enc, steps[:self.last + 1], cfg.P - half)

    def at(self, t: int) -> Tuple[Tensor, int]:
        """Decoder step t's window: the ring and the slot of its offset 0.
        The pass runs forward only."""
        if t < self.step:
            raise ModelError(f"bank window is at step {self.step}, cannot return to step {t}")
        ring = self.states.data
        while self.step < t:
            self.step, self.last = self.step + 1, self.last + 1
            oldest, newest = self.start, self.start - 1  # slot -1 is the last
            _encoder_pass(self.enc, self.steps[self.last:self.last + 1], 0,
                          Tensor(ring[newest]), out=ring[oldest:oldest + 1])
            self.start = (oldest + 1) % len(ring)
        return self.states, self.start


def encode(
    state: ModelState, r: np.ndarray, d: np.ndarray, w: np.ndarray
) -> Tuple[Tensor, Union[Tensor, BankWindow, None]]:
    """Shared-parameter GRU passes over R and, in one pass, every periodic block.

    Returns the final R state [N*B, d_h] (decoder init), rows node-major
    (row n*B + b) like every activation, and the periodic
    states attention reads, None when periodic context is switched off.
    The block pass runs the G = d_count + w_count blocks as rows of one
    stack, node-major and block-minor (row (n*B + b)*G + g), blocks ordered
    daily first, then weekly, both most-distant-first (matching the data
    layout). The blocks share one pass because they have the same length,
    the same zero initial state and the same weights, and a dense GRU
    treats each row on its own.

    On a tape each pass is one `gru_sequence` record, and the periodic
    states are the bank: one [Q+2S, N*B*G, d_h] tensor holding the states
    at block positions P-S .. P+Q+S-1. A forward-only pass returns a
    `BankWindow` instead, which keeps only the 2S+1 states one decoder
    step reads, as a ring, and runs the rest of the block pass as the
    decoder reaches it.
    """
    cfg = state.config
    b, p_len, n, c = r.shape
    if p_len != cfg.P:
        raise ShapeError(f"R has {p_len} steps, config says P={cfg.P}")
    enc = state.gru("encoder")
    # [B, P, N, C] -> [P, N, B, C]: one row per (node, batch)
    r_steps = np.ascontiguousarray(r.transpose(1, 2, 0, 3)).reshape(p_len, n * b, c)
    h_final = tc.reshape(_encoder_pass(enc, r_steps, p_len - 1), (n * b, cfg.d_h))
    if cfg.no_period:
        return h_final, None
    if d.shape[1] != cfg.d_count or w.shape[1] != cfg.w_count:
        raise ShapeError(
            f"expected {cfg.d_count} daily and {cfg.w_count} weekly blocks, "
            f"got {d.shape[1]} and {w.shape[1]}"
        )
    if d.shape[2] != cfg.block_len or w.shape[2] != cfg.block_len:
        raise ShapeError(
            f"block lengths {d.shape[2]} and {w.shape[2]} != P+Q+S = {cfg.block_len}"
        )
    g = cfg.d_count + cfg.w_count
    # [B, G, L, N, C] -> [L, N, B, G, C]: one row per (node, batch, block)
    blocks = np.concatenate([d, w], axis=1).transpose(2, 3, 0, 1, 4)
    steps = np.ascontiguousarray(blocks).reshape(cfg.block_len, n * b * g, c)
    if not tc.recording():
        return h_final, BankWindow(enc, steps, cfg)
    return h_final, _encoder_pass(enc, steps, cfg.P - cfg.S)


def attention_step(
    h_t: Tensor,
    bank: Union[Tensor, BankWindow, None],
    t: int,
    cfg: ModelConfig,
    params: AttentionParams,
) -> Tuple[Tensor, Optional[Tensor]]:
    """Pool periodic hidden states around the position aligned with step t.

    Block position P+t is the prior-day/week state at the same clock
    offset as forecast step t, bank[t+S] in the one-tensor bank a taped
    `encode` returns; the window takes offsets -S..+S around it (just the
    aligned state when windowing is off). A forward-only `BankWindow`
    first advances its block pass to step t and then holds exactly that
    window, as a ring that the record reads from the slot of offset -S
    on. One `additive_attention` record reads the window out of the
    bank, forms each window state's key W2 h_p and every score
    v' tanh(W2 h_p + W1 h + b) over the G blocks of each row, turns them
    into weights with a softmax per node, and adds the pooled context
    residually; its backward adds the window's states into the bank's
    adjoint one state at a time, which the block pass reads per state.
    Returns (a_t, weights) with weights [N*B, G*C] a constant tensor in
    block-major, offset-minor candidate order (column g*C + c), or
    (h_t, None) when periodic context is off.
    """
    if not 0 <= t < cfg.Q:
        raise ModelError(f"step {t} out of range for Q={cfg.Q}")
    if cfg.no_period:
        return h_t, None
    half = cfg.window_half
    if isinstance(bank, BankWindow):
        bank, start = bank.at(t)
    else:
        start = t + cfg.S - half
    return tc.additive_attention(h_t, bank, start, 2 * half + 1,
                                 params.w1, params.b, params.w2, params.v)


# ---------------------------------------------------------------------------
# double graph convolution
# ---------------------------------------------------------------------------

def _mean_powers(stack: Tensor, K: int) -> List[Optional[Tensor]]:
    """Head-averaged powers M_k = mean_i A_i^k, k = 0..K, of a [H, N, N] stack.

    One batched matmul per power forms every head's A_i^k; one constant
    [1, H] row of 1/H averages them. M_0 is the identity, returned as None
    so callers skip the multiply.
    """
    heads, n = stack.shape[0], stack.shape[1]
    mean_row = Tensor(np.full((1, heads), 1.0 / heads))
    mats: List[Optional[Tensor]] = [None]
    power = stack
    for k in range(1, K + 1):
        if k > 1:
            power = tc.matmul(stack, power)
        flat = tc.matmul(mean_row, tc.reshape(power, (heads, n * n)))
        mats.append(tc.reshape(flat, (n, n)))
    return mats


def adaptive_mix_mats(emb: NodeEmbeddings, cfg: ModelConfig) -> List[Optional[Tensor]]:
    """Head-averaged adaptive adjacency powers, identity first (None).

    The k-hop chain averaged over heads collapses to these: with shared
    hop weights, mean_i(A_i^k x) W^k = (M_k x) W^k. Computed once per
    forward pass and reused by every gate at every step.
    """
    return _mean_powers(adaptive_adjacency(emb).matrix, cfg.K)


def pre_mix_mats(a_pre: Optional[np.ndarray], cfg: ModelConfig) -> List[Optional[Tensor]]:
    """Constant powers of the predefined adjacency, identity first (None)."""
    if a_pre is None:
        raise ModelError("predefined adjacency required unless its branch is off")
    return _mean_powers(Tensor(a_pre[None]), cfg.K)


def conv_terms(
    pre_mats: List[Optional[Tensor]],
    adp_mats: List[Optional[Tensor]],
    pre_hops: List[Tensor],
    adp_hops: List[Tensor],
    cfg: ModelConfig,
) -> Tuple[List[Optional[Tensor]], List[Tensor]]:
    """Fold w_pre * sum_k (A_pre^k x) Wpre_k + w_adp * sum_k (M_k x) Wadp_k
    into one sum_k (M_k x) W_k: the matrices, identity (None) first, and
    one weight per matrix.

    A switched-off branch passes no matrices and drops out. Each hop
    weight is scaled by its branch's fusion weight. The identity weight is
    the sum of every identity hop of the active branches; with both
    branches off, both stand in as identity adjacencies (a per-node dense
    map), so that is every hop.
    """
    if not pre_mats and not adp_mats:
        pre_mats = adp_mats = [None] * (cfg.K + 1)
    branches = [(m, hops, weight) for m, hops, weight in (
        (pre_mats, pre_hops, cfg.w_pre), (adp_mats, adp_hops, cfg.w_adp)) if m]
    identity = None
    mats: List[Optional[Tensor]] = [None]
    weights: List[Tensor] = []
    for branch_mats, hops, weight in branches:
        scale = Tensor([weight])
        for mat, hop in zip(branch_mats, hops, strict=True):
            w_k = tc.mul(hop, scale)
            if mat is not None:
                mats.append(mat)
                weights.append(w_k)
            else:
                identity = w_k if identity is None else tc.add(identity, w_k)
    return mats, [identity] + weights


def dgc_terms(
    state: ModelState,
    pre_mats: List[Optional[Tensor]],
    adp_mats: List[Optional[Tensor]],
) -> GruGates:
    """The DGC-GRU's gates, once per forward pass: every hop [W_z | W_r | W_c]
    folded for all three gates by one conv_terms call."""
    mats, weights = conv_terms(pre_mats, adp_mats, state.dgc_hops("pre"),
                               state.dgc_hops("adp"), state.config)
    return GruGates(mats, weights, state.params["dgc.bias"])


def dgcgru_cell(gates: GruGates, x: Tensor, h: Tensor) -> Tensor:
    """GRU step whose gate transforms are double graph convolutions.

    The same step as gru_cell, over the matrices of dgc_terms; a name of
    its own keeps the graph GRU apart from the dense ones in profiles.
    """
    return tc.gru_step(gates.mats, x, h, gates.weights, gates.bias)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    predictions: Tensor                       # [B, Q, N, C]
    attention_weights: List[Optional[Tensor]] = field(default_factory=list)


def forward(
    state: ModelState,
    r: np.ndarray,
    d: np.ndarray,
    w: np.ndarray,
    a_pre: Optional[np.ndarray] = None,
) -> ForwardTrace:
    """Unroll the full network over Q forecast steps.

    The decoder starts from the last observed step of R and then feeds on
    its own previous projection. Per step: decoder GRU advances, then
    attention and the graph GRU run in the configured order, then the
    output affine produces that step's forecast.
    """
    cfg = state.config
    b, _, n, c = r.shape
    if n != state.n_nodes or c != state.n_channels:
        raise ShapeError(
            f"batch is {n} nodes x {c} channels, model was built for "
            f"{state.n_nodes} x {state.n_channels}"
        )

    h, bank = encode(state, r, d, w)
    pre = [] if cfg.no_pre else pre_mix_mats(a_pre, cfg)
    adp = [] if cfg.no_adp else adaptive_mix_mats(state.embeddings(), cfg)
    dgc = dgc_terms(state, pre, adp)
    dec = state.gru("decoder")
    attn = state.attention()
    w_out, b_out = state.params["out.weight"], state.params["out.bias"]

    g = Tensor(np.zeros((n * b, cfg.d_h)))
    x_in = Tensor(np.ascontiguousarray(r[:, -1].transpose(1, 0, 2)).reshape(n * b, c))
    trace = ForwardTrace(predictions=None)
    step_preds = []
    for t in range(cfg.Q):
        h = gru_cell(dec, x_in, h)
        if cfg.order == "attention_then_dgc":
            a_t, w_t = attention_step(h, bank, t, cfg, attn)
            g = dgcgru_cell(dgc, a_t, g)
            y_t = tc.add(tc.matmul(g, w_out), b_out)
        else:
            g = dgcgru_cell(dgc, h, g)
            a_t, w_t = attention_step(g, bank, t, cfg, attn)
            y_t = tc.add(tc.matmul(a_t, w_out), b_out)
        trace.attention_weights.append(w_t)
        step_preds.append(y_t)
        x_in = y_t
    stacked = tc.reshape(tc.concat(step_preds, axis=0), (cfg.Q, n, b, c))
    trace.predictions = tc.transpose(stacked, (2, 0, 1, 3))
    return trace


# ---------------------------------------------------------------------------
# checkpoints: text manifest, then one binary tensor blob per gate block
# ---------------------------------------------------------------------------

CKPT_HEADER = b"STGC-CKPT 1"


def save_checkpoint(state: ModelState, path) -> None:
    """One entry per `gate_blocks` block, so each gate's weight is its own blob."""
    blocks = gate_blocks({name: t.data for name, t in state.params.items()})
    lines = [CKPT_HEADER + b" %d" % len(blocks)]
    for name, block in blocks.items():
        dims = ",".join(str(int(s)) for s in block.shape)
        lines.append(f"{name},{block.ndim},{dims}".encode("ascii"))
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
        for block in blocks.values():
            fh.write(tensor_blob(block))


def _manifest_line(raw: bytes, offset: int, origin: str) -> Tuple[bytes, int]:
    nl = raw.find(b"\n", offset)
    if nl < 0:
        raise DataError(
            f"{origin}: truncated manifest at byte offset {offset}, no line end"
        )
    return raw[offset:nl], nl + 1


def load_checkpoint(path, state: ModelState) -> None:
    """Load parameters into an existing state (block names and shapes must match).

    A malformed file raises DataError naming the byte offset; a well-formed
    checkpoint of a different model raises ModelError. Nothing is written
    into `state` unless the whole file checks out.
    """
    origin = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    header, offset = _manifest_line(raw, 0, origin)
    if not header.startswith(CKPT_HEADER + b" "):
        raise DataError(
            f"{origin}: not a checkpoint file at byte offset 0 (header {header[:20]!r})"
        )
    count = header[len(CKPT_HEADER) + 1:]
    if not count.isdigit():
        raise DataError(
            f"{origin}: bad parameter count {count[:20]!r} "
            f"at byte offset {len(CKPT_HEADER) + 1}"
        )
    names = []
    for _ in range(int(count)):
        start = offset
        line, offset = _manifest_line(raw, offset, origin)
        try:
            names.append(line.split(b",")[0].decode("ascii"))
        except UnicodeDecodeError:
            raise DataError(
                f"{origin}: non-ASCII parameter name at byte offset {start}"
            ) from None
    blocks = gate_blocks({name: t.data for name, t in state.params.items()})
    if names != list(blocks):
        missing = set(blocks) - set(names)
        extra = set(names) - set(blocks)
        raise ModelError(
            f"{path}: parameter names do not match the model "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    arrays = []
    for name in names:
        arr, offset = parse_tensor_blob(raw, offset, origin=origin)
        if arr.shape != blocks[name].shape:
            raise ModelError(
                f"{path}: {name} has shape {list(arr.shape)}, "
                f"model expects {list(blocks[name].shape)}"
            )
        arrays.append(arr)
    if offset != len(raw):
        raise DataError(
            f"{origin}: {len(raw) - offset} trailing bytes at byte offset {offset}"
        )
    for name, arr in zip(names, arrays):
        blocks[name][...] = arr
