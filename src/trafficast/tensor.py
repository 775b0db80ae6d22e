"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation in this package is built from the primitives
here. Values are stored row-major as flat float64 arrays with an explicit
shape; the supported broadcasting forms are deliberately narrow (equal
shapes, a trailing-axis vector, or a scalar) so that every backward rule
stays auditable.

Ops record themselves onto the active :class:`Tape`; one tape records at
a time. A tape is rebuilt on every forward pass, which makes data-dependent
loop lengths (e.g. an autoregressive decoder) trivial to differentiate.

`.grad` contract: :func:`backward` writes gradients only to leaves, the
requires_grad tensors the tape did not produce (parameters and inputs the
caller built), and they accumulate across calls, one per tape, until
zeroed. Tensors the tape produced are intermediates; their `.grad` stays
None. A backward pass consumes its tape, releasing each record as it
goes, so the tape can be replayed only once.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "relu",
    "absolute",
    "softmax",
    "concat",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "transpose",
    "gru_step",
    "gru_sequence",
    "additive_attention",
    "finite_diff_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class Tensor:
    """A dense float64 array plus optional gradient storage.

    `data` is always C-contiguous. Scalars are shape (1,).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
        self.data = np.ascontiguousarray(data.reshape(1) if data.ndim == 0 else data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.reshape(self.data.shape)

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class _Record:
    """One executed primitive: its inputs, output and backward rule, and
    whether the rule takes its output's adjoint as a list of one array per
    index of the output's leading axis, when a backward pass holds it so."""

    __slots__ = ("inputs", "output", "backward_fn", "by_state")

    def __init__(self, inputs, output, backward_fn, by_state=False):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.by_state = by_state


# the recording tape and the running backward pass's adjoints, each None
# when there is none
_tape: Optional["Tape"] = None
_adjoints: Optional["_Adjoints"] = None


def recording() -> bool:
    """Whether a tape is active, so that ops record onto it."""
    return _tape is not None


class Tape:
    """Ordered record of primitives executed while the tape is active.

    One tape records at a time: entering a tape while another is active
    raises RuntimeError and leaves that one recording. :func:`backward`
    consumes a tape: it replays each record once and releases it.
    """

    def __init__(self):
        self.records: list[_Record] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        global _tape
        if _tape is not None:
            raise RuntimeError("a tape is already recording: tapes do not nest")
        _tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _tape
        assert _tape is self
        _tape = None

    def __len__(self) -> int:
        return len(self.records)

    def record(self, inputs, output, backward_fn, by_state: bool = False) -> None:
        self.records.append(_Record(tuple(inputs), output, backward_fn, by_state))


def _emit(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn,
          by_state: bool = False) -> Tensor:
    """Wrap a primitive's result and record it on the active tape."""
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _tape is not None and out.requires_grad:
        _tape.record(inputs, out, backward_fn, by_state)
    return out


class _Adjoints:
    """One backward pass's adjoints, keyed by tensor, by identity (Tensor
    defines no equality).

    Each adjoint is held one way for the whole pass. `whole` holds an
    adjoint as one array, and `owned` the tensors whose adjoint the pass
    allocated itself: no backward rule holds those, so later contributions
    are added in place. A tensor whose first contribution is a state row
    (`add_row`) has instead a list in `rows` with one entry per index of
    its leading axis, None until a contribution reaches that state. A
    contribution of the other form raises ValueError.

    A tensor is a key from its first contribution until `take` removes it
    as its record replays, so the keys left once every record has replayed
    are the leaves.
    """

    __slots__ = ("whole", "owned", "rows")

    def __init__(self, loss: Tensor):
        self.whole: dict[Tensor, np.ndarray] = (
            {loss: np.ones_like(loss.data)} if loss.requires_grad else {})
        self.owned: set[Tensor] = set()
        self.rows: dict[Tensor, list] = {}

    def take(self, t: Tensor, by_state: bool = False):
        """Remove t's adjoint and return it, None if nothing reached t: one
        array, or, with by_state, one array per state if it is held so."""
        self.owned.discard(t)
        g = self.whole.pop(t, None)
        rows = self.rows.pop(t, None)
        if rows is None:
            return g
        if by_state:
            return [np.zeros(t.shape[1:]) if row is None else row for row in rows]
        # each row is freed once copied; a state no row reached stays zero
        whole = np.zeros(t.shape)
        for s, row in enumerate(rows):
            if row is not None:
                whole[s] = row
                rows[s] = None
        return whole

    def add(self, t: Tensor, g: np.ndarray) -> None:
        if t in self.rows:
            raise ValueError(f"the adjoint of a {list(t.shape)} tensor is held as "
                             f"state rows: it takes no whole contribution")
        acc = self.whole.get(t)
        if acc is None:
            self.whole[t] = g
        elif t in self.owned and acc.shape == g.shape:
            acc += g
        else:
            self.whole[t] = acc + g
            self.owned.add(t)

    def add_row(self, t: Tensor, s: int, g: np.ndarray) -> None:
        """Add g into state s, index s of t's leading axis, of t's adjoint."""
        if t in self.whole:
            raise ValueError(f"the adjoint of a {list(t.shape)} tensor is held "
                             f"whole: it takes no state row")
        rows = self.rows.get(t)
        if rows is None:
            self.rows[t] = rows = [None] * t.shape[0]
        if rows[s] is None:
            rows[s] = np.zeros(t.shape[1:])
        rows[s] += g

    def replay(self, rec: _Record) -> None:
        """Run rec's backward rule, just taken off the tape, on its output's
        adjoint, if any reached it, and add what it returns into its
        inputs' adjoints."""
        g_out = self.take(rec.output, rec.by_state)
        if g_out is None:
            return
        for inp, g in zip(rec.inputs, rec.backward_fn(g_out)):
            if g is not None and inp.requires_grad:
                self.add(inp, g)


def _add_row(t: Tensor, s: int, g: np.ndarray) -> None:
    """Add g into state s of t's adjoint in the running backward pass; a
    backward rule calls it for an input it reads state by state, whose
    adjoint then takes only state rows for the rest of the pass."""
    if _adjoints is None:
        raise RuntimeError("a state row's adjoint is added only inside backward")
    _adjoints.add_row(t, s, g)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(t) into `t.grad` for every leaf that requires grad.

    A leaf is a requires_grad tensor this tape did not produce: a parameter,
    or any input the caller built. Leaves accumulate across calls until
    zeroed. Tensors the tape produced are intermediates: their adjoints live
    only inside this pass, each one dropped as soon as its record's backward
    rule has consumed it, and their `.grad` stays None. Leaves are found by
    elimination: a tensor that receives an adjoint is a key of the pass's
    adjoints until its record replays, and the keys left at the end are
    the leaves.

    Replays the tape's backward rules in reverse execution order. Every
    consumer of an intermediate runs after the record that produced it, so
    by the time that record is replayed its adjoint is complete. The pass
    consumes the tape: each record is taken off it just before its rule
    runs and released once the rule has, with what it keeps for its
    backward, so a second backward on the same tape raises ValueError.

    A rule may add an input's adjoint state by state (`_add_row`) instead
    of returning it. Such an adjoint is held as one zero-allocated array
    per state reached, and only so: an ordinary contribution to it, or a
    state row to an adjoint held as one array, raises ValueError. Its
    producer's rule gets that list of states if it was recorded as reading
    its adjoint state by state (`gru_sequence`), and one assembled array
    otherwise; a leaf's is assembled into `.grad` when the pass ends.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._replayed:
        raise ValueError("this tape was already replayed: backward consumes it")
    records = tape.records
    if loss.requires_grad and not any(rec.output is loss for rec in reversed(records)):
        raise ValueError("loss was not produced on this tape")

    global _adjoints
    tape._replayed = True
    adjoints = _Adjoints(loss)
    _adjoints = adjoints
    try:
        while records:
            adjoints.replay(records.pop())
    finally:
        _adjoints = None
    for t in [*adjoints.whole, *adjoints.rows]:
        t.accumulate_grad(adjoints.take(t))


# ---------------------------------------------------------------------------
# elementwise binary ops with restricted broadcasting
# ---------------------------------------------------------------------------

def _broadcast_mode(a: Tensor, b: Tensor) -> str:
    if a.shape == b.shape:
        return "equal"
    if b.shape == (1,):
        return "scalar"
    if len(b.shape) == 1 and len(a.shape) >= 1 and a.shape[-1] == b.shape[0]:
        return "trailing"
    raise ShapeError(
        f"binary op needs equal shapes, a trailing-axis vector, or a scalar; "
        f"got {list(a.shape)} vs {list(b.shape)}"
    )


def _reduce_to(g: np.ndarray, mode: str, b_shape: tuple) -> np.ndarray:
    if mode == "equal":
        return g
    if mode == "scalar":
        return g.sum().reshape(1)
    return g.reshape(-1, b_shape[0]).sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    mode = _broadcast_mode(a, b)
    out = a.data + b.data

    def bwd(g):
        return g, _reduce_to(g, mode, b.shape)

    return _emit((a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    mode = _broadcast_mode(a, b)
    out = a.data - b.data

    def bwd(g):
        return g, -_reduce_to(g, mode, b.shape)

    return _emit((a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    mode = _broadcast_mode(a, b)
    out = a.data * b.data

    def bwd(g):
        return g * b.data, _reduce_to(g * a.data, mode, b.shape)

    return _emit((a, b), out, bwd)


# ---------------------------------------------------------------------------
# elementwise unary ops
# ---------------------------------------------------------------------------

def _sigmoid(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # 1 / (1 + exp(-a)) in one buffer (`out` may be `a`); exp overflows to
    # inf for a below about -709, which gives the correct 0 without a warning
    y = np.negative(a, out=out)
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    np.divide(1.0, y, out=y)
    return y


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0, for determinism
    y = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return _emit((a,), y, bwd)


def absolute(a: Tensor) -> Tensor:
    y = np.abs(a.data)

    def bwd(g):
        return (g * np.sign(a.data),)  # sign(0) == 0: subgradient at ties

    return _emit((a,), y, bwd)


# ---------------------------------------------------------------------------
# softmax / concat / reduce / reshape / transpose / matmul
# ---------------------------------------------------------------------------

def _softmax(a: np.ndarray, axis, out: Optional[np.ndarray] = None) -> np.ndarray:
    # in one buffer, `out` (a's shape) when given; `a` may be a strided view
    e = np.subtract(a, a.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def softmax(a: Tensor, axis: int) -> Tensor:
    if not -len(a.shape) <= axis < len(a.shape):
        raise ShapeError(f"softmax axis {axis} invalid for shape {list(a.shape)}")
    y = _softmax(a.data, axis)

    def bwd(g):
        return (_softmax_grad(y, g, axis),)

    return _emit((a,), y, bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    datas = [t.data for t in tensors]
    first = datas[0].shape
    if not -len(first) <= axis < len(first):
        raise ShapeError(f"concat axis {axis} invalid for shape {list(first)}")
    axis %= len(first)
    for data in datas[1:]:
        shape = data.shape
        if (len(shape) != len(first) or shape[:axis] != first[:axis]
                or shape[axis + 1:] != first[axis + 1:]):
            raise ShapeError(
                f"concat shapes differ off-axis: {list(first)} vs {list(shape)}"
            )
    out = np.concatenate(datas, axis=axis)
    offsets = list(accumulate((data.shape[axis] for data in datas), initial=0))
    lead = (slice(None),) * axis

    def bwd(g):
        return [g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets, offsets[1:])]

    return _emit(tuple(tensors), out, bwd)


def reduce_sum(a: Tensor) -> Tensor:
    out = a.data.sum().reshape(1)

    def bwd(g):
        return (np.full_like(a.data, g.reshape(-1)[0]),)

    return _emit((a,), out, bwd)


def reduce_mean(a: Tensor) -> Tensor:
    n = a.size
    out = a.data.mean().reshape(1)

    def bwd(g):
        return (np.full_like(a.data, g.reshape(-1)[0] / n),)

    return _emit((a,), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {list(a.shape)} to {list(shape)}")
    out = a.data.reshape(shape)  # a view: tensor data is always C-contiguous

    def bwd(g):
        return (g.reshape(a.shape),)

    return _emit((a,), out, bwd)


def transpose(a: Tensor, perm: Sequence[int]) -> Tensor:
    perm = tuple(perm)
    if sorted(perm) != list(range(len(a.shape))):
        raise ShapeError(f"bad permutation {list(perm)} for rank {len(a.shape)}")
    out = np.ascontiguousarray(a.data.transpose(perm))
    inv = np.argsort(perm)

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _emit((a,), out, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[m,k] x [k,n], or [h,m,k] x [h,k,n] with one product per leading index."""
    sa, sb = a.shape, b.shape
    if len(sa) not in (2, 3) or len(sb) != len(sa) or sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ShapeError(
            f"matmul needs [m,k]x[k,n] or [h,m,k]x[h,k,n], got {list(sa)} and {list(sb)}"
        )
    out = a.data @ b.data

    def bwd(g):
        # a constant operand (data, a fixed adjacency) gets no product
        return (g @ b.data.swapaxes(-1, -2) if a.requires_grad else None,
                a.data.swapaxes(-1, -2) @ g if b.requires_grad else None)

    return _emit((a, b), out, bwd)


# ---------------------------------------------------------------------------
# recurrent cells: one record per GRU step, or per dense GRU pass
# ---------------------------------------------------------------------------

def _node_mix(adj: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """adj [N, N] times x [N*B, w] as one [N, N] x [N, B*w] product, into
    `out` (x's shape) when given.

    Rows are node-major: row n*B + b is node n of batch element b, so
    x.reshape(N, B*w) is a free view holding node n's rows in row n.
    """
    n = adj.shape[0]
    mixed = np.matmul(adj, x.reshape(n, -1), out=None if out is None else out.reshape(n, -1))
    return mixed.reshape(x.shape)


def _gate_sum(mats, xd: np.ndarray, weights, bias: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """xd W_0 + sum_k M_k (xd W_k) + b, summed in place in k order, then b
    added, into `out` when given. mats[0] is None, the identity; the
    weights and bias are arrays (column blocks of the joined ones). Each
    matrix mixes its product xd W_k at the gate's width, in two scratch
    buffers that every matrix reuses and that are dropped before the bias
    add, whose ufunc buffer would otherwise add to the peak beside them."""
    out = np.matmul(xd, weights[0], out=out)
    if len(mats) > 1:
        xw, mixed = np.empty(out.shape), np.empty(out.shape)
        for mat, w in zip(mats[1:], weights[1:]):
            out += _node_mix(mat.data, np.matmul(xd, w, out=xw), mixed)
        del xw, mixed
    out += bias
    return out


def _gate_sum_grad(g, mats, xd: np.ndarray, weights, cols: slice, g_weights, g_bias,
                   need_x: bool, g_mats: list):
    """Adjoints of one _gate_sum over the operand xd and the columns `cols`
    of each joined weight and of the bias, for its output adjoint g.

    Per matrix the adjoint is mixed once, at the gate's width, by one
    product Y_k = M_k^T g (Y_0 = g); then W_k's adjoint xd^T Y_k is written
    into those columns of g_weights[k], the bias's into those of g_bias
    (None for one that needs none), and xd gains Y_k W_k^T. Returns xd's
    adjoint or None. Each matrix's adjoint, g (xd W_k)^T over node-major
    rows, is one [N, B*w] x [B*w, N] product, added into g_mats in place.
    A constant gets no gradient product.
    """
    g_x = None
    # highest k first: x's adjoint sums its terms in the order a backward
    # pass over one record per term would
    for k in range(len(mats) - 1, -1, -1):
        w, mat, g_w = weights[k].data[:, cols], mats[k], g_weights[k]
        if mat is not None and mat.requires_grad:
            n = mat.data.shape[0]
            g_m = np.matmul(g.reshape(n, -1), (xd @ w).reshape(n, -1).T)
            if g_mats[k - 1] is None:
                g_mats[k - 1] = g_m
            else:
                g_mats[k - 1] += g_m
        if not (need_x or g_w is not None):
            continue
        y = g if mat is None else _node_mix(mat.data.T, g)
        if g_w is not None:
            np.matmul(xd.T, y, out=g_w[:, cols])
        if need_x:
            y = y @ w.T
            if g_x is None:
                g_x = y
            else:
                g_x += y
    if g_bias is not None:
        g.sum(axis=0, out=g_bias[cols])
    return g_x


def _gate_views(weights, bias: Tensor, d_h: int) -> tuple:
    """The column views each gate sum reads of the joined weights and bias:
    ([z | r] weights, [z | r] bias, candidate weights, candidate bias)."""
    zr_cols, c_cols = slice(None, 2 * d_h), slice(2 * d_h, None)
    return ([w.data[:, zr_cols] for w in weights], bias.data[zr_cols],
            [w.data[:, c_cols] for w in weights], bias.data[c_cols])


def _gru_gates(mats, xd: np.ndarray, hd: np.ndarray, views, buf: np.ndarray,
               gates: Optional[tuple] = None) -> tuple:
    """One GRU step's gates [z | r] = sigmoid(G_zr [x, h]) and
    c = tanh(G_c [x, r h]), over the column views of _gate_views.

    The operand buffer buf [rows, d_x + d_h] holds [x, h], then [x, r h]
    in place, which it still holds on return. The gates are written into
    `gates`, a [rows, 2 d_h] and a [rows, d_h] buffer, when given.
    """
    zr_w, zr_b, c_w, c_b = views
    zr_out, c_out = gates or (None, None)
    d_x, d_h = xd.shape[1], hd.shape[1]
    buf[:, :d_x], buf[:, d_x:] = xd, hd
    zr = _gate_sum(mats, buf, zr_w, zr_b, zr_out)
    _sigmoid(zr, out=zr)
    buf[:, d_x:] *= zr[:, d_h:]  # now [x, r h]
    c = _gate_sum(mats, buf, c_w, c_b, c_out)
    np.tanh(c, out=c)
    return zr, c


def _gru_forward(mats, xd: np.ndarray, hd: np.ndarray, views, buf: np.ndarray,
                 out: Optional[np.ndarray] = None, gates: Optional[tuple] = None):
    """One GRU step's arithmetic, shared by gru_step and gru_sequence.

    Returns (h', [z | r], c): _gru_gates, then the mix (h - z h) + z c,
    formed in the h half of buf (z h, then z c). h' is written to `out`
    when given, which may be hd.
    """
    zr, c = _gru_gates(mats, xd, hd, views, buf, gates)
    z, half = zr[:, :hd.shape[1]], buf[:, xd.shape[1]:]
    out = np.subtract(hd, np.multiply(z, hd, out=half), out=out)
    out += np.multiply(z, c, out=half)
    return out, zr, c


def _gru_grad(g, need_x: bool, need_h: bool, mats, xd, hd, zr, c, weights, bias: Tensor,
              buf: np.ndarray) -> list:
    """Adjoints of one _gru_forward step for its output adjoint g, in
    gru_step's input order: x, h, the bias, the weights, the matrices after
    the identity. The two gate sums write their column blocks of each
    weight's and of the bias's one adjoint in place. Reads only the step's
    inputs and gates, and buf, which must hold the candidate sum's operand
    [x, r h] on entry, as _gru_gates leaves it; it then holds [x, h].
    """
    d_x, d_h = xd.shape[1], hd.shape[1]
    zr_cols, c_cols = slice(None, 2 * d_h), slice(2 * d_h, None)
    need_xh = need_x or need_h
    g_b, *g_w = [np.empty(t.shape) if t.requires_grad else None for t in (bias, *weights)]
    need_xrh = need_xh or any(t.requires_grad for t in (bias, *weights, *mats[1:]))
    g_mats = [None] * (len(mats) - 1)
    z, r = zr[:, :d_h], zr[:, d_h:]
    g_c = g * z
    g_h = g - g_c if need_h else None
    g_c *= 1.0 - c * c
    g_xrh = _gate_sum_grad(g_c, mats, buf, weights, c_cols, g_w, g_b, need_xrh, g_mats)
    g_x = None
    if need_xrh:
        g_rh = g_xrh[:, d_x:]
        g_zr = np.empty_like(zr)
        np.subtract(g * c, g * hd, out=g_zr[:, :d_h])
        np.multiply(g_rh, hd, out=g_zr[:, d_h:])
        g_zr *= zr
        g_zr *= 1.0 - zr
        buf[:, d_x:] = hd
        g_xh = _gate_sum_grad(g_zr, mats, buf, weights, zr_cols, g_w, g_b, need_xh, g_mats)
        if need_h:
            g_h += g_rh * r
            g_h += g_xh[:, d_x:]
        if need_x:
            g_x = g_xrh[:, :d_x] + g_xh[:, :d_x]
    return [g_x, g_h, g_b, *g_w, *g_mats]


def _check_gates(op: str, d_x: int, d_h: int, weights, bias: Tensor) -> None:
    """Reject joined weights or a joined bias that do not fit d_x and d_h."""
    for w in weights:
        if w.shape != (d_x + d_h, 3 * d_h):
            raise ShapeError(
                f"gru width mismatch: input {d_x} + state {d_h} needs weights "
                f"[{d_x + d_h}, {3 * d_h}], got {list(w.shape)}"
            )
    if bias.shape != (3 * d_h,):
        raise ShapeError(f"{op} bias must be [{3 * d_h}], got {list(bias.shape)}")


def gru_step(mats: Sequence[Optional[Tensor]], x: Tensor, h: Tensor,
             weights: Sequence[Tensor], bias: Tensor) -> Tensor:
    """h' = (1 - z) h + z c for x [rows, d_x] and h [rows, d_h], one record.

    [z | r] = sigmoid(G_zr [x, h]) and c = tanh(G_c [x, r h]), each G a
    gate sum [..] W_0 + sum_k M_k ([..] W_k) + b over the matrices `mats`,
    the identity (None) first, then [N, N] matrices over node-major rows
    (row n*B + b), each mix one [N, N] x [N, B*w] product at the gate's
    width w. `weights` holds one
    [W_z | W_r | W_c], [d_x + d_h, 3 d_h], per matrix and `bias` is
    [b_z | b_r | b_c]: G_zr reads their first 2 d_h columns (z the left d_h)
    and G_c the last d_h. The mix is formed as (h - z h) + z c, in the
    order separate concat, gate-sum, sigmoid, product, tanh and mix
    records would, over one buffer holding [x, h] and then, in place,
    [x, r h]. On a tape the record keeps only [z | r] and c, no mix
    M_k ([..] W_k) and no operand: its backward rebuilds the operand from
    x, h and r, and mixes the adjoint by each M_k^T instead.
    """
    if x.data.ndim != 2 or h.data.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_step needs [rows,d] input and state, "
                         f"got {list(x.shape)} and {list(h.shape)}")
    if not mats or mats[0] is not None or len(weights) != len(mats):
        raise ShapeError(
            f"gru_step needs the identity (None) first and one weight per matrix, "
            f"got {len(mats)} matrices and {len(weights)} weights"
        )
    rows = x.shape[0]
    for mat in mats[1:]:
        if len(mat.shape) != 2 or mat.shape[0] != mat.shape[1] or rows % mat.shape[0]:
            raise ShapeError(f"gru_step needs [n,n] matrices over [b*n,d] rows, "
                             f"got {list(mat.shape)} and {rows} rows")
    _check_gates("gru_step", x.shape[1], h.shape[1], weights, bias)

    inputs = (x, h, bias, *weights, *mats[1:])
    (_, d_x), d_h = x.shape, h.shape[1]
    out, zr, c = _gru_forward(mats, x.data, h.data, _gate_views(weights, bias, d_h),
                              np.empty((rows, d_x + d_h)))

    def bwd(g):
        buf = np.empty((rows, d_x + d_h))
        buf[:, :d_x], buf[:, d_x:] = x.data, h.data
        buf[:, d_x:] *= zr[:, d_h:]  # [x, r h], rebuilt from the kept r
        return _gru_grad(g, x.requires_grad, h.requires_grad, mats, x.data, h.data, zr, c,
                         weights, bias, buf)

    return _emit(inputs, out, bwd)


def gru_sequence(steps: np.ndarray, h0: Tensor, weight: Tensor, bias: Tensor,
                 first: int = 0, out: Optional[np.ndarray] = None) -> Tensor:
    """Every step of a dense GRU over constant inputs, one record.

    h_t = gru_step([None], x_t, h_{t-1}, [weight], bias) for the steps x_t
    of `steps` [T, rows, d_x], from h_{-1} = h0 [rows, d_h], with the same
    per-step arithmetic, so the states are bitwise those of T chained
    gru_step calls. Returns the states h_first .. h_{T-1} as one
    [T - first, rows, d_h] tensor.

    On a tape the record keeps only the states, no gate and no [x, h] or
    [x, r h] operand. Its backward is backpropagation through time in a
    loop inside the record: just before it forms step t's adjoints, it
    recomputes that step's gates from the constant step x_t and the kept
    state h_{t-1} (h0 at t = 0) with the forward's own arithmetic, so they
    are bitwise the forward's, and reads the candidate sum's operand
    [x, r h] that the recompute leaves in its buffer. The forward and the
    backward each allocate one operand buffer and one pair of gate
    buffers, which every step reuses. Without a tape no state before
    `first` is kept either, and h0 is held only until it is copied into
    the first state's slot.

    Without a tape the states may be written into `out` [T - first, rows,
    d_h], whose first slot may be h0 itself; then the pass allocates no
    state, only its operand and gate buffers. The backward reads its
    output's adjoint one state at a time, so it takes the adjoint as one
    array or, when a pass holds it state by state, as a list of states.
    """
    xs = np.asarray(steps, dtype=np.float64)
    if xs.ndim != 3 or h0.data.ndim != 2 or xs.shape[1] != h0.shape[0]:
        raise ShapeError(f"gru_sequence needs [T,rows,d] steps and a [rows,d] state, "
                         f"got {list(xs.shape)} and {list(h0.shape)}")
    (n_steps, rows, d_x), d_h = xs.shape, h0.shape[1]
    if not 0 <= first < n_steps:
        raise ShapeError(f"gru_sequence first state {first} out of range for {n_steps} steps")
    mats, weights = [None], [weight]
    _check_gates("gru_sequence", d_x, d_h, weights, bias)

    inputs = (h0, bias, weight)
    requires_grad = any(t.requires_grad for t in inputs)
    taped = requires_grad and _tape is not None
    if taped and out is not None:
        raise ValueError("gru_sequence writes its states into `out` only without a tape")
    # a taped pass keeps every state for its backward; an untaped one
    # writes every state before `first` over slot 0 in place
    lead = 0 if taped else first
    states = np.empty((n_steps - lead, rows, d_h)) if out is None else out
    hd = h0.data
    if not taped:
        # h0 is copied into slot 0 and let go, so step 0 runs in place and
        # no step runs beside h0
        hd = states[0]
        hd[...] = h0.data
        del h0, inputs
    views = _gate_views(weights, bias, d_h)

    def buffers():
        # one operand buffer and the [z | r] and c gates, reused by every step
        return (np.empty((rows, d_x + d_h)),
                (np.empty((rows, 2 * d_h)), np.empty((rows, d_h))))

    buf, gates = buffers()
    for t in range(n_steps):
        hd = _gru_forward(mats, xs[t], hd, views, buf, states[max(t - lead, 0)], gates)[0]
    if not taped:
        result = Tensor(states)
        result.requires_grad = requires_grad
        return result

    def bwd(g):
        carry, sums = None, None
        buf, gates = buffers()
        for t in range(n_steps - 1, -1, -1):
            if t < first:
                g_t = carry
            elif carry is None:
                g_t = g[t - first]
            else:
                g_t = g[t - first] + carry
            hd = states[t - 1] if t else h0.data
            zr, c = _gru_gates(mats, xs[t], hd, views, buf, gates)  # buf: [x, r h]
            _, carry, *grads = _gru_grad(g_t, False, t > 0 or h0.requires_grad, mats, xs[t],
                                         hd, zr, c, weights, bias, buf)
            if sums is None:
                sums = grads
            else:
                for total, step in zip(sums, grads):
                    if total is not None:
                        total += step
        return [carry, *sums]  # past step 0, carry is h0's adjoint

    return _emit(inputs, states[first:], bwd, by_state=True)


# ---------------------------------------------------------------------------
# attention: one record per decoder step
# ---------------------------------------------------------------------------

def additive_attention(h: Tensor, bank: Tensor, start: int, n_off: int, w1: Tensor,
                       b: Tensor, w2: Tensor, v: Tensor) -> Tuple[Tensor, Tensor]:
    """h + sum_j a_j k_j, a = softmax_j(v' tanh(k_j W2 + h W1 + b)), one record.

    h is [R, d] and the bank [L, R*G, d]; the window is the n_off states
    bank[start .. start+n_off-1], read inside the record. A window of the
    whole bank (n_off = L) may instead wrap, as a ring: offset c is then
    bank[(start + c) mod L]. Row r*G + g of a state holds row group g of
    query row r; w1 and w2 are [d, a], b and v are [a]. Each query row
    attends over its G*n_off candidates: column g*n_off + c of the
    returned weights [R, G*n_off] is window offset c's row r*G + g. Returns
    the output [R, d] and the weights as a constant tensor. The backward
    adds the bank's adjoint state by state (`_add_row`): each offset's
    window state adjoint, w_j g plus the pre-activation adjoint times
    W2^T, is formed in one [R*G, d] buffer that every offset reuses, then
    added into that state's row, so the pass holds only the bank states
    some window has reached.

    Each offset forms its key k_j W2 itself, into one scratch buffer that
    then holds its tanh output, and writes its scores into a row of one
    contiguous [n_off, R*G] buffer. The query is formed once and broadcast
    over the G row groups. The softmax runs per query row; the pool sums,
    per offset in offset order, that offset's G weighted row groups, and
    the residual h is added last. No key and no tanh output is kept: on a
    tape the backward recomputes the query and each activation from
    k_j W2 into one buffer, and forms each pre-activation adjoint in a
    second. A constant operand gets no gradient product.
    """
    hd, bd = h.data, bank.data
    if hd.ndim != 2:
        raise ShapeError(f"additive_attention needs a [r,d] query, got {list(hd.shape)}")
    rows, width = hd.shape
    if (bd.ndim != 3 or not rows or not bd.shape[1] or bd.shape[1] % rows
            or bd.shape[2] != width):
        raise ShapeError(
            f"additive_attention needs a [l,r*g,{width}] bank for {rows} query rows, "
            f"got {list(bd.shape)}"
        )
    n_bank = bd.shape[0]
    wraps = start + n_off > n_bank
    if n_off < 1 or start < 0 or (wraps and (n_off != n_bank or start >= n_bank)):
        raise ShapeError(
            f"additive_attention window {start}..{start + n_off - 1} outside a bank "
            f"of {n_bank} states"
        )
    a_shape = (width, v.data.shape[0])
    for name, t, shape in (("w1", w1, a_shape), ("w2", w2, a_shape),
                           ("b", b, a_shape[1:]), ("v", v, a_shape[1:])):
        if t.data.shape != shape:
            raise ShapeError(
                f"additive_attention {name} must be {list(shape)}, got {list(t.data.shape)}"
            )

    k_rows, groups = bd.shape[1], bd.shape[1] // rows
    inputs = (h, w1, b, w2, v, bank)

    def key(c):
        # window offset c's state [R*G, d], from bank slot (start + c) mod L
        return bd[(start + c) % n_bank]

    def grouped(c):
        return key(c).reshape(rows, groups, width)

    def activation(c, q, act):
        # tanh(k_c W2 + q) into act, q broadcast over row groups (row r*G + g is q[r])
        np.matmul(key(c), w2.data, out=act)
        view = act.reshape(rows, groups, -1)
        view += q[:, None]
        np.tanh(act, out=act)

    def query():
        q = hd @ w1.data
        q += b.data
        return q

    q = query()
    scores = np.empty((n_off, k_rows))
    act = np.empty((k_rows, a_shape[1]))
    for c in range(n_off):
        activation(c, q, act)
        np.matmul(act, v.data, out=scores[c])
    # a softmax per query row over its G*n_off scores, read transposed out
    # of the [n_off, R*G] buffer straight into the weights [R, G*n_off],
    # whose column g*n_off + c is offset c's row r*G + g
    weights = np.empty((rows, groups * n_off))
    _softmax(scores.reshape(n_off, rows, groups).transpose(1, 2, 0), (1, 2),
             out=weights.reshape(rows, groups, n_off))
    del scores
    # each offset's weights, contiguous [n_off, R, G]
    per_offset = np.ascontiguousarray(
        weights.reshape(rows, groups, n_off).transpose(2, 0, 1))
    out = np.einsum("rg,rgd->rd", per_offset[0], grouped(0))
    for c in range(1, n_off):
        out += np.einsum("rg,rgd->rd", per_offset[c], grouped(c))
    out += hd

    # bwd closes over 19 names: CPython 3.11 never reuses a freed tuple of
    # exactly 20 items, so a 20th name would pin up to 2,000 of them
    def bwd(g):
        g_w = np.stack([np.einsum("rd,rgd->rg", g, grouped(c)) for c in range(n_off)],
                       axis=2).reshape(weights.shape)
        g_s = _softmax_grad(weights, g_w, axis=1).reshape(-1, n_off)
        w3 = weights.reshape(rows, groups, n_off)
        need_q = h.requires_grad or w1.requires_grad or b.requires_grad
        g_q = None
        g_w2 = np.zeros_like(w2.data) if w2.requires_grad else None
        g_v = np.zeros_like(v.data) if v.requires_grad else None
        g_k = np.empty((k_rows, width)) if bank.requires_grad else None
        q = query()
        act, g_pre = np.empty((k_rows, a_shape[1])), np.empty((k_rows, a_shape[1]))
        # last offset first, the order a pass over per-offset records takes
        for c in range(n_off - 1, -1, -1):
            g_c = g_s[:, c]
            activation(c, q, act)
            if g_v is not None:
                g_v += act.T @ g_c
            # g_pre = (g_c v) * (1 - act^2), act squared in place
            np.multiply(g_c[:, None], v.data, out=g_pre)
            np.multiply(act, act, out=act)
            np.subtract(1.0, act, out=act)
            g_pre *= act
            if need_q:
                # starts from the last offset's term, not from zeros
                if g_q is None:
                    g_q = g_pre.copy()
                else:
                    g_q += g_pre
            if g_w2 is not None:
                g_w2 += key(c).T @ g_pre
            if g_k is not None:
                np.multiply(w3[:, :, c, None], g[:, None, :],
                            out=g_k.reshape(rows, groups, width))
                g_k += g_pre @ w2.data.T
                _add_row(bank, (start + c) % n_bank, g_k)
        g_h = g_w1 = g_b = None
        if g_q is not None:
            g_q = g_q.reshape(rows, groups, -1).sum(axis=1)
            g_h = g + g_q @ w1.data.T if h.requires_grad else None
            g_w1 = hd.T @ g_q if w1.requires_grad else None
            g_b = g_q.sum(axis=0) if b.requires_grad else None
        return [g_h, g_w1, g_b, g_w2, g_v, None]

    return _emit(inputs, out, bwd), Tensor(weights)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    def __init__(self, max_rel_error: float, tol: float, analytic: np.ndarray, numeric: np.ndarray):
        self.max_rel_error = max_rel_error
        self.tol = tol
        self.analytic = analytic
        self.numeric = numeric

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({status}, max_rel_error={self.max_rel_error:.3e}, tol={self.tol:.1e})"


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    # Denominator floored so dead units (both grads ~0) do not divide by zero
    # and central-difference cancellation noise is not amplified.
    floor = 1e-3 * (1.0 + np.abs(numeric).max(initial=0.0))
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Check d f(x)/dx against central differences, elementwise.

    `f` must return a scalar Tensor and must be re-runnable (it is called
    2*size(x)+1 times). Returns the max relative error and pass/fail at
    `tol`.
    """
    if h <= 0:
        raise ValueError("finite_diff_check needs h > 0")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        out = f(probe)
        if out.size != 1:
            raise ShapeError("finite_diff_check needs a scalar-valued f")
        backward(out, tape)
    analytic = (
        probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)
    )

    numeric = np.zeros_like(x.data)
    flat = numeric.reshape(-1)
    base = x.data.copy().reshape(-1)
    for i in range(base.size):
        for sign in (+1.0, -1.0):
            bumped = base.copy()
            bumped[i] += sign * h
            val = f(Tensor(bumped.reshape(x.shape))).item()
            flat[i] += sign * val / (2.0 * h)

    max_err = float(_rel_errors(analytic, numeric).max(initial=0.0))
    return GradCheckReport(max_err, tol, analytic, numeric)
