"""Adjacency construction tests: kernel values, normalization, learned graphs."""

import math

import numpy as np
import pytest

from trafficast import tensor as tc
from trafficast.graph import (
    GraphError,
    GraphSpec,
    NodeEmbeddings,
    adaptive_adjacency,
    build_predefined,
    init_embeddings,
    read_edge_list,
    row_normalize,
    write_edge_list,
)
from trafficast.tensor import Tape, Tensor, backward, finite_diff_check


# --- predefined kernel: frozen hand-computed values -------------------------

def test_kernel_values_path_graph():
    # path 0-1-2 with dists 1 and 2, sigma=1, kappa=4:
    # w01 = e^-1, w12 = e^-4, both cases dist^2 <= 4 so kept
    spec = GraphSpec(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 2.0)], kappa=4.0, sigma=1.0)
    a = build_predefined(spec).data
    assert a[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)
    assert a[1, 2] == pytest.approx(0.01831563888873418, abs=1e-15)
    assert a[0, 2] == 0.0
    assert a[2, 0] == 0.0
    np.testing.assert_array_equal(a, a.T)


def test_kernel_threshold_exact_zero():
    # dist^2 = 9 > kappa = 4: entry must be exactly 0.0, not merely small
    spec = GraphSpec(
        n_nodes=2, edges=[(0, 1, 3.0)], kappa=4.0, sigma=1.0
    )
    a = build_predefined(spec).data
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0


def test_kernel_threshold_boundary_kept():
    spec = GraphSpec(n_nodes=2, edges=[(0, 1, 2.0)], kappa=4.0, sigma=1.0)
    a = build_predefined(spec).data
    assert a[0, 1] == pytest.approx(math.exp(-4.0), abs=1e-15)


def test_sigma_defaults_to_distance_std():
    # distances {1, 3}: population std = 1, so weights use sigma=1
    spec = GraphSpec(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 3.0)], kappa=9.0)
    assert spec.resolved_sigma() == pytest.approx(1.0)
    a = build_predefined(spec).data
    assert a[0, 1] == pytest.approx(math.exp(-1.0))
    assert a[1, 2] == pytest.approx(math.exp(-9.0))


def test_sigma_zero_rejected():
    spec = GraphSpec(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 1.0)], kappa=4.0)
    with pytest.raises(GraphError, match="sigma"):
        spec.resolved_sigma()


def test_edge_index_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        GraphSpec(n_nodes=2, edges=[(0, 5, 1.0)], kappa=4.0, sigma=1.0)


def test_negative_distance_rejected():
    with pytest.raises(GraphError, match="negative distance"):
        GraphSpec(n_nodes=2, edges=[(0, 1, -1.0)], kappa=4.0, sigma=1.0)


# --- row normalization -------------------------------------------------------

def test_row_normalize_sums_to_one():
    spec = GraphSpec(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 2.0)], kappa=4.0, sigma=1.0)
    norm = row_normalize(build_predefined(spec))
    sums = norm.matrix.data.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_row_normalize_isolated_row_self_loop():
    # node 2 has no edges: its row becomes the identity row
    spec = GraphSpec(n_nodes=3, edges=[(0, 1, 1.0)], kappa=4.0, sigma=1.0)
    norm = row_normalize(build_predefined(spec)).matrix.data
    np.testing.assert_array_equal(norm[2], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-12)


def test_row_normalize_rejects_negative():
    with pytest.raises(GraphError, match="nonnegative"):
        row_normalize(Tensor([[1.0, -0.5], [0.0, 1.0]]))


def test_row_normalize_randomized_property():
    # many random nonnegative matrices, some rows zeroed: all rows sum to 1
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        mat = rng.uniform(0, 2, size=(n, n))
        if rng.uniform() < 0.5:
            mat[rng.integers(0, n)] = 0.0
        norm = row_normalize(Tensor(mat)).matrix.data
        np.testing.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(norm >= 0)


# --- adaptive adjacency ------------------------------------------------------

def test_adaptive_zero_embeddings_uniform():
    # all logits 0 after ReLU -> softmax uniform 1/N per row
    e = Tensor(np.zeros((4, 2, 3)), requires_grad=True)
    emb = NodeEmbeddings(e, Tensor(np.zeros((4, 2, 3)), requires_grad=True))
    adj = adaptive_adjacency(emb).matrix.data[0]
    np.testing.assert_allclose(adj, 0.25, atol=1e-15)


def test_adaptive_hand_computed():
    # N=2, d_e=1, single head; E1 = [[1],[2]], E2 = [[1],[-1]]
    # logits E1 E2^T = [[1,-1],[2,-2]], relu -> [[1,0],[2,0]], /d_e same
    # row softmax: row0 = [e/(e+1), 1/(e+1)], row1 = [e^2/(e^2+1), 1/(e^2+1)]
    e1 = Tensor(np.array([[[1.0]], [[2.0]]]), requires_grad=True)
    e2 = Tensor(np.array([[[1.0]], [[-1.0]]]), requires_grad=True)
    adj = adaptive_adjacency(NodeEmbeddings(e1, e2)).matrix.data[0]
    e = math.e
    np.testing.assert_allclose(adj[0], [e / (e + 1), 1 / (e + 1)], atol=1e-15)
    np.testing.assert_allclose(
        adj[1], [e**2 / (e**2 + 1), 1 / (e**2 + 1)], atol=1e-15
    )


def test_adaptive_single_hot_embedding_uniform():
    # N=3, d_e=1, E1 = [1,0,0], E2 = [1,1,1]: logits row 0 = [1,1,1],
    # rows 1 and 2 = [0,0,0]; every row softmaxes to uniform 1/3
    e1 = Tensor(np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1), requires_grad=True)
    e2 = Tensor(np.ones((3, 1, 1)), requires_grad=True)
    adj = adaptive_adjacency(NodeEmbeddings(e1, e2)).matrix.data[0]
    np.testing.assert_allclose(adj, 1.0 / 3.0, atol=1e-15)


def test_adaptive_rows_stochastic_many_trials():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, h, d_e = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        emb = init_embeddings(n, h, d_e, rng)
        for head in range(h):
            adj = adaptive_adjacency(emb).matrix.data[head]
            np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(adj >= 0)


def test_adaptive_stack_matches_per_head_formula():
    # head i of the stack is softmax(ReLU(E1[:, i] E2[:, i]^T) / d_e) per row
    rng = np.random.default_rng(5)
    emb = init_embeddings(5, 3, 4, rng)
    stack = adaptive_adjacency(emb).matrix.data
    assert stack.shape == (3, 5, 5)
    for head in range(3):
        logits = np.maximum(emb.e1.data[:, head] @ emb.e2.data[:, head].T, 0.0) / 4
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(stack[head], expected, rtol=1e-14, atol=0)


def test_adaptive_gradients_flow_to_embeddings():
    rng = np.random.default_rng(3)
    emb = init_embeddings(3, 2, 4, rng)

    def head_mask(head):
        # constant 0/1 mask: only this head's [N, N] matrix reaches the loss
        mask = np.zeros((2, 3, 3))
        mask[head] = 1.0
        return Tensor(mask)

    def loss_of_e1(e1):
        both = NodeEmbeddings(e1, emb.e2)
        adj = tc.mul(adaptive_adjacency(both).matrix, head_mask(1))
        return tc.reduce_sum(tc.mul(adj, adj))

    rep = finite_diff_check(loss_of_e1, emb.e1, tol=1e-5)
    assert rep.passed, f"e1 grad rel error {rep.max_rel_error}"

    def loss_of_e2(e2):
        both = NodeEmbeddings(emb.e1, e2)
        adj = tc.mul(adaptive_adjacency(both).matrix, head_mask(0))
        return tc.reduce_sum(tc.mul(adj, adj))

    rep = finite_diff_check(loss_of_e2, emb.e2, tol=1e-5)
    assert rep.passed, f"e2 grad rel error {rep.max_rel_error}"


def test_adaptive_relu_dead_zone():
    # strictly negative logits everywhere: adjacency is exactly uniform and
    # embedding gradients vanish (flat region of the ReLU)
    e1 = Tensor(np.full((3, 1, 2), 1.0), requires_grad=True)
    e2 = Tensor(np.full((3, 1, 2), -1.0), requires_grad=True)
    emb = NodeEmbeddings(e1, e2)
    with Tape() as tape:
        adj = adaptive_adjacency(emb).matrix
        loss = tc.reduce_sum(tc.mul(adj, adj))
        backward(loss, tape)
    np.testing.assert_allclose(adj.data, 1.0 / 3.0, atol=1e-15)
    np.testing.assert_array_equal(e1.grad, 0.0)
    np.testing.assert_array_equal(e2.grad, 0.0)


def test_init_embeddings_deterministic_and_bounded():
    a = init_embeddings(5, 3, 4, np.random.default_rng(42))
    b = init_embeddings(5, 3, 4, np.random.default_rng(42))
    np.testing.assert_array_equal(a.e1.data, b.e1.data)
    np.testing.assert_array_equal(a.e2.data, b.e2.data)
    bound = 1.0 / math.sqrt(4)
    assert np.all(np.abs(a.e1.data) <= bound)
    assert a.e1.requires_grad and a.e2.requires_grad


# --- edge-list file IO -------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    edges = [(0, 1, 1.5), (1, 2, 2.25), (0, 2, 3.0)]
    p = tmp_path / "edges.csv"
    write_edge_list(p, edges)
    assert read_edge_list(p) == edges


def test_edge_list_headerless(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("0,1,1.5\n1,2,2.0\n")
    assert read_edge_list(p) == [(0, 1, 1.5), (1, 2, 2.0)]


def test_edge_list_malformed_line(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("from,to,cost\n0,1\n")
    with pytest.raises(GraphError, match=":2:"):
        read_edge_list(p)


@pytest.mark.parametrize("field", ["abc", "nan", "inf", "-1.5"])
def test_edge_list_bad_distance(tmp_path, field):
    p = tmp_path / "edges.csv"
    p.write_text(f"from,to,cost\n0,1,1.5\n0,1,{field}\n")
    with pytest.raises(GraphError, match=rf"edges\.csv:3: .*'0,1,{field}'"):
        read_edge_list(p)


def test_edge_list_non_ascii_byte(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_bytes(b"from,to,cost\n0,1,1.5\n1,2,2\xe9\n")
    with pytest.raises(GraphError, match=r"edges\.csv:3: non-ASCII byte 0xe9 at column 6"):
        read_edge_list(p)
