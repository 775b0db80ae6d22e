"""Adjacency construction: distance-kernel predefined graph and learned graphs.

The predefined matrix comes from a thresholded Gaussian kernel over listed
edge distances and is row-normalized once, offline. The learned ("adaptive")
matrices come from two trainable node-embedding tables, every head in one
stacked [n_head, N, N] tensor, and live on the tape, so gradients flow back
into the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from trafficast import tensor as tc
from trafficast.tensor import Tensor


class GraphError(ValueError):
    """Invalid graph specification or adjacency input."""


@dataclass
class GraphSpec:
    """Node count plus weighted edge list, with kernel parameters.

    `kappa` thresholds *squared* distances and must be given explicitly;
    `sigma` defaults to the standard deviation of the listed distances.
    Distances are in arbitrary but consistent units.
    """

    n_nodes: int
    edges: list  # (i, j, dist) triples
    kappa: float
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise GraphError(f"n_nodes must be positive, got {self.n_nodes}")
        for i, j, dist in self.edges:
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise GraphError(
                    f"edge ({i},{j}) out of range for {self.n_nodes} nodes"
                )
            if dist < 0:
                raise GraphError(f"edge ({i},{j}) has negative distance {dist}")

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            sigma = float(self.sigma)
        else:
            if not self.edges:
                raise GraphError("cannot derive sigma from an empty edge list")
            sigma = float(np.std([d for _, _, d in self.edges]))
        if sigma <= 0:
            raise GraphError(
                f"sigma must be positive, got {sigma} "
                "(set it explicitly when all distances are equal)"
            )
        return sigma


@dataclass
class NormalizedAdjacency:
    """Row-stochastic adjacency: [N, N], or [n_head, N, N] for learned heads."""

    matrix: Tensor


@dataclass
class NodeEmbeddings:
    """Two trainable embedding tables, each [N, n_head, d_e]."""

    e1: Tensor
    e2: Tensor
    d_e: int = field(init=False)

    def __post_init__(self):
        if self.e1.shape != self.e2.shape or len(self.e1.shape) != 3:
            raise GraphError(
                f"embeddings must share shape [N, n_head, d_e], got "
                f"{list(self.e1.shape)} and {list(self.e2.shape)}"
            )
        self.d_e = self.e1.shape[2]


def init_embeddings(n_nodes: int, n_head: int, d_e: int, rng: np.random.Generator) -> NodeEmbeddings:
    """Seeded uniform init in [-1/sqrt(d_e), +1/sqrt(d_e)].

    Keeps initial logits O(1) after the /d_e scaling in the adaptive matrix.
    """
    bound = 1.0 / np.sqrt(d_e)
    shape = (n_nodes, n_head, d_e)
    e1 = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    e2 = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    return NodeEmbeddings(e1, e2)


def build_predefined(spec: GraphSpec) -> Tensor:
    """Raw symmetric adjacency from the thresholded Gaussian kernel.

    w_ij = exp(-dist^2 / sigma^2) when dist^2 <= kappa, else 0. Each listed
    edge is applied both ways; pairs not listed stay 0.
    """
    sigma = spec.resolved_sigma()
    a = np.zeros((spec.n_nodes, spec.n_nodes))
    for i, j, dist in spec.edges:
        d2 = float(dist) ** 2
        if d2 <= spec.kappa:
            w = np.exp(-d2 / sigma**2)
            a[i, j] = w
            a[j, i] = w
    return Tensor(a)


def row_normalize(a: Tensor) -> NormalizedAdjacency:
    """Divide each row by its sum; isolated rows fall back to a self-loop.

    The fallback keeps the inverse-degree normalization defined for
    zero-degree nodes while preserving the node's own signal.
    """
    mat = a.data
    if np.any(mat < 0):
        raise GraphError("row_normalize needs nonnegative entries")
    mat = mat.copy()
    row_sums = mat.sum(axis=1)
    for i in np.nonzero(row_sums == 0)[0]:
        mat[i, i] = 1.0
        row_sums[i] = 1.0
    mat /= row_sums[:, None]
    return NormalizedAdjacency(Tensor(mat))


def adaptive_adjacency(emb: NodeEmbeddings) -> NormalizedAdjacency:
    """Every head's learned row-stochastic adjacency, one [n_head, N, N] stack.

    Per head, a row-wise softmax over ReLU(E1 E2^T)/d_e; the ReLU kills
    weakly negative interactions so their logits sit in a flat dead zone.
    All heads share one batched matmul (tape-recorded).
    """
    e1 = tc.transpose(emb.e1, (1, 0, 2))  # [H, N, d_e]
    e2 = tc.transpose(emb.e2, (1, 2, 0))  # [H, d_e, N]
    scaled = tc.mul(tc.relu(tc.matmul(e1, e2)), Tensor([1.0 / emb.d_e]))
    return NormalizedAdjacency(tc.softmax(scaled, axis=2))


# ---------------------------------------------------------------------------
# edge-list file format: one `i,j,dist` per line, optional from,to,cost header
# ---------------------------------------------------------------------------

def read_edge_list(path) -> list:
    """Parse 'i,j,dist' lines (optional 'from,to,cost' header) into triples.

    Any malformed line raises GraphError naming `path:line`.
    """
    edges = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise GraphError(
                    f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x} "
                    f"at column {exc.start + 1}"
                ) from None
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "from,to,cost":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 'i,j,dist', got {line!r}")
            try:
                i, j, dist = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: expected integer nodes and a numeric "
                    f"distance, got {line!r}"
                ) from None
            if not np.isfinite(dist):
                raise GraphError(f"{path}:{lineno}: distance must be finite, got {line!r}")
            if dist < 0:
                raise GraphError(f"{path}:{lineno}: negative distance in {line!r}")
            edges.append((i, j, dist))
    return edges


def write_edge_list(path, edges) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("from,to,cost\n")
        for i, j, dist in edges:
            fh.write(f"{i},{j},{dist:.17g}\n")
