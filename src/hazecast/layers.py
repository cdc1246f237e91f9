"""Differentiable building blocks for the forecasting models.

Every layer owns its weights as :class:`~hazecast.autodiff.Tensor` leaves and
exposes a forward method built from tape primitives, so analytic gradients of
any composition come from ``Tensor.backward``.  Weight matrices are drawn
uniformly from ±sqrt(1/fan_in); biases (optional everywhere, on by default)
start at zero.  Softmaxes subtract a constant per-group maximum before
exponentiating, which changes neither values nor gradients but avoids
overflow on large logits.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, concat, linear
from .errors import NumericError

LOCATION_SCALE = np.array([90.0, 180.0])  # degrees -> [-1, 1]


def _check_finite(name: str, data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values in {name}")


def init_matrix(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = math.sqrt(1.0 / in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class Linear:
    """Affine map ``x @ W.T + b`` for row-stacked inputs."""

    def __init__(self, rng, in_dim: int, out_dim: int, bias: bool = True, name: str = "linear"):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(init_matrix(rng, out_dim, in_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"{self.name}: expected input dim {self.in_dim}, got {x.shape[-1]}")
        return linear(x, self.weight, self.bias)

    def params(self):
        yield f"{self.name}.weight", self.weight
        if self.bias is not None:
            yield f"{self.name}.bias", self.bias


class GruCell:
    """Gated recurrent cell over concatenated [previous hidden, input].

    update = sigmoid(Wu [h, x]); reset = sigmoid(Wr [h, x]);
    candidate = tanh(Wc [reset * h, x]);
    next = (1 - update) * h + update * candidate.

    Each output coordinate is a convex combination of the previous hidden
    state and a value in (-1, 1), so |h_i| never exceeds max(|h_prev,i|, 1).
    """

    def __init__(self, rng, input_dim: int, hidden_dim: int, bias: bool = True, name: str = "gru"):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        joint = hidden_dim + input_dim
        self.w_update = Linear(rng, joint, hidden_dim, bias=bias, name=f"{name}.update")
        self.w_reset = Linear(rng, joint, hidden_dim, bias=bias, name=f"{name}.reset")
        self.w_cand = Linear(rng, joint, hidden_dim, bias=bias, name=f"{name}.candidate")

    def step(self, h_prev: Tensor, x: Tensor) -> Tensor:
        if h_prev.shape[-1] != self.hidden_dim or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"{self.name}: expected hidden {self.hidden_dim} / input {self.input_dim}, "
                f"got {h_prev.shape[-1]} / {x.shape[-1]}"
            )
        _check_finite(f"{self.name} input", x.data)
        joint = concat([h_prev, x], axis=1)
        update = self.w_update(joint).sigmoid()
        reset = self.w_reset(joint).sigmoid()
        cand = self.w_cand(concat([reset * h_prev, x], axis=1)).tanh()
        return (1.0 - update) * h_prev + update * cand

    def params(self):
        for lin in (self.w_update, self.w_reset, self.w_cand):
            yield from lin.params()


class GraphLayout:
    """Static per-network indexing shared by the graph layers.

    Holds the (source, sink) index arrays and each node's in-degree.  Per-edge
    messages are summed into their sink nodes by a segment sum over the sink
    index, so time and memory grow linearly with the number of edges.
    """

    def __init__(self, edges: np.ndarray, n_nodes: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n_nodes = int(n_nodes)
        self.n_edges = int(edges.shape[0])
        self.src = edges[:, 0]
        self.dst = edges[:, 1]
        self.in_degree = np.bincount(self.dst, minlength=self.n_nodes)

    def aggregate(self, per_edge: Tensor) -> Tensor:
        """Sum per-edge rows into their sink nodes: (E, d) -> (L, d)."""
        return per_edge.scatter_rows(self.dst, self.n_nodes)


def _segment_softmax(logits: Tensor, layout: GraphLayout) -> Tensor:
    """Softmax of per-edge logits over the in-edges of each sink, as (E, 1)."""
    _check_finite("attention logits", logits.data)
    shift = np.full(layout.n_nodes, -np.inf)
    np.maximum.at(shift, layout.dst, logits.data)
    exp = (logits - shift[layout.dst]).exp().reshape(layout.n_edges, 1)
    denom = layout.aggregate(exp)
    return exp / denom.gather_rows(layout.dst)


class TransformerConv:
    """Attention-weighted message passing with per-edge attribute features.

    For sink node i with in-neighbors j: out_i = root(P_i) +
    sum_j softmax_j(query(P_i) . (key(P_j) + edge_key(E_ji)) / sqrt(d)) *
    (msg(P_j) + edge_msg(E_ji)), where d is the key dimension.  Nodes with no
    in-edges reduce to the root map alone.
    """

    def __init__(self, rng, node_dim: int, out_dim: int, edge_dim: int,
                 key_dim: int | None = None, bias: bool = True, name: str = "conv"):
        self.name = name
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.edge_dim = edge_dim
        self.key_dim = key_dim if key_dim is not None else out_dim
        self.w_root = Linear(rng, node_dim, out_dim, bias=bias, name=f"{name}.root")
        self.w_msg = Linear(rng, node_dim, out_dim, bias=bias, name=f"{name}.msg")
        self.w_query = Linear(rng, node_dim, self.key_dim, bias=bias, name=f"{name}.query")
        self.w_key = Linear(rng, node_dim, self.key_dim, bias=bias, name=f"{name}.key")
        self.w_edge_key = Linear(rng, edge_dim, self.key_dim, bias=bias, name=f"{name}.edge_key")
        self.w_edge_msg = Linear(rng, edge_dim, out_dim, bias=bias, name=f"{name}.edge_msg")

    def __call__(self, nodes: Tensor, layout: GraphLayout, edge_feats: Tensor) -> Tensor:
        _check_finite(f"{self.name} node input", nodes.data)
        root = self.w_root(nodes)
        if layout.n_edges == 0:
            return root
        if edge_feats.shape != (layout.n_edges, self.edge_dim):
            raise ValueError(
                f"{self.name}: expected edge features ({layout.n_edges}, {self.edge_dim}), "
                f"got {edge_feats.shape}"
            )
        _check_finite(f"{self.name} edge input", edge_feats.data)
        query = self.w_query(nodes).gather_rows(layout.dst)
        key = self.w_key(nodes).gather_rows(layout.src) + self.w_edge_key(edge_feats)
        logits = (query * key).sum(axis=1) * (1.0 / math.sqrt(self.key_dim))
        alpha = _segment_softmax(logits, layout)
        message = self.w_msg(nodes).gather_rows(layout.src) + self.w_edge_msg(edge_feats)
        return root + layout.aggregate(alpha * message)

    def params(self):
        for lin in (self.w_root, self.w_msg, self.w_query, self.w_key,
                    self.w_edge_key, self.w_edge_msg):
            yield from lin.params()


class ScalarGraphConv:
    """Message passing with fixed scalar edge weights (no edge-feature maps).

    out_i = root(P_i) + sum_{j in N_i} coef_ji * msg(P_j).  The per-edge
    coefficients come in precomputed: 1/in_degree for the mean-style binary
    layer, d_min/d_ij for the inverse-distance layer.
    """

    def __init__(self, rng, node_dim: int, out_dim: int, bias: bool = True, name: str = "conv"):
        self.name = name
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.w_root = Linear(rng, node_dim, out_dim, bias=bias, name=f"{name}.root")
        self.w_msg = Linear(rng, node_dim, out_dim, bias=bias, name=f"{name}.msg")

    def __call__(self, nodes: Tensor, layout: GraphLayout, edge_coef: np.ndarray) -> Tensor:
        _check_finite(f"{self.name} node input", nodes.data)
        root = self.w_root(nodes)
        if layout.n_edges == 0:
            return root
        weighted = self.w_msg(nodes).gather_rows(layout.src) * edge_coef.reshape(-1, 1)
        return root + layout.aggregate(weighted)

    def params(self):
        yield from self.w_root.params()
        yield from self.w_msg.params()


class LuongAttention:
    """Bilinear-score attention of a decoder state over encoder history.

    score_t = dec . (W_score enc_t); weights = softmax over history steps;
    context = sum_t weight_t * enc_t; out = tanh(W_out [context, dec]).
    The history comes stacked as one (H, L, d) tensor and row i of the
    decoder state attends over row i of each history entry.  The score is
    computed as (dec W_score) . enc_t, so the score matrix meets the decoder
    state once per call rather than every history entry.
    """

    def __init__(self, rng, hidden_dim: int, bias: bool = True, name: str = "attention"):
        self.name = name
        self.hidden_dim = hidden_dim
        self.w_score = Linear(rng, hidden_dim, hidden_dim, bias=False, name=f"{name}.score")
        self.w_out = Linear(rng, 2 * hidden_dim, hidden_dim, bias=bias, name=f"{name}.out")

    def __call__(self, history: Tensor, decoder_state: Tensor) -> Tensor:
        if history.shape[0] == 0:
            raise ValueError(f"{self.name}: empty encoder history")
        n_steps, n_rows = history.shape[:2]
        query = decoder_state @ self.w_score.weight
        logits = (history * query).sum(axis=2)
        _check_finite(f"{self.name} scores", logits.data)
        shift = logits.data.max(axis=0)  # constant; softmax is shift-invariant
        exp = (logits - shift).exp()
        weights = exp / exp.sum(axis=0, keepdims=True)
        context = (weights.reshape(n_steps, n_rows, 1) * history).sum(axis=0)
        return self.w_out(concat([context, decoder_state], axis=1)).tanh()

    def params(self):
        yield from self.w_score.params()
        yield from self.w_out.params()


class SpaceTimeEmbedding:
    """Trainable lookup tables for calendar fields plus a location projection.

    The output row per station is [hour row, day-of-week row, month row,
    projected (lat/90, lon/180)], four blocks of the embedding width each.
    """

    def __init__(self, rng, embed_dim: int = 8, bias: bool = True, name: str = "embed"):
        self.name = name
        self.embed_dim = embed_dim
        bound = math.sqrt(1.0 / embed_dim)
        self.hour_table = Tensor(rng.uniform(-bound, bound, size=(24, embed_dim)), requires_grad=True)
        self.dow_table = Tensor(rng.uniform(-bound, bound, size=(7, embed_dim)), requires_grad=True)
        self.month_table = Tensor(rng.uniform(-bound, bound, size=(12, embed_dim)), requires_grad=True)
        self.location = Linear(rng, 2, embed_dim, bias=bias, name=f"{name}.location")

    @property
    def out_dim(self) -> int:
        return 4 * self.embed_dim

    def __call__(self, hour: int, dow: int, month: int, coords: np.ndarray) -> Tensor:
        if not 0 <= hour <= 23:
            raise ValueError(f"hour {hour} outside 0..23")
        if not 0 <= dow <= 6:
            raise ValueError(f"day-of-week {dow} outside 0..6")
        if not 1 <= month <= 12:
            raise ValueError(f"month {month} outside 1..12")
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        n = coords.shape[0]
        blocks = [
            self.hour_table.gather_rows(np.full(n, hour)),
            self.dow_table.gather_rows(np.full(n, dow)),
            self.month_table.gather_rows(np.full(n, month - 1)),
            self.location(Tensor(coords / LOCATION_SCALE)),
        ]
        return concat(blocks, axis=1)

    def embed_one(self, latitude: float, longitude: float, hour: int, dow: int, month: int) -> np.ndarray:
        """Embedding vector for a single (location, timestamp) pair."""
        return self(hour, dow, month, np.array([[latitude, longitude]])).data[0]

    def params(self):
        yield f"{self.name}.hour", self.hour_table
        yield f"{self.name}.dow", self.dow_table
        yield f"{self.name}.month", self.month_table
        yield from self.location.params()


class Mlp:
    """Two-layer perceptron head: affine, tanh, affine to one output per row."""

    def __init__(self, rng, in_dim: int, hidden_dim: int, bias: bool = True, name: str = "mlp"):
        self.name = name
        self.in_dim = in_dim
        self.hidden = Linear(rng, in_dim, hidden_dim, bias=bias, name=f"{name}.hidden")
        self.out = Linear(rng, hidden_dim, 1, bias=bias, name=f"{name}.out")

    def __call__(self, x: Tensor) -> Tensor:
        _check_finite(f"{self.name} input", x.data)
        return self.out(self.hidden(x).tanh())

    def params(self):
        yield from self.hidden.params()
        yield from self.out.params()
