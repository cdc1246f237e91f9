"""Differentiable building blocks for the forecasting models.

Every layer owns its weights as :class:`~hazecast.autodiff.Tensor` leaves, so
analytic gradients of any composition come from ``Tensor.backward``.  Each
layer, :class:`ScalarGraphConv` too, records one tape node per call, built
with ``Tensor._make`` with its input and every weight as parents; edge
attributes and coefficients, calendar ids and coordinates are plain arrays.
A GRU, attention or head step has one implementation, its class's
``_forward``, ``_backward`` and ``_param_grads``, which the recurrences
(``GruCell.unroll``, the model's decoder) run per step.  The model calls the
embedding and the encoder unroll once per window and the graph layers once
per union of hours (:meth:`GraphLayout.union`).  The affine map has one
implementation, ``Linear.apply`` and ``Linear.param_grads``, which the fused
layers reuse.  A hand-derived backward keeps only small arrays (each class
says which) and recomputes the rest, so the tape holds no (E, width) array
between forward and backward.  The graph layers apply their maps on the node
side of the edge sums, so their per-edge arrays are as wide as their inputs,
not their output.  Weight matrices are drawn uniformly from ±sqrt(1/fan_in)
and biases start at zero.  Every map has a bias except the attention score
and the graph layer's two key maps, whose bias a softmax would cancel, and
its edge-message map, whose bias would only add to the message map's.
Softmaxes subtract a constant per-group maximum before exponentiating, which
changes neither values nor gradients but avoids overflow on large logits.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import StepBuffers, Tensor, sigmoid
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
        self.weight = Tensor(init_matrix(rng, out_dim, in_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        """The map of (rows, in_dim) inputs, as one tape node that keeps ``x``."""
        if x.data.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name}: expected a 2-D input with {self.in_dim} columns, "
                             f"got shape {x.shape}")

        def backward(g):
            gx = g @ self.weight.data if x.requires_grad else None
            return (gx, *self.param_grads(g, x.data))

        return Tensor._make(self.apply(x.data), (x, *_weights(self)), backward)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The map on a plain array (into ``out``), for fused layers that record their own node."""
        out = np.matmul(x, self.weight.data.T, out=out)
        if self.bias is not None:
            out += self.bias.data
        return out

    def param_grads(self, dy: np.ndarray, x: np.ndarray) -> tuple:
        """Gradients of the weight (and bias) for input ``x`` and output gradient ``dy``."""
        gw = dy.T @ x
        return (gw,) if self.bias is None else (gw, dy.sum(axis=0))

    def params(self):
        yield f"{self.name}.weight", self.weight
        if self.bias is not None:
            yield f"{self.name}.bias", self.bias


def _weights(layer) -> tuple:
    """A layer's weight tensors in ``params`` order, as parents of its fused node."""
    return tuple(t for _, t in layer.params())


class GruCell:
    """Gated recurrent cell over concatenated [previous hidden, input].

    update = sigmoid(Wu [h, x]); reset = sigmoid(Wr [h, x]);
    candidate = tanh(Wc [reset * h, x]);
    next = (1 - update) * h + update * candidate.

    Each output coordinate is a convex combination of the previous hidden
    state and a value in (-1, 1), so |h_i| never exceeds max(|h_prev,i|, 1).

    ``unroll(h0, *parts)`` runs k steps as one tape node, its input given as
    column blocks of k*rows rows, and ``step`` is one step of it.  Recording,
    it keeps each step's joint input [h, x], gated input [reset * h, x] and
    three gates, and backward gives each weight one product over k*rows rows.
    """

    def __init__(self, rng, input_dim: int, hidden_dim: int, name: str = "gru"):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        joint = hidden_dim + input_dim
        self.w_update = Linear(rng, joint, hidden_dim, name=f"{name}.update")
        self.w_reset = Linear(rng, joint, hidden_dim, name=f"{name}.reset")
        self.w_cand = Linear(rng, joint, hidden_dim, name=f"{name}.candidate")

    def unroll(self, h0: Tensor, *parts: Tensor) -> Tensor:
        """The (k*rows, hidden) states of k steps from ``h0``; rows t*rows.. of each part are step t's."""
        (n, hd), widths, k = h0.shape, [x.shape[-1] for x in parts], parts[0].shape[0] // max(1, h0.shape[0])
        if hd != self.hidden_dim or sum(widths) != self.input_dim or k < 1 or {x.shape[0] for x in parts} != {k * n}:
            raise ValueError(f"{self.name}: expected hidden {self.hidden_dim} / input {self.input_dim} over "
                             f"{n} rows per step, got {h0.shape} / {[x.shape for x in parts]}")
        parents, h, states = (h0, *parts, *_weights(self)), h0.data, np.empty((k, n, hd))
        buf = StepBuffers(k, parents)
        for t in range(k):
            h = self._forward(buf, t, h, [x.data[t * n:(t + 1) * n] for x in parts], states[t])

        def backward(g):
            grads, d_x, d_h = StepBuffers(k), np.empty((k, n, self.input_dim)), np.zeros((n, hd))
            for t in reversed(range(k)):
                d_h = self._backward(buf, grads, t, g[t * n:(t + 1) * n] + d_h, d_x[t])
            d_x = np.split(d_x.reshape(k * n, -1), np.cumsum(widths)[:-1], axis=1)
            return (d_h, *d_x, *self._param_grads(buf, grads))

        return Tensor._make(states.reshape(k * n, hd), parents, backward)

    step = unroll  # one step, for inputs of as many rows as the state

    def _forward(self, buf: StepBuffers, t: int, h, parts, out: np.ndarray) -> np.ndarray:
        """Step t from state ``h`` and input column blocks ``parts``, into ``out``."""
        hd, n = self.hidden_dim, len(h)
        joint, gated = (buf.slot(name, t, (n, hd + self.input_dim)) for name in ("joint", "gated"))
        joint[:, :hd] = h  # read before ``out``, which may hold h, is written
        np.concatenate(parts, axis=1, out=joint[:, hd:])
        _check_finite(f"{self.name} input", joint[:, hd:])
        h = joint[:, :hd]
        update, reset, cand = (buf.slot(name, t, (n, hd)) for name in ("update", "reset", "cand"))
        sigmoid(self.w_update.apply(joint, out=update), out=update)
        sigmoid(self.w_reset.apply(joint, out=reset), out=reset)
        np.multiply(reset, h, out=gated[:, :hd])
        gated[:, hd:] = joint[:, hd:]
        np.tanh(self.w_cand.apply(gated, out=cand), out=cand)
        np.multiply(update, cand, out=out)
        out += (1.0 - update) * h
        return out

    def _backward(self, buf: StepBuffers, grads: StepBuffers, t: int, g, d_x) -> np.ndarray:
        """Step t's backward for state gradient ``g``: the gates' go into ``grads``, the
        input's into ``d_x``; returns the previous state's."""
        hd = self.hidden_dim
        joint, update, reset, cand = (buf.slot(name, t) for name in ("joint", "update", "reset", "cand"))
        h = joint[:, :hd]
        d_update = np.multiply(g * (cand - h) * update, 1.0 - update, out=grads.slot("d_update", t, g.shape))
        d_cand = np.multiply(g * update, 1.0 - cand * cand, out=grads.slot("d_cand", t, g.shape))
        d_gated = d_cand @ self.w_cand.weight.data
        d_reset = np.multiply(d_gated[:, :hd] * h * reset, 1.0 - reset, out=grads.slot("d_reset", t, g.shape))
        d_joint = d_update @ self.w_update.weight.data + d_reset @ self.w_reset.weight.data
        np.add(d_joint[:, hd:], d_gated[:, hd:], out=d_x)
        return d_joint[:, :hd] + g * (1.0 - update) + d_gated[:, :hd] * reset

    def _param_grads(self, buf: StepBuffers, grads: StepBuffers) -> tuple:
        joint = buf.rows("joint")
        return (*self.w_update.param_grads(grads.rows("d_update"), joint),
                *self.w_reset.param_grads(grads.rows("d_reset"), joint),
                *self.w_cand.param_grads(grads.rows("d_cand"), buf.rows("gated")))

    def params(self):
        for lin in (self.w_update, self.w_reset, self.w_cand):
            yield from lin.params()


#: Most edge rows of one graph-layer call over a union of hours.  The conv's
#: forward and backward over 24 hours (2-vCPU VM, medians of 41 and 9 runs)
#: took 8.0-10.2 ms in 1-hour and 5.5-6.0 ms in 8-hour calls at 30 stations
#: (242 edges), but 213-257, 230-243 and 357 ms at 1, 2 and 8 hours per call
#: at 1000 stations (8946 edges).
UNION_EDGE_ROWS = 2048


class GraphLayout:
    """Static per-network indexing shared by the graph layers.

    Holds the (source, sink) index arrays and each node's in-degree.  Per-edge
    rows are summed into nodes by :meth:`aggregate`, at each graph layer's
    input width; time and memory grow linearly with the number of edges.
    :meth:`union` stacks k copies of the graph, one per hour, so that one
    call of a graph layer serves k hours (PyTorch Geometric's mini-batching).
    """

    def __init__(self, edges: np.ndarray, n_nodes: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n_nodes = int(n_nodes)
        self.n_edges = int(edges.shape[0])
        self.src = edges[:, 0]
        self.dst = edges[:, 1]
        self.in_degree = np.bincount(self.dst, minlength=self.n_nodes)
        self._cells = {"src": {}, "dst": {}}
        self._unions: dict[int, GraphLayout] = {1: self}

    def union(self, k: int) -> "GraphLayout":
        """k disjoint copies, built once: copy t holds nodes t*n.. and this graph's edges, in order."""
        if k not in self._unions:
            offset = (np.arange(k) * self.n_nodes)[:, None, None]
            edges = np.stack((self.src, self.dst), axis=1)[None] + offset
            self._unions[k] = GraphLayout(edges, k * self.n_nodes)
        return self._unions[k]

    def hours_per_call(self, hours: int) -> int:
        """Hours per graph-layer call: as many as fit in :data:`UNION_EDGE_ROWS` edge rows, at least 1."""
        return max(1, min(hours, UNION_EDGE_ROWS // max(1, self.n_edges)))

    def aggregate(self, per_edge: np.ndarray, side: str = "dst") -> np.ndarray:
        """Sum per-edge rows into the node at each edge's ``side`` ("dst" or "src"): (E, d) -> (L, d).

        One flat ``np.bincount`` over (node, column) cells, built once per (side, width),
        adds each node's rows in edge order, bit-identical to ``np.add.at``, with no (L, E) array.
        """
        width = per_edge.shape[1]
        cells = self._cells[side].get(width)
        if cells is None:
            cells = self._cells[side][width] = (getattr(self, side)[:, None] * width + np.arange(width)).ravel()
        return np.bincount(cells, weights=per_edge.ravel(), minlength=self.n_nodes * width).reshape(self.n_nodes, width)


def _segment_softmax(logits: np.ndarray, layout: GraphLayout) -> np.ndarray:
    """Softmax of per-edge logits (E,) over the in-edges of each sink, as (E, 1)."""
    _check_finite("attention logits", logits)
    shift = np.full(layout.n_nodes, -np.inf)
    np.maximum.at(shift, layout.dst, logits)
    exp = np.exp(logits - shift[layout.dst]).reshape(layout.n_edges, 1)
    return exp / layout.aggregate(exp)[layout.dst]


class TransformerConv:
    """Attention-weighted message passing with per-edge attribute features.

    The edge attributes are observed data, an (E, edge_dim) array that is not
    on the tape and gets no gradient, like :class:`ScalarGraphConv`'s weights.

    For sink node i with in-neighbors j: out_i = root(P_i) +
    sum_j softmax_j(query(P_i) . (key(P_j) + edge_key(E_ji)) / sqrt(d)) *
    (msg(P_j) + edge_msg(E_ji)), where d is out_dim.  Nodes with no in-edges
    reduce to the root map alone.  The two key maps have no bias: a key bias
    b adds query(P_i) . b to every logit of sink i alike, and the softmax
    cancels it.  Nor has the edge-message map: b_msg is each message's bias.

    No map runs per edge.  With edge rows x = [P_j, E_ji, 1] and the maps set
    side by side, K = [W_key, W_edge_key, 0] and M = [W_msg, W_edge_msg,
    b_msg], the logit is (query(P_i) K) . x / sqrt(d) and the message sum
    is (sum_j alpha_ji x) M^T, so per-edge arrays are node_dim + edge_dim +
    1 wide, not out_dim.  A call is one tape node; it keeps query(P),
    query(P) K and the alpha-weighted sums of x, each (nodes, width), and
    the (E, 1) weights, and backward gathers x again.
    """

    def __init__(self, rng, node_dim: int, out_dim: int, edge_dim: int, name: str = "conv"):
        self.name = name
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.edge_dim = edge_dim
        self.w_root = Linear(rng, node_dim, out_dim, name=f"{name}.root")
        self.w_msg = Linear(rng, node_dim, out_dim, name=f"{name}.msg")
        self.w_query = Linear(rng, node_dim, out_dim, name=f"{name}.query")
        self.w_key = Linear(rng, node_dim, out_dim, bias=False, name=f"{name}.key")
        self.w_edge_key = Linear(rng, edge_dim, out_dim, bias=False, name=f"{name}.edge_key")
        self.w_edge_msg = Linear(rng, edge_dim, out_dim, bias=False, name=f"{name}.edge_msg")

    def __call__(self, nodes: Tensor, layout: GraphLayout, edge_feats: np.ndarray) -> Tensor:
        _check_finite(f"{self.name} node input", nodes.data)
        if edge_feats.shape != (layout.n_edges, self.edge_dim):
            raise ValueError(
                f"{self.name}: expected edge features ({layout.n_edges}, {self.edge_dim}), "
                f"got {edge_feats.shape}"
            )
        _check_finite(f"{self.name} edge input", edge_feats)
        p, a = nodes.data, edge_feats
        src, dst, n_in = layout.src, layout.dst, self.node_dim
        scale = 1.0 / math.sqrt(self.out_dim)

        def edge_inputs() -> np.ndarray:
            x = np.column_stack((p, np.zeros((len(p), self.edge_dim)), np.ones(len(p))))[src]
            x[:, n_in:-1] = a
            return x

        # Each (E, width) buffer is reused in place once its values are spent:
        # fresh arrays of that size cost more in page faults than in arithmetic.
        w_key = np.column_stack((self.w_key.weight.data, self.w_edge_key.weight.data,
                                 np.zeros(self.out_dim)))
        w_msg = np.column_stack((self.w_msg.weight.data, self.w_edge_msg.weight.data, self.w_msg.bias.data))
        x = edge_inputs()
        query = self.w_query.apply(p)
        query_key = query @ w_key
        per_edge = query_key[dst]
        alpha = _segment_softmax(np.einsum("ij,ij->i", per_edge, x) * scale, layout)
        mixed = layout.aggregate(np.multiply(alpha, x, out=per_edge))
        out = self.w_root.apply(p) + mixed @ w_msg.T

        def backward(g):
            x = edge_inputs()
            d_mixed = g @ w_msg
            d_x = d_mixed[dst]
            d_alpha = np.einsum("ij,ij->i", d_x, x)[:, None]
            d_logits = alpha * (d_alpha - layout.aggregate(alpha * d_alpha)[dst]) * scale
            d_query_key = layout.aggregate(np.multiply(d_logits, x, out=x))
            d_query = d_query_key @ w_key.T
            d_x *= alpha  # the edge rows' gradient, summed into their sources
            np.take(query_key, dst, axis=0, out=x, mode="clip")  # unbuffered; forward checked dst
            d_x += np.multiply(d_logits, x, out=x)
            d_nodes = (g @ self.w_root.weight.data + d_query @ self.w_query.weight.data
                       + layout.aggregate(d_x, "src")[:, :n_in])
            # columns of the side-by-side gradients: node map, edge map, shared bias
            # (K's last column is a constant zero, so its gradient goes unused)
            gk, gm = query.T @ d_query_key, g.T @ mixed
            return (d_nodes, *self.w_root.param_grads(g, p), gm[:, :n_in], gm[:, -1],
                    *self.w_query.param_grads(d_query, p), gk[:, :n_in], gk[:, n_in:-1],
                    gm[:, n_in:-1])

        return Tensor._make(out, (nodes, *_weights(self)), backward)

    def params(self):
        for lin in (self.w_root, self.w_msg, self.w_query, self.w_key,
                    self.w_edge_key, self.w_edge_msg):
            yield from lin.params()


class ScalarGraphConv:
    """Message passing with fixed scalar edge weights (no edge-feature maps).

    out_i = root(P_i) + sum_{j in N_i} coef_ji * msg(P_j).  The per-edge
    coefficients come in precomputed: 1/in_degree for the mean-style binary
    layer, d_min/d_ij for the inverse-distance layer.

    The sum runs at input width, before the linear map: with edge rows x =
    [P_j, 1] and M = [W_msg, b_msg], the message sum is (sum_j coef_ji x) M^T.
    A call is one tape node that keeps those (nodes, node_dim + 1) sums.
    """

    def __init__(self, rng, node_dim: int, out_dim: int, name: str = "conv"):
        self.name = name
        self.w_root = Linear(rng, node_dim, out_dim, name=f"{name}.root")
        self.w_msg = Linear(rng, node_dim, out_dim, name=f"{name}.msg")

    def __call__(self, nodes: Tensor, layout: GraphLayout, edge_coef: np.ndarray) -> Tensor:
        _check_finite(f"{self.name} node input", nodes.data)
        p, coef = nodes.data, edge_coef.reshape(-1, 1)
        w_msg = np.column_stack((self.w_msg.weight.data, self.w_msg.bias.data))
        mixed = layout.aggregate(np.column_stack((p, np.ones(len(p))))[layout.src] * coef)
        out = self.w_root.apply(p) + mixed @ w_msg.T

        def backward(g):
            d_x = (g @ w_msg)[layout.dst] * coef
            d_nodes = g @ self.w_root.weight.data + layout.aggregate(d_x, "src")[:, :-1]
            gm = g.T @ mixed
            return (d_nodes, *self.w_root.param_grads(g, p), gm[:, :-1], gm[:, -1])

        return Tensor._make(out, (nodes, *_weights(self)), backward)

    def params(self):
        yield from self.w_root.params()
        yield from self.w_msg.params()


def _scores(hist: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(H, L) dot products of each history row ``hist[t, i]`` (H, L, d) with ``vec[i]``."""
    return (hist.transpose(1, 0, 2) @ vec[:, :, None])[:, :, 0].T


def _mix(weights: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """(L, d) sums over history steps t of ``weights[t, i] * hist[t, i]``."""
    return (weights.T[:, None, :] @ hist.transpose(1, 0, 2))[:, 0, :]


class LuongAttention:
    """Bilinear-score attention of a decoder state over encoder history.

    score_t = dec . (W_score enc_t); weights = softmax over history steps;
    context = sum_t weight_t * enc_t; out = tanh(W_out [context, dec]).
    The history comes stacked as one (H, L, d) tensor and row i of the
    decoder state attends over row i of each history entry.  The score is
    computed as (dec W_score) . enc_t, so the score matrix meets the decoder
    state once per call rather than every history entry.

    A call is one tape node.  Scores and context are matrix products
    batched over rows (:func:`_scores`, :func:`_mix`) that build no (H, L, d)
    array.  Recording, each step keeps the (H, L) weights, the projected
    query, the joint [context, dec] and the output, each (L, width); the
    history's gradient over all steps is one product batched over rows.
    """

    def __init__(self, rng, hidden_dim: int, name: str = "attention"):
        self.name = name
        self.hidden_dim = hidden_dim
        self.w_score = Linear(rng, hidden_dim, hidden_dim, bias=False, name=f"{name}.score")
        self.w_out = Linear(rng, 2 * hidden_dim, hidden_dim, name=f"{name}.out")

    def __call__(self, history: Tensor, decoder_state: Tensor) -> Tensor:
        if history.shape[0] == 0:
            raise ValueError(f"{self.name}: empty encoder history")
        parents = (history, decoder_state, *_weights(self))
        buf = StepBuffers(1, parents)

        def backward(g):
            grads = StepBuffers(1)
            d_state = self._backward(buf, grads, 0, history.data, g)
            return (self.history_grad(buf, grads), d_state, *self._param_grads(buf, grads))

        return Tensor._make(self._forward(buf, 0, history.data, decoder_state.data), parents, backward)

    def _forward(self, buf: StepBuffers, t: int, hist: np.ndarray, state: np.ndarray) -> np.ndarray:
        n, hd = state.shape
        query = np.matmul(state, self.w_score.weight.data, out=buf.slot("query", t, state.shape))
        logits = _scores(hist, query)
        _check_finite(f"{self.name} scores", logits)
        exp = np.exp(logits - logits.max(axis=0))
        # (H, L) weights stored as (L, H), the layout of exp: _mix's summation order depends on it
        weights = np.divide(exp, exp.sum(axis=0, keepdims=True), out=buf.slot("weights", t, (n, len(hist))).T)
        joint = buf.slot("mixed", t, (n, 2 * hd))
        joint[:, :hd], joint[:, hd:] = _mix(weights, hist), state
        out = self.w_out.apply(joint, out=buf.slot("attended", t, state.shape))
        return np.tanh(out, out=out)

    def _backward(self, buf: StepBuffers, grads: StepBuffers, t: int, hist, g) -> np.ndarray:
        """Step t's backward for output gradient ``g``, into ``grads``; returns the decoder state's."""
        hd, out, weights = self.hidden_dim, buf.slot("attended", t), buf.slot("weights", t).T
        d_z = np.multiply(g, 1.0 - out * out, out=grads.slot("d_z", t, g.shape))
        d_joint = np.matmul(d_z, self.w_out.weight.data, out=grads.slot("d_joint", t, (len(g), 2 * hd)))
        d_weights = _scores(hist, d_joint[:, :hd])
        d_logits = np.multiply(weights, d_weights - (weights * d_weights).sum(axis=0),
                               out=grads.slot("d_logits", t, weights.T.shape).T)
        d_query = grads.slot("d_query", t, g.shape)
        d_query[...] = _mix(d_logits, hist)
        return d_joint[:, hd:] + d_query @ self.w_score.weight.data.T

    def _param_grads(self, buf: StepBuffers, grads: StepBuffers) -> tuple:
        joint = buf.rows("mixed")
        return (joint[:, self.hidden_dim:].T @ grads.rows("d_query"), *self.w_out.param_grads(grads.rows("d_z"), joint))

    def history_grad(self, buf: StepBuffers, grads: StepBuffers) -> np.ndarray:
        """The (H, L, d) history gradient over all steps: per row i, one product of every
        step's [weights, d_logits][:, i] and [d_context; query][i]."""
        left = np.concatenate([a.transpose(1, 2, 0) for a in (buf.all["weights"], grads.all["d_logits"])], axis=2)
        right = np.concatenate([a.transpose(1, 0, 2) for a in (grads.all["d_joint"][..., :self.hidden_dim],
                                                               buf.all["query"])], axis=1)
        return (left @ right).transpose(1, 0, 2)

    def params(self):
        yield from self.w_score.params()
        yield from self.w_out.params()


class SpaceTimeEmbedding:
    """Trainable lookup tables for calendar fields plus a location projection.

    The output row per hour and station is [hour row, day-of-week row, month
    row, projected (lat/90, lon/180)], four blocks of the embedding width
    each.  A call embeds all hours of a window as one tape node that keeps
    the scaled coordinates (stations, 2) and the ids, which must be in range
    (``WindowSample.validate`` checks them).
    """

    def __init__(self, rng, embed_dim: int, name: str = "embed"):
        self.name = name
        self.embed_dim, self.out_dim = embed_dim, 4 * embed_dim
        self.hour_table = Tensor(init_matrix(rng, 24, embed_dim), requires_grad=True)
        self.dow_table = Tensor(init_matrix(rng, 7, embed_dim), requires_grad=True)
        self.month_table = Tensor(init_matrix(rng, 12, embed_dim), requires_grad=True)
        self.location = Linear(rng, 2, embed_dim, name=f"{name}.location")

    def __call__(self, spacetime: np.ndarray, coords: np.ndarray) -> Tensor:
        """(S*L, out_dim) rows for ids ``spacetime`` (S, 3) at L stations; row s*L + i: hour s, station i."""
        ids = np.asarray(spacetime, dtype=np.int64).reshape(-1, 3) - np.array([0, 0, 1])
        scaled = np.asarray(coords, dtype=float).reshape(-1, 2) / LOCATION_SCALE
        e, n_hours, n = self.embed_dim, ids.shape[0], scaled.shape[0]
        tables = (self.hour_table, self.dow_table, self.month_table)
        out = np.empty((n_hours, n, self.out_dim))
        for k, table in enumerate(tables):
            out[:, :, k * e:(k + 1) * e] = table.data[ids[:, k], None]
        out[:, :, 3 * e:] = self.location.apply(scaled)

        def backward(g):
            g = g.reshape(n_hours, n, self.out_dim)
            per_hour = g[:, :, :3 * e].sum(axis=1)
            grads = [np.zeros(table.shape) for table in tables]
            for k, d_table in enumerate(grads):
                np.add.at(d_table, ids[:, k], per_hour[:, k * e:(k + 1) * e])
            d_loc = g[:, :, 3 * e:].sum(axis=0)
            return (*grads, *self.location.param_grads(d_loc, scaled))

        return Tensor._make(out.reshape(n_hours * n, self.out_dim), _weights(self), backward)

    def params(self):
        yield f"{self.name}.hour", self.hour_table
        yield f"{self.name}.dow", self.dow_table
        yield f"{self.name}.month", self.month_table
        yield from self.location.params()


class Mlp:
    """Two-layer perceptron head: affine, tanh, affine to one output per row.

    A call is one tape node; recording, each step keeps its tanh layer.
    """

    def __init__(self, rng, in_dim: int, hidden_dim: int, name: str = "mlp"):
        self.name = name
        self.hidden = Linear(rng, in_dim, hidden_dim, name=f"{name}.hidden")
        self.out = Linear(rng, hidden_dim, 1, name=f"{name}.out")

    def __call__(self, x: Tensor) -> Tensor:
        parents = (x, *_weights(self))
        buf = StepBuffers(1, parents)

        def backward(g):
            grads = StepBuffers(1)
            return (self._backward(buf, grads, 0, g), *self._param_grads(buf, grads, x.data))

        return Tensor._make(self._forward(buf, 0, x.data), parents, backward)

    def _forward(self, buf: StepBuffers, t: int, x: np.ndarray) -> np.ndarray:
        _check_finite(f"{self.name} input", x)
        hidden = self.hidden.apply(x, out=buf.slot("hidden", t, (len(x), self.out.in_dim)))
        return self.out.apply(np.tanh(hidden, out=hidden))

    def _backward(self, buf: StepBuffers, grads: StepBuffers, t: int, g) -> np.ndarray:
        """Step t's backward for output gradient ``g`` (rows, 1), into ``grads``; returns the input's."""
        hidden = buf.slot("hidden", t)
        grads.slot("d_out", t, g.shape)[...] = g
        d_hidden = np.multiply(g @ self.out.weight.data, 1.0 - hidden * hidden, out=grads.slot("d_hidden", t, hidden.shape))
        return d_hidden @ self.hidden.weight.data

    def _param_grads(self, buf: StepBuffers, grads: StepBuffers, x_rows: np.ndarray) -> tuple:
        """Gradients over every step's rows, for the inputs ``x_rows`` of all steps."""
        return (*self.hidden.param_grads(grads.rows("d_hidden"), x_rows),
                *self.out.param_grads(grads.rows("d_out"), buf.rows("hidden")))

    def params(self):
        yield from self.hidden.params()
        yield from self.out.params()
