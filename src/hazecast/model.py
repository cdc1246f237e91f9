"""Encoder-decoder forecasters over station graphs, with ablation variants.

The full model couples a per-timestep graph layer (attention message passing
with dynamic edge attributes) to a GRU in the encoder, and a GRU plus
history attention to a prediction head in the decoder.  The ablation
variants are configuration points of the same assembly, and the variant is
the model's only switch: its row in :data:`VARIANTS` fixes both columns.

======== ============== =========================
variant  attention      graph mode
======== ============== =========================
agnn_gru yes            edge-attrs (directed)
gnn_gru  no             edge-attrs (directed)
wgc_gru  no             inverse-distance weights
gc_gru   no             binary weights, mean aggregation
gru      no             none
======== ============== =========================

The decoder runs autoregressively on its own previous output (starting from
the encoder's final per-step prediction) and never reads node or edge
attributes from the forecast period; only the calendar/location embeddings
are available there.  The graph layer reads data only, never the recurrent
state, so the encoder runs it first, once per union of hours, and then the
GRU over all H hours as one tape node.  The decoder is one node per window;
neither recurrence keeps per-step arrays in ``predict``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import StepBuffers, Tensor, concat, no_grad, single_threaded_blas, zero_grads
from .container import load_arrays, save_arrays
from .data import WindowSample
from .errors import DataError, UsageError, check_size
from .geo import EDGE_FEATURES, StationNetwork, inverse_distance_weights
from .layers import (
    GraphLayout,
    GruCell,
    LuongAttention,
    Mlp,
    ScalarGraphConv,
    SpaceTimeEmbedding,
    TransformerConv,
    _weights,
)

CHECKPOINT_VERSION = 5

#: Width of each calendar table row and of the location projection.
EMBED_DIM = 8

#: variant name -> (use_attention, graph_mode)
VARIANTS = {
    "agnn_gru": (True, "edge-attrs"),
    "gnn_gru": (False, "edge-attrs"),
    "wgc_gru": (False, "inverse-distance"),
    "gc_gru": (False, "binary"),
    "gru": (False, "none"),
}


@dataclass
class ModelConfig:
    """Architecture settings.  The variant's row fixes attention and graph
    mode; the embedding width is the constant :data:`EMBED_DIM`."""

    variant: str
    hidden: int
    history_steps: int
    forecast_steps: int
    node_dim: int

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}")
        for name in ("hidden", "history_steps", "forecast_steps", "node_dim"):
            check_size(name, getattr(self, name), 0 if name == "node_dim" else 1)

    @property
    def use_attention(self) -> bool:
        return VARIANTS[self.variant][0]

    @property
    def graph_mode(self) -> str:
        return VARIANTS[self.variant][1]

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Forecaster:
    """A parameterized variant, ready for forward evaluation and training."""

    def __init__(self, config: ModelConfig, network: StationNetwork | None = None, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)

        self.embed = SpaceTimeEmbedding(rng, EMBED_DIM, name="embed")
        # per-node encoder input: attributes + spacetime embedding + target
        p, hidden = config.node_dim + self.embed.out_dim + 1, config.hidden
        self.layout = self.edge_coef = self.conv = None
        if config.graph_mode != "none":
            if network is None:
                raise UsageError(f"graph mode {config.graph_mode!r} needs a station network")
            self.layout = GraphLayout(network.edges, network.n_stations)
            if config.graph_mode == "edge-attrs":
                self.conv = TransformerConv(rng, p, hidden, len(EDGE_FEATURES), name="encoder.conv")
            else:
                self.conv = ScalarGraphConv(rng, p, hidden, name="encoder.conv")
                # binary: the mean over in-edges; every sink of an edge has in-degree >= 1
                self.edge_coef = (1.0 / self.layout.in_degree[self.layout.dst] if config.graph_mode == "binary"
                                  else inverse_distance_weights(network))
        enc_in = p + (hidden if self.conv is not None else 0)
        self.encoder_gru = GruCell(rng, enc_in, hidden, name="encoder.gru")
        self.encoder_head = Mlp(rng, hidden, hidden, name="encoder.head")
        self.decoder_gru = GruCell(rng, self.embed.out_dim + 1, hidden, name="decoder.gru")
        self.attention = (LuongAttention(rng, hidden, name="decoder.attention")
                          if config.use_attention else None)
        self.decoder_head = Mlp(rng, hidden, hidden, name="decoder.head")

        self.params: dict[str, Tensor] = {}
        for part in filter(None, (self.embed, self.conv, self.encoder_gru, self.encoder_head,
                                  self.decoder_gru, self.attention, self.decoder_head)):   # None: not in the variant
            for name, tensor in part.params():
                if name in self.params:
                    raise RuntimeError(f"duplicate parameter name {name}")
                self.params[name] = tensor

    def zero_grad(self) -> None:
        zero_grads(self.params.values())

    # -- full unroll -----------------------------------------------------------

    @single_threaded_blas()
    def forward(self, sample: WindowSample) -> Tensor:
        """Predictions for the forecast period, shape (F, L), on the tape.

        The encoder joins node attributes, embeddings and history targets of
        all H hours once, calls the graph layer on row blocks of that join,
        one per union of hours, and unrolls the GRU once over all H hours; its
        states are the attention's memory.  The decoder feeds back its own
        outputs.  Of the forecast period only the calendar is read.  A window
        that does not fit the model raises ``DataError``.
        """
        cfg = self.config
        sample.validate()
        h_steps, f_steps, n = sample.history_steps, sample.forecast_steps, sample.n_stations
        if h_steps != cfg.history_steps or f_steps != cfg.forecast_steps:
            raise DataError(
                f"window spans H={h_steps}, F={f_steps}; model expects "
                f"H={cfg.history_steps}, F={cfg.forecast_steps}")
        if sample.x.shape[2] != cfg.node_dim:
            raise DataError(f"window has {sample.x.shape[2]} node attributes, model expects {cfg.node_dim}")
        if self.layout is not None and n != self.layout.n_nodes:
            raise DataError(f"window has {n} stations; the model's network has {self.layout.n_nodes}")
        if cfg.graph_mode == "edge-attrs":
            expected = (h_steps, self.layout.n_edges, len(EDGE_FEATURES))
            got = None if sample.edge_feats is None else sample.edge_feats.shape
            if got != expected:
                raise DataError(f"graph mode 'edge-attrs' needs edge attributes of shape {expected}, got {got}")

        xbar, hn = self.embed(sample.spacetime, sample.coords), h_steps * n
        nodes = concat([Tensor(sample.x.reshape(hn, -1)), xbar.rows(0, hn), Tensor(sample.y_hist.reshape(hn, 1))])
        parts = [nodes]
        if self.conv is not None:
            k, convs = self.layout.hours_per_call(h_steps), []
            for start in range(0, h_steps, k):
                hours = min(k, h_steps - start)
                edge = (np.tile(self.edge_coef, hours) if self.edge_coef is not None else
                        sample.edge_feats[start:start + hours].reshape(-1, len(EDGE_FEATURES)))
                convs.append(self.conv(nodes.rows(start * n, (start + hours) * n), self.layout.union(hours), edge))
            parts.append(concat(convs, axis=0))
        memory = self.encoder_gru.unroll(Tensor(np.zeros((n, cfg.hidden))), *parts)
        h = memory.rows(hn - n, hn)
        # the decoder starts from the encoder's final per-step prediction
        return self.decode(h, self.encoder_head(h), xbar.rows(hn, (h_steps + f_steps) * n), memory)

    def decode(self, h0: Tensor, prev0: Tensor, inputs: Tensor, memory: Tensor | None) -> Tensor:
        """The (F, L) predictions of the decoder GRU, attention and head, as one tape node.

        Hour t reads rows t*L.. of ``inputs`` and the previous prediction, and
        the attention, if any, the (H*L, hidden) encoder states ``memory``.
        Backward gives each weight one product over F*L rows (see each part's
        class).
        """
        gru, head, attention = self.decoder_gru, self.decoder_head, self.attention
        steps, (n, hd) = self.config.forecast_steps, h0.shape
        parents = (h0, prev0, inputs, *_weights(gru), *_weights(head))
        parents += () if attention is None else (*_weights(attention), memory)
        buf = StepBuffers(steps, parents)  # the three parts' buffer names differ
        hist = None if attention is None else memory.data.reshape(-1, n, hd)
        x, preds, h, prev = inputs.data, np.empty((steps, n)), h0.data, prev0.data
        for t in range(steps):
            h = gru._forward(buf, t, h, (x[t * n:(t + 1) * n], prev), buf.slot("state", t, (n, hd)))
            prev = head._forward(buf, t, h if attention is None else attention._forward(buf, t, hist, h))
            preds[t] = prev[:, 0]

        def backward(g):
            grads, d_x = StepBuffers(steps), np.empty((steps, n, gru.input_dim))
            d_h, d_prev = np.zeros((n, hd)), np.zeros((n, 1))
            for t in reversed(range(steps)):
                d_a = head._backward(buf, grads, t, g[t][:, None] + d_prev)
                if attention is not None:
                    d_a = attention._backward(buf, grads, t, hist, d_a)
                d_h = gru._backward(buf, grads, t, d_a + d_h, d_x[t])
                d_prev = d_x[t, :, -1:]
            out = [d_h, d_prev, d_x.reshape(steps * n, -1)[:, :-1], *gru._param_grads(buf, grads),
                   *head._param_grads(buf, grads, buf.rows("state" if attention is None else "attended"))]
            if attention is not None:
                out += [*attention._param_grads(buf, grads), attention.history_grad(buf, grads).reshape(-1, hd)]
            return out

        return Tensor._make(preds, parents, backward)

    def predict(self, sample: WindowSample) -> np.ndarray:
        """Forward pass without recording gradients; returns an (F, L) array."""
        with no_grad():
            return self.forward(sample).data

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.params.items()}
        meta = {
            "kind": "hazecast-checkpoint",
            "checkpoint_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
        }
        save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path, network: StationNetwork | None = None) -> "Forecaster":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "hazecast-checkpoint":
            raise DataError(f"{path}: not a model checkpoint")
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {meta.get('checkpoint_version')}")
        if not isinstance(meta.get("config"), dict):
            raise DataError(f"{path}: checkpoint has no config")
        try:
            config = ModelConfig(**meta["config"])
        except (TypeError, UsageError) as exc:
            raise DataError(f"{path}: checkpoint config does not fit this model: {exc}") from None
        model = cls(config, network=network, seed=0)
        missing = set(model.params) - set(arrays)
        extra = set(arrays) - set(model.params)
        if missing or extra:
            raise DataError(f"{path}: parameter mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, tensor in model.params.items():
            if arrays[name].shape != tensor.data.shape:
                raise DataError(f"{path}: parameter {name} has shape {arrays[name].shape}, "
                                f"expected {tensor.data.shape}")
            if arrays[name].dtype != np.float64:
                raise DataError(f"{path}: parameter {name} has dtype {arrays[name].dtype}, expected float64")
            if not np.isfinite(arrays[name]).all():
                raise DataError(f"{path}: parameter {name} holds non-finite values")
            tensor.data[...] = arrays[name]
        return model
