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
are available there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, concat, no_grad, single_threaded_blas, stack, zero_grads
from .container import load_arrays, save_arrays
from .data import WindowSample
from .errors import DataError, UsageError
from .geo import EDGE_FEATURES, StationNetwork, inverse_distance_weights
from .layers import (
    GraphLayout,
    GruCell,
    LuongAttention,
    Mlp,
    ScalarGraphConv,
    SpaceTimeEmbedding,
    TransformerConv,
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
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; expected one of {sorted(VARIANTS)}")
        if self.hidden <= 0 or self.history_steps <= 0 or self.forecast_steps <= 0:
            raise UsageError("hidden, history_steps and forecast_steps must be positive")

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

        if config.graph_mode != "none":
            if network is None:
                raise UsageError(f"graph mode {config.graph_mode!r} needs a station network")
            self.layout = GraphLayout(network.edges, network.n_stations)
        else:
            self.layout = None
        if config.graph_mode == "binary":
            # mean aggregation: every sink of an edge has in-degree >= 1
            self.edge_coef = 1.0 / self.layout.in_degree[self.layout.dst]
        elif config.graph_mode == "inverse-distance":
            self.edge_coef = inverse_distance_weights(network)
        else:
            self.edge_coef = None

        self.embed = SpaceTimeEmbedding(rng, EMBED_DIM, name="embed")
        # per-node encoder input: attributes + spacetime embedding + target
        p, hidden = config.node_dim + self.embed.out_dim + 1, config.hidden
        if config.graph_mode == "edge-attrs":
            self.conv = TransformerConv(rng, p, hidden, len(EDGE_FEATURES), name="encoder.conv")
        elif config.graph_mode in ("binary", "inverse-distance"):
            self.conv = ScalarGraphConv(rng, p, hidden, name="encoder.conv")
        else:
            self.conv = None
        enc_in = p + (hidden if self.conv is not None else 0)
        self.encoder_gru = GruCell(rng, enc_in, hidden, name="encoder.gru")
        self.encoder_head = Mlp(rng, hidden, hidden, name="encoder.head")
        self.decoder_gru = GruCell(rng, self.embed.out_dim + 1, hidden, name="decoder.gru")
        self.attention = (LuongAttention(rng, hidden, name="decoder.attention")
                          if config.use_attention else None)
        self.decoder_head = Mlp(rng, hidden, hidden, name="decoder.head")

        self.params: dict[str, Tensor] = {}
        for part in (self.embed, self.conv, self.encoder_gru, self.encoder_head,
                     self.decoder_gru, self.attention, self.decoder_head):
            if part is None:
                continue
            for name, tensor in part.params():
                if name in self.params:
                    raise RuntimeError(f"duplicate parameter name {name}")
                self.params[name] = tensor

    # -- parameter accounting ------------------------------------------------

    def parameter_count(self) -> int:
        return int(sum(t.data.size for t in self.params.values()))

    def graph_parameter_count(self) -> int:
        return int(sum(t.data.size for n, t in self.params.items() if n.startswith("encoder.conv")))

    def attention_parameter_count(self) -> int:
        return int(sum(t.data.size for n, t in self.params.items() if n.startswith("decoder.attention")))

    def zero_grad(self) -> None:
        zero_grads(self.params.values())

    # -- full unroll -----------------------------------------------------------

    @single_threaded_blas()
    def forward(self, sample: WindowSample) -> Tensor:
        """Predictions for the forecast period, shape (F, L), on the tape.

        The encoder joins node attributes, embeddings and history targets of
        as many hours as one graph-layer call takes, runs the graph layer on
        their union, then the GRU hour by hour; the decoder feeds back its own
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

        xbar = self.embed(sample.spacetime, sample.coords)
        k = h_steps if self.layout is None else self.layout.hours_per_call(h_steps)
        h = Tensor(np.zeros((n, cfg.hidden)))
        history: list[Tensor] = []
        for start in range(0, h_steps, k):
            hours = min(k, h_steps - start)
            nodes = concat([Tensor(sample.x[start:start + hours].reshape(hours * n, -1)),
                            xbar.rows(start * n, (start + hours) * n),
                            Tensor(sample.y_hist[start:start + hours].reshape(-1, 1))])
            parts = [nodes]
            if self.conv is not None:
                edge = (np.tile(self.edge_coef, hours) if self.edge_coef is not None else
                        Tensor(sample.edge_feats[start:start + hours].reshape(-1, len(EDGE_FEATURES))))
                parts.append(self.conv(nodes, self.layout.union(hours), edge))
            for t in range(hours):
                h = self.encoder_gru.step(h, *(x.rows(t * n, (t + 1) * n) for x in parts))
                history.append(h)
        # the decoder starts from the encoder's final per-step prediction
        prev = self.encoder_head(h)

        memory = stack(history) if self.attention is not None else None
        outs: list[Tensor] = []
        for t in range(h_steps, h_steps + f_steps):
            h = self.decoder_gru.step(h, xbar.rows(t * n, (t + 1) * n), prev)
            prev = self.decoder_head(h if memory is None else self.attention(memory, h))
            outs.append(prev.reshape(n))
        return stack(outs)

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
        try:
            config = ModelConfig(**meta["config"])
        except TypeError as exc:
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
            tensor.data[...] = arrays[name]
        return model
