"""Independent numpy reference implementations used as oracles.

These deliberately re-derive the model math with plain numpy (dense loops
over nodes and edges, explicit softmaxes) instead of reusing the package's
tape operations, so that agreement between the two is meaningful.
"""

import math

import numpy as np


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _linear(w, name, x):
    out = x @ w[f"{name}.weight"].T
    bias = w.get(f"{name}.bias")
    return out + bias if bias is not None else out


def ref_gru(w, name, h_prev, x):
    joint = np.concatenate([h_prev, x], axis=1)
    update = _sigmoid(_linear(w, f"{name}.update", joint))
    reset = _sigmoid(_linear(w, f"{name}.reset", joint))
    cand = np.tanh(_linear(w, f"{name}.candidate", np.concatenate([reset * h_prev, x], axis=1)))
    return (1.0 - update) * h_prev + update * cand


def ref_mlp(w, name, x):
    return _linear(w, f"{name}.out", np.tanh(_linear(w, f"{name}.hidden", x)))


def ref_transformer_conv(w, name, key_dim, nodes, edges, edge_feats):
    n, out_dim = nodes.shape[0], w[f"{name}.root.weight"].shape[0]
    result = np.zeros((n, out_dim))
    for i in range(n):
        result[i] = _linear(w, f"{name}.root", nodes[i])
        incoming = [k for k in range(len(edges)) if edges[k][1] == i]
        if not incoming:
            continue
        logits = []
        for k in incoming:
            src = edges[k][0]
            q = _linear(w, f"{name}.query", nodes[i])
            key = _linear(w, f"{name}.key", nodes[src]) + _linear(w, f"{name}.edge_key", edge_feats[k])
            logits.append(float(q @ key) / math.sqrt(key_dim))
        top = max(logits)
        weights = [math.exp(v - top) for v in logits]
        total = sum(weights)
        for k, wt in zip(incoming, weights):
            src = edges[k][0]
            msg = _linear(w, f"{name}.msg", nodes[src]) + _linear(w, f"{name}.edge_msg", edge_feats[k])
            result[i] += (wt / total) * msg
    return result


def ref_scalar_conv(w, name, nodes, edges, coef):
    n, out_dim = nodes.shape[0], w[f"{name}.root.weight"].shape[0]
    result = np.zeros((n, out_dim))
    for i in range(n):
        result[i] = _linear(w, f"{name}.root", nodes[i])
        for k in range(len(edges)):
            src, dst = edges[k]
            if dst == i:
                result[i] += coef[k] * _linear(w, f"{name}.msg", nodes[src])
    return result


def ref_luong(w, name, history, dec):
    n = dec.shape[0]
    out = np.zeros_like(dec)
    wa = w[f"{name}.score.weight"]
    for node in range(n):
        scores = [float(dec[node] @ (wa @ h[node])) for h in history]
        top = max(scores)
        exp = [math.exp(s - top) for s in scores]
        weights = [e / sum(exp) for e in exp]
        ctx = sum(wt * h[node] for wt, h in zip(weights, history))
        joint = np.concatenate([ctx, dec[node]])
        out[node] = np.tanh(_linear(w, f"{name}.out", joint))
    return out


def ref_embed(w, hour, dow, month, coords):
    n = coords.shape[0]
    loc = _linear(w, "embed.location", coords / np.array([90.0, 180.0]))
    return np.concatenate([
        np.tile(w["embed.hour"][hour], (n, 1)),
        np.tile(w["embed.dow"][dow], (n, 1)),
        np.tile(w["embed.month"][month - 1], (n, 1)),
        loc,
    ], axis=1)


def ref_forward(model, sample):
    """Full numpy unroll of a forecaster on one window; returns (F, L)."""
    cfg = model.config
    w = {name: t.data for name, t in model.params.items()}
    n = sample.n_stations
    edges = model.layout and list(map(tuple, np.column_stack([model.layout.src, model.layout.dst])))

    xbar = [ref_embed(w, int(h), int(d), int(m), sample.coords) for h, d, m in sample.spacetime]

    h = np.zeros((n, cfg.hidden))
    history = []
    for t in range(cfg.history_steps):
        p = np.concatenate([sample.x[t], xbar[t], sample.y_hist[t].reshape(n, 1)], axis=1)
        if cfg.graph_mode == "edge-attrs":
            eta = ref_transformer_conv(w, "encoder.conv", cfg.hidden, p, edges, sample.edge_feats[t])
            gru_in = np.concatenate([p, eta], axis=1)
        elif cfg.graph_mode in ("binary", "inverse-distance"):
            eta = ref_scalar_conv(w, "encoder.conv", p, edges, model.edge_coef)
            gru_in = np.concatenate([p, eta], axis=1)
        else:
            gru_in = p
        h = ref_gru(w, "encoder.gru", h, gru_in)
        history.append(h)
    prev = ref_mlp(w, "encoder.head", h)

    dec_h = h
    outs = []
    for t in range(cfg.history_steps, cfg.history_steps + cfg.forecast_steps):
        dec_h = ref_gru(w, "decoder.gru", dec_h, np.concatenate([xbar[t], prev], axis=1))
        ctx = ref_luong(w, "decoder.attention", history, dec_h) if cfg.use_attention else dec_h
        prev = ref_mlp(w, "decoder.head", ctx)
        outs.append(prev.ravel().copy())
    return np.stack(outs, axis=0)
