import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from hazecast.autodiff import Tensor, no_grad
from hazecast.data import WindowSample
from hazecast.errors import DataError, NumericError
from hazecast.geo import Station, build_network, edge_attributes_at
from hazecast.layers import (
    GraphLayout,
    GruCell,
    Linear,
    LuongAttention,
    Mlp,
    ScalarGraphConv,
    SpaceTimeEmbedding,
    UNION_EDGE_ROWS,
    TransformerConv,
    _segment_softmax,
)
from hazecast.model import Forecaster, ModelConfig

from gradcheck import assert_gradients_match
from reference import ref_embed, ref_transformer_conv


def params_dict(layer):
    return dict(layer.params())


def zero_all(layer):
    for _, t in layer.params():
        t.data[...] = 0.0


# ---------------------------------------------------------------- GRU


class TestGruCell:
    def test_zero_weights_halve_hidden(self):
        rng = np.random.default_rng(0)
        cell = GruCell(rng, input_dim=4, hidden_dim=3)
        zero_all(cell)
        h_prev = np.array([[0.4, -1.2, 2.0]])
        out = cell.step(Tensor(h_prev), Tensor(np.zeros((1, 4))))
        # update gate sigmoid(0)=0.5, candidate tanh(0)=0 -> h = 0.5*h_prev
        assert np.allclose(out.data, 0.5 * h_prev)

    def test_zero_hidden_zero_weights(self):
        rng = np.random.default_rng(0)
        cell = GruCell(rng, input_dim=4, hidden_dim=3)
        zero_all(cell)
        out = cell.step(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 4))))
        assert np.all(out.data == 0.0)

    def test_matches_elementwise_formula_oracle(self):
        rng = np.random.default_rng(42)
        cell = GruCell(rng, input_dim=2, hidden_dim=3)
        h_prev = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 2))
        out = cell.step(Tensor(h_prev), Tensor(x)).data

        wu, bu = cell.w_update.weight.data, cell.w_update.bias.data
        wr, br = cell.w_reset.weight.data, cell.w_reset.bias.data
        wc, bc = cell.w_cand.weight.data, cell.w_cand.bias.data

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for n in range(4):
            joint = list(h_prev[n]) + list(x[n])
            z = [sig(sum(wu[i][k] * joint[k] for k in range(5)) + bu[i]) for i in range(3)]
            r = [sig(sum(wr[i][k] * joint[k] for k in range(5)) + br[i]) for i in range(3)]
            gated = [r[i] * h_prev[n][i] for i in range(3)] + list(x[n])
            h_cand = [math.tanh(sum(wc[i][k] * gated[k] for k in range(5)) + bc[i]) for i in range(3)]
            for i in range(3):
                expect = (1 - z[i]) * h_prev[n][i] + z[i] * h_cand[i]
                assert out[n, i] == pytest.approx(expect, rel=1e-12)

    def test_boundedness(self):
        rng = np.random.default_rng(9)
        cell = GruCell(rng, input_dim=3, hidden_dim=5)
        for _ in range(50):
            h_prev = rng.normal(scale=3.0, size=(2, 5))
            x = rng.normal(scale=3.0, size=(2, 3))
            out = cell.step(Tensor(h_prev), Tensor(x)).data
            assert np.all(np.abs(out) <= np.maximum(np.abs(h_prev), 1.0) + 1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        cell = GruCell(rng, input_dim=4, hidden_dim=3)
        with pytest.raises(ValueError):
            cell.step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 5))))

    def test_nonfinite_input_rejected(self):
        rng = np.random.default_rng(0)
        cell = GruCell(rng, input_dim=2, hidden_dim=2)
        bad = np.array([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            cell.step(Tensor(np.zeros((1, 2))), Tensor(bad))

    def test_gradients(self):
        rng = np.random.default_rng(10)
        cell = GruCell(rng, input_dim=3, hidden_dim=4)
        h_prev = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 4))

        def loss():
            return (cell.step(h_prev, x) * probe).sum()

        tensors = params_dict(cell)
        tensors["h_prev"], tensors["x"] = h_prev, x
        assert_gradients_match(loss, tensors)

    def test_gradients_with_constant_inputs(self):
        rng = np.random.default_rng(19)
        cell = GruCell(rng, input_dim=2, hidden_dim=3)
        h_prev, x = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 2)))
        probe = rng.normal(size=(2, 3))

        def loss():
            return (cell.step(h_prev, x) * probe).sum()

        assert_gradients_match(loss, params_dict(cell))

    def test_one_tape_node_per_step(self):
        rng = np.random.default_rng(20)
        cell = GruCell(rng, input_dim=2, hidden_dim=3)
        h_prev = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        assert recorded_nodes(cell.step(h_prev, x), stop=(h_prev, x)) == 1


    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_unroll_gradients(self, steps):
        rng = np.random.default_rng(30 + steps)
        cell = GruCell(rng, input_dim=3, hidden_dim=4)
        h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        parts = [Tensor(rng.normal(size=(steps * 2, w)), requires_grad=True) for w in (2, 1)]
        probe = rng.normal(size=(steps * 2, 4))

        def loss():
            return (cell.unroll(h0, *parts) * probe).sum()

        tensors = params_dict(cell)
        tensors["h0"], tensors["part0"], tensors["part1"] = h0, *parts
        assert_gradients_match(loss, tensors)

    @pytest.mark.parametrize("record", [True, False])
    def test_unroll_equals_steps_bitwise(self, record):
        rng = np.random.default_rng(33)
        cell = GruCell(rng, input_dim=3, hidden_dim=4)
        h = h0 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        parts = [Tensor(rng.normal(size=(6 * 5, w))) for w in (2, 1)]
        with contextlib.nullcontext() if record else no_grad():
            states = cell.unroll(h0, *parts)
        assert recorded_nodes(states, stop=(h0,)) == int(record)
        for t in range(6):
            h = cell.step(h, *(Tensor(x.data[t * 5:(t + 1) * 5]) for x in parts))
            assert states.data[t * 5:(t + 1) * 5].tobytes() == h.data.tobytes()

    def test_unroll_rejects_ragged_inputs(self):
        cell = GruCell(np.random.default_rng(0), input_dim=3, hidden_dim=4)
        with pytest.raises(ValueError):
            cell.unroll(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 1))))


# ---------------------------------------------------------------- graph layout


def kept_cells(layout, run):
    """``layout``'s cells per side and width after ``run()``, checked to be the same
    arrays, none added, after three more runs."""
    run()
    cells = {side: dict(by_width) for side, by_width in layout._cells.items()}
    for _ in range(3):
        run()
    for side, by_width in cells.items():
        assert layout._cells[side].keys() == by_width.keys()
        assert all(layout._cells[side][width] is by_width[width] for width in by_width)
    return cells


class TestGraphLayout:
    def test_in_degree_counts_in_edges(self):
        layout = tiny_graph()
        assert layout.in_degree.tolist() == [1, 0, 2]

    def test_aggregate_sums_into_sinks(self):
        per_edge = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        layout = tiny_graph()
        assert layout.aggregate(per_edge).tolist() == [[5.0, 6.0], [0.0, 0.0], [4.0, 6.0]]
        assert layout.aggregate(per_edge, "src").tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.parametrize("n_edges", [80, 0])
    @pytest.mark.parametrize("width", [1, 5, 41])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_cached_segment_sum_bit_identical_to_add_at(self, side, width, n_edges):
        rng = np.random.default_rng(32)
        layout = GraphLayout(rng.integers(0, 7, size=(n_edges, 2)), n_nodes=9)  # 7, 8 never hit
        for _ in range(2):  # the first call builds the cells, the second reuses them
            # long sums over mixed magnitudes make the summation order visible
            values = rng.normal(size=(n_edges, width)) * 10.0 ** rng.integers(-4, 4, (n_edges, width))
            expected = np.zeros((9, width))
            np.add.at(expected, getattr(layout, side), values)
            assert layout.aggregate(values, side).tobytes() == expected.tobytes()
        assert list(layout._cells[side]) == [width]

    def test_cell_cache_stops_growing_after_first_call(self):
        rng = np.random.default_rng(33)
        conv = TransformerConv(rng, node_dim=3, out_dim=16, edge_dim=2)
        layout = tiny_graph()
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        feats = rng.normal(size=(3, 2))
        cells = kept_cells(layout, lambda: conv(nodes, layout, feats).sum().backward())
        # per-edge rows are [node input, edge input, 1], never the output width
        assert cells["dst"].keys() | cells["src"].keys() == {1, 3 + 2 + 1}

        # the union of hours that a model's encoder calls keeps its cells too
        stations = [Station(f"s{k}", 25.0 + 0.01 * k, 85.0 + 0.01 * k * k) for k in range(3)]
        net = build_network(stations, threshold_km=6.0)
        model = Forecaster(ModelConfig("agnn_gru", hidden=4, history_steps=4, forecast_steps=2, node_dim=2),
                           net, seed=0)
        union = model.layout.union(model.layout.hours_per_call(4))
        assert union.n_nodes == 4 * 3
        sample = WindowSample(x=rng.normal(size=(4, 3, 2)), y_hist=rng.normal(size=(4, 3)),
                              spacetime=np.tile([0, 0, 1], (6, 1)), coords=net.coordinates(),
                              edge_feats=edge_attributes_at(net, rng.normal(size=(4, 3, 2))))
        cells = kept_cells(union, lambda: model.forward(sample).sum().backward())
        width = 2 + model.embed.out_dim + 1 + 5 + 1   # [x, embedding, y, edge attributes, 1]
        assert (cells["dst"].keys(), cells["src"].keys()) == ({1, width}, {width})

    def test_memory_linear_in_edges(self):
        # ~9k edges on 1000 nodes: a dense (nodes x edges) sink would be 72 MB
        rng = np.random.default_rng(31)
        n_nodes = 1000
        pairs = rng.integers(0, n_nodes, size=(9500, 2))
        edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
        assert edges.shape[0] > 8500
        message = rng.normal(size=(edges.shape[0], 64))
        tracemalloc.start()
        try:
            layout = GraphLayout(edges, n_nodes)
            out = layout.aggregate(message)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n_nodes, 64)
        assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------- TransformerConv


def tiny_graph():
    # 0 -> 2, 1 -> 2, 2 -> 0  (node 1 has no in-edges)
    edges = np.array([[0, 2], [1, 2], [2, 0]])
    return GraphLayout(edges, n_nodes=3)


def dense_conv_oracle(conv, nodes, edges, edge_feats):
    """Brute-force message passing materializing every attention weight."""
    n = nodes.shape[0]
    w = {name: t.data for name, t in conv.params()}
    pre = conv.name

    def lin(tag, vec):
        m = w[f"{pre}.{tag}.weight"]
        b = w.get(f"{pre}.{tag}.bias")
        out = m @ vec
        return out + b if b is not None else out

    result = np.zeros((n, conv.out_dim))
    for i in range(n):
        incoming = [k for k, (_, dst) in enumerate(edges) if dst == i]
        result[i] = lin("root", nodes[i])
        if not incoming:
            continue
        logits = []
        for k in incoming:
            src = edges[k][0]
            q = lin("query", nodes[i])
            key = lin("key", nodes[src]) + lin("edge_key", edge_feats[k])
            logits.append(float(q @ key) / math.sqrt(conv.out_dim))
        m = max(logits)
        weights = [math.exp(v - m) for v in logits]
        total = sum(weights)
        for k, wt in zip(incoming, weights):
            src = edges[k][0]
            msg = lin("msg", nodes[src]) + lin("edge_msg", edge_feats[k])
            result[i] += (wt / total) * msg
    return result


class TestTransformerConv:
    def test_empty_edge_set_is_root_map(self):
        rng = np.random.default_rng(0)
        conv = TransformerConv(rng, node_dim=4, out_dim=3, edge_dim=5)
        layout = GraphLayout(np.zeros((0, 2)), n_nodes=3)
        nodes = rng.normal(size=(3, 4))
        out = conv(Tensor(nodes), layout, np.zeros((0, 5)))
        expected = nodes @ conv.w_root.weight.data.T + conv.w_root.bias.data
        assert np.array_equal(out.data, expected)

    def test_node_without_in_edges_is_root_map(self):
        rng = np.random.default_rng(1)
        conv = TransformerConv(rng, node_dim=4, out_dim=3, edge_dim=5)
        layout = tiny_graph()
        nodes = rng.normal(size=(3, 4))
        feats = rng.normal(size=(3, 5))
        out = conv(Tensor(nodes), layout, feats)
        expected1 = conv.w_root.weight.data @ nodes[1] + conv.w_root.bias.data
        assert np.allclose(out.data[1], expected1)

    def test_single_in_neighbor_weight_is_one(self):
        rng = np.random.default_rng(2)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=5)
        layout = GraphLayout(np.array([[0, 1]]), n_nodes=2)
        nodes = rng.normal(size=(2, 3))
        feats = rng.normal(size=(1, 5))
        out = conv(Tensor(nodes), layout, feats)
        root = nodes[1] @ conv.w_root.weight.data.T + conv.w_root.bias.data
        msg = (nodes[0] @ conv.w_msg.weight.data.T + conv.w_msg.bias.data
               + feats[0] @ conv.w_edge_msg.weight.data.T)
        assert np.allclose(out.data[1], root + msg, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        conv = TransformerConv(rng, node_dim=4, out_dim=3, edge_dim=2)
        n = 3
        edges = np.array([[0, 1], [2, 1], [1, 0], [0, 2], [1, 2]])
        layout = GraphLayout(edges, n_nodes=n)
        nodes = rng.normal(size=(n, 4))
        feats = rng.normal(size=(len(edges), 2))
        out = conv(Tensor(nodes), layout, feats).data
        expected = dense_conv_oracle(conv, nodes, edges, feats)
        assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        layout = tiny_graph()
        logits = rng.normal(scale=30.0, size=(3,))
        alpha = _segment_softmax(logits, layout).ravel()
        for node in range(3):
            mask = layout.dst == node
            if mask.any():
                assert abs(alpha[mask].sum() - 1.0) < 1e-12

    def test_softmax_stable_on_huge_logits(self):
        layout = tiny_graph()
        logits = np.array([5000.0, 5001.0, -4000.0])
        alpha = _segment_softmax(logits, layout)
        assert np.all(np.isfinite(alpha))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        conv = TransformerConv(rng, node_dim=3, out_dim=4, edge_dim=2)
        edges = np.array([[0, 1], [1, 0], [2, 1], [0, 2]])
        nodes = rng.normal(size=(3, 3))
        feats = rng.normal(size=(4, 2))
        base = conv(Tensor(nodes), GraphLayout(edges, 3), feats).data

        perm = np.array([2, 0, 1])  # new index of each old node
        mapped = np.array([[perm[s], perm[d]] for s, d in edges])
        order = np.lexsort((mapped[:, 1], mapped[:, 0]))
        permuted = conv(
            Tensor(nodes[np.argsort(perm)]),
            GraphLayout(mapped[order], 3),
            feats[order],
        ).data
        assert np.allclose(permuted[perm], base, rtol=1e-12, atol=1e-13)

    def test_edge_shape_mismatch(self):
        rng = np.random.default_rng(0)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=5)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((3, 3))), tiny_graph(), np.zeros((3, 4)))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=2)
        layout = tiny_graph()
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        feats = rng.normal(size=(3, 2))
        probe = rng.normal(size=(3, 2))

        def loss():
            return (conv(nodes, layout, feats) * probe).sum()

        tensors = params_dict(conv)
        tensors["nodes"] = nodes
        assert_gradients_match(loss, tensors)

    @pytest.mark.parametrize("oracle_key_biases", [True, False])
    @pytest.mark.parametrize("edges", [
        [[0, 2], [1, 2], [2, 0]],            # node 1 is a sink with no in-edges
        [],                                  # no edges at all: the root map
        [[0, 1]],                            # a single in-neighbour
        [[1, 0], [2, 0], [3, 0], [0, 2]],    # three in-neighbours of one sink
    ])
    def test_gradients_over_layouts(self, edges, oracle_key_biases):
        rng = np.random.default_rng(12 + len(edges))
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=2)
        for _, t in conv.params():  # biases start at zero; their terms need testing too
            t.data[...] = rng.normal(size=t.shape)
        layout = GraphLayout(np.array(edges, dtype=np.int64).reshape(-1, 2), n_nodes=4)
        nodes = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        feats = rng.normal(size=(len(edges), 2))
        probe = rng.normal(size=(4, 2))

        out = conv(nodes, layout, feats).data
        weights = {name: t.data for name, t in conv.params()}
        if oracle_key_biases:  # the softmax cancels them, so the conv has none
            for tag in ("key", "edge_key"):
                weights[f"{conv.name}.{tag}.bias"] = rng.normal(scale=3.0, size=conv.out_dim)
        expected = ref_transformer_conv(weights, conv.name, conv.out_dim, nodes.data, edges, feats)
        assert np.allclose(out, expected, rtol=1e-10, atol=1e-12)
        isolated = layout.in_degree == 0
        assert np.array_equal(out[isolated], conv.w_root.apply(nodes.data)[isolated])

        def loss():
            return (conv(nodes, layout, feats) * probe).sum()

        tensors = params_dict(conv)
        tensors["nodes"] = nodes
        assert_gradients_match(loss, tensors)

    def test_edge_message_bias_is_the_message_bias(self):
        # Every message carries both maps, so an edge-message bias c moves the
        # output exactly as c added to the message bias would: the conv keeps one.
        rng = np.random.default_rng(22)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=2)
        assert [n for n, _ in conv.params() if n.endswith(".bias")] == [
            "conv.root.bias", "conv.msg.bias", "conv.query.bias"]
        for _, t in conv.params():
            t.data[...] = rng.normal(size=t.shape)
        edges = [[0, 1], [2, 1], [1, 0]]
        nodes, feats = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
        split = {name: t.data.copy() for name, t in conv.params()}
        split["conv.edge_msg.bias"] = rng.normal(size=2)
        split["conv.msg.bias"] -= split["conv.edge_msg.bias"]
        out = conv(Tensor(nodes), GraphLayout(np.array(edges), n_nodes=3), feats).data
        expected = ref_transformer_conv(split, conv.name, conv.out_dim, nodes, edges, feats)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-14)

    def test_gradients_with_constant_edge_features(self):
        # Edge attributes are data: backward reads them and writes nothing into them.
        rng = np.random.default_rng(21)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=2)
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        feats = rng.normal(size=(3, 2))
        kept = feats.copy()
        (conv(nodes, tiny_graph(), feats) * rng.normal(size=(3, 2))).sum().backward()
        assert feats.tobytes() == kept.tobytes()
        assert all(t.grad is not None for _, t in conv.params()) and nodes.grad is not None

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(22)
        conv = TransformerConv(rng, node_dim=3, out_dim=2, edge_dim=2)
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = conv(nodes, tiny_graph(), rng.normal(size=(3, 2)))
        assert recorded_nodes(out, stop=(nodes,)) == 1
        assert out._parents == (nodes, *(t for _, t in conv.params()))   # the nodes and the weights only


# ---------------------------------------------------------------- scalar-weight conv


class TestScalarGraphConv:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        conv = ScalarGraphConv(rng, node_dim=3, out_dim=2)
        edges = np.array([[0, 1], [2, 1], [1, 2]])
        layout = GraphLayout(edges, n_nodes=3)
        coef = rng.uniform(0.2, 1.0, size=3)
        nodes = rng.normal(size=(3, 3))
        out = conv(Tensor(nodes), layout, coef).data

        w = {name: t.data for name, t in conv.params()}
        for i in range(3):
            expect = w[f"{conv.name}.root.weight"] @ nodes[i] + w[f"{conv.name}.root.bias"]
            for k, (src, dst) in enumerate(edges):
                if dst == i:
                    expect = expect + coef[k] * (
                        w[f"{conv.name}.msg.weight"] @ nodes[src] + w[f"{conv.name}.msg.bias"])
            assert np.allclose(out[i], expect, rtol=1e-12)

    def test_empty_edge_set_is_root_map(self):
        rng = np.random.default_rng(14)
        conv = ScalarGraphConv(rng, node_dim=3, out_dim=2)
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = conv(nodes, GraphLayout(np.zeros((0, 2)), n_nodes=3), np.zeros(0))
        assert np.array_equal(out.data, conv.w_root.apply(nodes.data))
        out.sum().backward()
        assert np.all(conv.w_msg.weight.grad == 0.0) and np.all(conv.w_msg.bias.grad == 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        conv = ScalarGraphConv(rng, node_dim=2, out_dim=3)
        layout = GraphLayout(np.array([[0, 1], [1, 0]]), n_nodes=2)
        coef = np.array([0.5, 1.0])
        nodes = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def loss():
            return (conv(nodes, layout, coef) * probe).sum()

        tensors = params_dict(conv)
        tensors["nodes"] = nodes
        assert_gradients_match(loss, tensors)

    def test_one_tape_node_per_call_summing_at_input_width(self):
        rng = np.random.default_rng(15)
        conv = ScalarGraphConv(rng, node_dim=3, out_dim=16)
        layout = tiny_graph()
        nodes = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        coef = rng.uniform(0.2, 1.0, size=3)
        out = conv(nodes, layout, coef)
        assert recorded_nodes(out, stop=(nodes,)) == 1
        cells = kept_cells(layout, lambda: conv(nodes, layout, coef).sum().backward())
        # per-edge rows are [node input, 1], never the output width
        assert cells["dst"].keys() | cells["src"].keys() == {3 + 1}


# ---------------------------------------------------------------- hours as one disjoint union


class TestGraphUnion:
    def test_union_offsets_each_copy_and_is_built_once(self):
        layout = GraphLayout(np.array([[0, 1], [2, 1], [1, 0]]), n_nodes=3)
        union = layout.union(2)
        assert union is layout.union(2) and layout.union(1) is layout
        assert union.n_nodes == 6 and union.n_edges == 6
        assert np.array_equal(np.column_stack((union.src, union.dst)),
                              [[0, 1], [2, 1], [1, 0], [3, 4], [5, 4], [4, 3]])
        assert np.array_equal(union.in_degree, np.tile(layout.in_degree, 2))

    @pytest.mark.parametrize("n_edges, n_nodes, hours", [
        (242, 30, UNION_EDGE_ROWS // 242),   # the reference size: 8 hours per call
        (8946, 1000, 1),                     # forecast scale: one hour per call
        (UNION_EDGE_ROWS, 10, 1),
        (0, 3, 24),                          # no edges: every hour in one call
        (2, 3, 24),
    ])
    def test_hours_per_call_bounded_by_edge_rows(self, n_edges, n_nodes, hours):
        layout = GraphLayout(np.zeros((n_edges, 2)), n_nodes=n_nodes)
        assert layout.hours_per_call(24) == hours
        assert layout.hours_per_call(2) == min(2, hours)

    @pytest.mark.parametrize("edges", [[[0, 1], [2, 1], [1, 0], [0, 2], [1, 2]], []])
    @pytest.mark.parametrize("kind", ["transformer", "scalar"])
    def test_union_call_equals_one_hour_calls(self, kind, edges):
        # Forward values and input gradients are bitwise equal; a weight's
        # gradient sums all hours in one product, in another order.
        rng = np.random.default_rng(30 + len(edges))
        hours, n = 3, 3
        layout = GraphLayout(np.array(edges, dtype=np.int64).reshape(-1, 2), n_nodes=n)
        e = layout.n_edges
        nodes = Tensor(rng.normal(size=(hours * n, 4)), requires_grad=True)
        if kind == "transformer":
            conv = TransformerConv(rng, node_dim=4, out_dim=3, edge_dim=2)
            feats = rng.normal(size=(hours * e, 2))
            union_edge, hour_edge = feats, (lambda t: feats[t * e:(t + 1) * e])
        else:
            conv = ScalarGraphConv(rng, node_dim=4, out_dim=3)
            coef = rng.uniform(0.2, 1.0, size=e)
            union_edge, hour_edge = np.tile(coef, hours), (lambda t: coef)
        for _, t in conv.params():
            t.data[...] = rng.normal(size=t.shape)
        tensors = {**params_dict(conv), "nodes": nodes}
        probe = rng.normal(size=(hours * n, 3))

        def run(union):
            for t in tensors.values():
                t.grad = None
            if union:
                outs = [conv(nodes, layout.union(hours), union_edge)]
            else:
                outs = [conv(nodes.rows(t * n, (t + 1) * n), layout, hour_edge(t)) for t in range(hours)]
            probes = np.split(probe, len(outs))
            loss = (outs[0] * probes[0]).sum()
            for o, p in zip(outs[1:], probes[1:]):
                loss = loss + (o * p).sum()
            loss.backward()
            return np.concatenate([o.data for o in outs]), {name: t.grad.copy() for name, t in tensors.items()}

        (out_union, grads_union), (out_hours, grads_hours) = run(True), run(False)
        assert out_union.tobytes() == out_hours.tobytes()
        for name, grad in grads_union.items():
            if name == "nodes":
                assert grad.tobytes() == grads_hours[name].tobytes(), name
            else:
                assert np.allclose(grad, grads_hours[name], rtol=1e-13, atol=1e-14), name


# ---------------------------------------------------------------- Luong attention


class TestLuongAttention:
    def test_singleton_history_context_is_that_state(self):
        rng = np.random.default_rng(5)
        attn = LuongAttention(rng, hidden_dim=3)
        enc = rng.normal(size=(2, 3))
        dec = Tensor(rng.normal(size=(2, 3)))
        out = attn(Tensor(enc[None]), dec).data
        joint = np.concatenate([enc, dec.data], axis=1)
        expected = np.tanh(joint @ attn.w_out.weight.data.T + attn.w_out.bias.data)
        assert np.allclose(out, expected, rtol=1e-14)

    def test_zero_score_matrix_gives_uniform_weights(self):
        rng = np.random.default_rng(6)
        attn = LuongAttention(rng, hidden_dim=2)
        attn.w_score.weight.data[...] = 0.0
        history = rng.normal(size=(4, 3, 2))
        dec = Tensor(rng.normal(size=(3, 2)))
        out = attn(Tensor(history), dec).data
        mean_ctx = sum(history) * 0.25
        joint = np.concatenate([mean_ctx, dec.data], axis=1)
        expected = np.tanh(joint @ attn.w_out.weight.data.T + attn.w_out.bias.data)
        assert np.allclose(out, expected, rtol=1e-12)

    def test_matches_explicit_softmax_oracle(self):
        rng = np.random.default_rng(7)
        attn = LuongAttention(rng, hidden_dim=3)
        history = [rng.normal(size=(2, 3)) for _ in range(4)]
        dec = rng.normal(size=(2, 3))
        out = attn(Tensor(np.stack(history)), Tensor(dec)).data

        wa = attn.w_score.weight.data
        wo, bo = attn.w_out.weight.data, attn.w_out.bias.data
        for node in range(2):
            scores = [float(dec[node] @ (wa @ h[node])) for h in history]
            m = max(scores)
            exp = [math.exp(s - m) for s in scores]
            weights = [e / sum(exp) for e in exp]
            ctx = sum(w * h[node] for w, h in zip(weights, history))
            joint = np.concatenate([ctx, dec[node]])
            expected = np.tanh(wo @ joint + bo)
            assert np.allclose(out[node], expected, rtol=1e-10)

    def test_empty_history_rejected(self):
        rng = np.random.default_rng(0)
        attn = LuongAttention(rng, hidden_dim=2)
        with pytest.raises(ValueError, match="empty"):
            attn(Tensor(np.zeros((0, 1, 2))), Tensor(np.zeros((1, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(14)
        attn = LuongAttention(rng, hidden_dim=3)
        history = Tensor(np.stack([rng.normal(size=(2, 3)) for _ in range(3)]), requires_grad=True)
        dec = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def loss():
            return (attn(history, dec) * probe).sum()

        tensors = params_dict(attn)
        tensors.update(dec=dec, history=history)
        assert_gradients_match(loss, tensors)

    @pytest.mark.parametrize("n_steps", [1, 24])
    def test_gradients_over_history_lengths(self, n_steps):
        rng = np.random.default_rng(16 + n_steps)
        attn = LuongAttention(rng, hidden_dim=3)
        history = Tensor(rng.normal(size=(n_steps, 2, 3)), requires_grad=True)
        dec = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def loss():
            return (attn(history, dec) * probe).sum()

        tensors = params_dict(attn)
        tensors["history"], tensors["dec"] = history, dec
        assert_gradients_match(loss, tensors)

    def test_tape_size_independent_of_history_length(self):
        rng = np.random.default_rng(15)
        attn = LuongAttention(rng, hidden_dim=3)
        counts = []
        for n_steps in (2, 24):
            history = Tensor(rng.normal(size=(n_steps, 4, 3)), requires_grad=True)
            dec = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            counts.append(recorded_nodes(attn(history, dec), stop=(history, dec)))
        assert counts[0] == counts[1]

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(25)
        attn = LuongAttention(rng, hidden_dim=3)
        history = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
        dec = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert recorded_nodes(attn(history, dec), stop=(history, dec)) == 1


def recorded_nodes(output, stop):
    """Tape nodes reachable from ``output`` without passing through ``stop`` or leaves."""
    stop_ids = {id(t) for t in stop}
    seen, todo = set(), [output]
    while todo:
        node = todo.pop()
        if id(node) in seen or id(node) in stop_ids or node._backward is None:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
    return len(seen)


# ---------------------------------------------------------------- embeddings


class TestSpaceTimeEmbedding:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        emb = SpaceTimeEmbedding(rng, embed_dim=8)
        coords = np.array([[25.5, 85.2], [24.8, 85.0]])
        a = emb(np.array([[13, 2, 7]]), coords).data
        b = emb(np.array([[13, 2, 7]]), coords).data
        assert np.array_equal(a, b)
        assert a.shape == (2, 32)

    def test_hour_change_touches_hour_block_only(self):
        rng = np.random.default_rng(8)
        emb = SpaceTimeEmbedding(rng, embed_dim=8)
        a, b = emb(np.array([[0, 2, 7], [1, 2, 7]]), np.array([[25.5, 85.2]])).data
        assert not np.allclose(a[:8], b[:8])
        assert np.array_equal(a[8:], b[8:])

    def test_matches_table_lookup_oracle(self):
        rng = np.random.default_rng(21)
        emb = SpaceTimeEmbedding(rng, embed_dim=4)
        lat, lon = 25.3, 84.9
        vec = emb(np.array([[17, 4, 11]]), np.array([[lat, lon]])).data[0]
        expected = np.concatenate([
            emb.hour_table.data[17],
            emb.dow_table.data[4],
            emb.month_table.data[10],
            emb.location.weight.data @ np.array([lat / 90.0, lon / 180.0])
            + emb.location.bias.data,
        ])
        assert np.allclose(vec, expected, rtol=1e-14)

    def test_all_hours_match_reference_row_for_row(self):
        rng = np.random.default_rng(26)
        emb = SpaceTimeEmbedding(rng, embed_dim=3)
        emb.location.bias.data[...] = rng.normal(size=3)
        spacetime = np.array([[23, 6, 12], [0, 0, 1], [23, 6, 12], [7, 3, 1], [0, 5, 6]])
        coords = rng.uniform(-60.0, 60.0, size=(4, 2))
        out = emb(spacetime, coords).data
        weights = {name: t.data for name, t in emb.params()}
        for s, (hour, dow, month) in enumerate(spacetime):
            assert np.array_equal(out[4 * s:4 * (s + 1)], ref_embed(weights, hour, dow, month, coords))

    @pytest.mark.parametrize("kwargs", [
        dict(hour=24, dow=0, month=1),
        dict(hour=-1, dow=0, month=1),
        dict(hour=0, dow=7, month=1),
        dict(hour=0, dow=0, month=0),
        dict(hour=0, dow=0, month=13),
        dict(hour=0, dow=-1, month=1),
    ])
    def test_out_of_range_rejected(self, kwargs):
        # The window checks the ids, before any of them reaches the tables.
        network, sample = reference_window(n_stations=4, steps=2, node_dim=2)
        sample.spacetime[-1] = (kwargs["hour"], kwargs["dow"], kwargs["month"])
        with pytest.raises(DataError, match="calendar"):
            sample.validate()
        model = Forecaster(ModelConfig(variant="gc_gru", hidden=3, history_steps=2, forecast_steps=2,
                                       node_dim=2), network, seed=0)
        with pytest.raises(DataError, match="calendar"):
            model.predict(sample)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        emb = SpaceTimeEmbedding(rng, embed_dim=3)
        coords = np.array([[25.5, 85.2], [24.8, 85.0]])
        probe = rng.normal(size=(2, 12))

        def loss():
            return (emb(np.array([[5, 3, 2]]), coords) * probe).sum()

        assert_gradients_match(loss, params_dict(emb))

    def test_gradients_accumulate_into_repeated_rows(self):
        rng = np.random.default_rng(23)
        emb = SpaceTimeEmbedding(rng, embed_dim=3)
        coords = np.array([[25.5, 85.2], [24.8, 85.0], [25.1, 84.7]])
        probes = rng.normal(size=(2, 3, 12))

        def loss():
            # same hour and month in both hours, different day of week
            return (emb(np.array([[5, 3, 2], [5, 4, 2]]), coords) * probes.reshape(6, 12)).sum()

        assert_gradients_match(loss, params_dict(emb))
        hour_grad = emb.hour_table.grad
        assert np.count_nonzero(np.abs(hour_grad).sum(axis=1)) == 1
        assert np.allclose(hour_grad[5], probes[:, :, :3].sum(axis=(0, 1)), rtol=1e-14)

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(24)
        emb = SpaceTimeEmbedding(rng, embed_dim=3)
        out = emb(np.array([[5, 3, 2], [6, 3, 2]]), np.array([[25.5, 85.2], [24.8, 85.0]]))
        assert recorded_nodes(out, stop=()) == 1


# ---------------------------------------------------------------- MLP / Linear


class TestMlp:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(rng, in_dim=4, hidden_dim=3)
        zero_all(mlp)
        out = mlp(Tensor(np.ones((5, 4))))
        assert np.all(out.data == 0.0)

    def test_identity_linear_layer(self):
        rng = np.random.default_rng(0)
        lin = Linear(rng, 3, 3)
        lin.weight.data[...] = np.eye(3)
        lin.bias.data[...] = 0.0
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.array_equal(lin(Tensor(x)).data, x)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(16)
        mlp = Mlp(rng, in_dim=4, hidden_dim=3)
        x = rng.normal(size=(6, 4))
        out = mlp(Tensor(x)).data
        hidden = np.tanh(x @ mlp.hidden.weight.data.T + mlp.hidden.bias.data)
        expected = hidden @ mlp.out.weight.data.T + mlp.out.bias.data
        assert np.allclose(out, expected, rtol=1e-13)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(rng, in_dim=4, hidden_dim=3)
        with pytest.raises(ValueError):
            mlp(Tensor(np.zeros((2, 5))))

    def test_gradients(self):
        rng = np.random.default_rng(17)
        mlp = Mlp(rng, in_dim=3, hidden_dim=4)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 1))

        def loss():
            return (mlp(x) * probe).sum()

        tensors = params_dict(mlp)
        tensors["x"] = x
        assert_gradients_match(loss, tensors)


def test_seeded_construction_is_bit_identical():
    a = GruCell(np.random.default_rng(77), input_dim=3, hidden_dim=4)
    b = GruCell(np.random.default_rng(77), input_dim=3, hidden_dim=4)
    for (_, ta), (_, tb) in zip(a.params(), b.params()):
        assert ta.data.tobytes() == tb.data.tobytes()


# ---------------------------------------------------------------- tape memory


def reference_window(seed=0, n_stations=30, steps=24, node_dim=9, forecast_steps=None):
    """A random agnn_gru window at the reference size: 30 stations, ~260 edges, H = F = 24."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-150.0, 150.0, size=(n_stations, 2)) / 111.0  # ~300 km square
    stations = [Station(f"s{k}", 25.0 + dy, 85.0 + dx) for k, (dy, dx) in enumerate(offsets)]
    network = build_network(stations, threshold_km=110.0)
    total = steps + (steps if forecast_steps is None else forecast_steps)
    sample = WindowSample(
        x=rng.normal(size=(steps, n_stations, node_dim)),
        y_hist=rng.normal(size=(steps, n_stations)),
        spacetime=np.column_stack([rng.integers(0, 24, total), rng.integers(0, 7, total),
                                   rng.integers(1, 13, total)]),
        coords=network.coordinates(),
        y_future=rng.normal(size=(total - steps, n_stations)),
        edge_feats=edge_attributes_at(network, rng.normal(0.0, 3.0, size=(steps, n_stations, 2))),
    )
    return network, sample


def test_tape_memory_of_one_training_window():
    network, sample = reference_window()
    assert 200 <= network.edges.shape[0] <= 350
    config = ModelConfig(variant="agnn_gru", hidden=64, history_steps=24, forecast_steps=24,
                         node_dim=9)
    model = Forecaster(config, network, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        diff = model.forward(sample) - Tensor(sample.y_future)
        loss = (diff * diff).mean()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    loss.backward()
    assert all(t.grad is not None for t in model.params.values())
    assert held <= 16e6, f"tape holds {held / 1e6:.1f} MB between forward and backward"


def test_train_step_records_few_tape_nodes():
    # One node per recurrence: the embedding, one join of all 24 hours' node
    # rows, per 7-hour union a row block and a conv call, one join of the conv
    # outputs, one GRU unroll, the final state, the head, the decoder, two row
    # blocks of the embedding and four loss nodes.  Both graph layers are one
    # node per call.
    network, sample = reference_window()
    for variant in ("agnn_gru", "gc_gru", "wgc_gru"):
        config = ModelConfig(variant=variant, hidden=8, history_steps=24, forecast_steps=24, node_dim=9)
        model = Forecaster(config, network, seed=0)
        diff = model.forward(sample) - Tensor(sample.y_future)
        assert model.layout.hours_per_call(24) == 7
        assert recorded_nodes((diff * diff).mean(), stop=()) <= 21, variant


def test_predict_keeps_no_per_step_arrays():
    # Under no_grad the recurrences reuse one step's buffers, so 20 more forecast
    # hours cost their calendar rows (1 MB here), not 20 hours of gates (~24 MB).
    peaks = []
    for forecast_steps in (4, 24):
        network, sample = reference_window(n_stations=200, forecast_steps=forecast_steps)
        config = ModelConfig(variant="agnn_gru", hidden=64, history_steps=24,
                             forecast_steps=forecast_steps, node_dim=9)
        model = Forecaster(config, network, seed=0)
        model.predict(sample)
        tracemalloc.start()
        try:
            model.predict(sample)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], f"predict peaks {peaks[0] / 1e6:.1f} MB at F=4, {peaks[1] / 1e6:.1f} MB at F=24"
