import numpy as np
import pytest

from hazecast.autodiff import Tensor, concat, stack
from hazecast.container import save_arrays
from hazecast.data import WindowSample
from hazecast.errors import DataError, UsageError
from hazecast.geo import Station, build_network, edge_attributes_at
from hazecast.layers import GraphLayout
from hazecast.model import CHECKPOINT_VERSION, EMBED_DIM, VARIANTS, Forecaster, ModelConfig

from gradcheck import assert_gradients_match
from reference import ref_forward
from test_layers import recorded_nodes


def toy_network(n=3, seed=0):
    rng = np.random.default_rng(seed)
    stations = [Station(f"s{k}", 25.0 + rng.uniform(-0.02, 0.02), 85.0 + rng.uniform(-0.02, 0.02))
                for k in range(n)]
    return build_network(stations, threshold_km=6.0)


def toy_sample(network, h=3, f=2, node_dim=4, seed=1, with_edges=True):
    rng = np.random.default_rng(seed)
    n = network.n_stations
    spacetime = np.column_stack([
        rng.integers(0, 24, h + f),
        rng.integers(0, 7, h + f),
        rng.integers(1, 13, h + f),
    ]).astype(np.int64)
    edge_feats = None
    if with_edges:
        frames = []
        for _ in range(h):
            wind = rng.normal(0, 3, size=(n, 2))
            frames.append(edge_attributes_at(network, wind))
        edge_feats = np.stack(frames, axis=0)
    return WindowSample(
        x=rng.normal(size=(h, n, node_dim)),
        y_hist=rng.normal(size=(h, n)),
        y_future=rng.normal(size=(f, n)),
        spacetime=spacetime,
        coords=network.coordinates(),
        edge_feats=edge_feats,
    )


def config(variant, network, h=3, f=2, node_dim=4, hidden=5, **kw):
    return ModelConfig(variant=variant, hidden=hidden, history_steps=h,
                       forecast_steps=f, node_dim=node_dim, **kw)


class TestBuildVariant:
    def test_unknown_variant_rejected(self):
        with pytest.raises(UsageError, match="unknown variant"):
            ModelConfig(variant="lstm", hidden=4, history_steps=2, forecast_steps=1, node_dim=3)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_is_the_only_switch(self, variant):
        cfg = config(variant, None)
        assert (cfg.use_attention, cfg.graph_mode) == VARIANTS[variant]
        assert len(cfg.to_dict()) == 5
        with pytest.raises(TypeError):
            config(variant, None, graph_mode="none")

    def test_gru_variant_has_no_graph_parameters(self):
        net = toy_network()
        model = Forecaster(config("gru", net), network=None, seed=0)
        assert model.graph_parameter_count() == 0
        assert model.attention_parameter_count() == 0

    def test_attention_is_the_only_difference_between_top_variants(self):
        net = toy_network()
        agnn = Forecaster(config("agnn_gru", net), net, seed=0)
        gnn = Forecaster(config("gnn_gru", net), net, seed=0)
        agnn_names = set(agnn.params)
        gnn_names = set(gnn.params)
        assert gnn_names < agnn_names
        only_in_agnn = agnn_names - gnn_names
        assert only_in_agnn and all(n.startswith("decoder.attention") for n in only_in_agnn)
        assert agnn.parameter_count() - gnn.parameter_count() == agnn.attention_parameter_count()

    def test_parameter_count_matches_shape_accounting(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net, node_dim=9, hidden=16, h=3, f=2), net, seed=0)

        e = EMBED_DIM
        spacetime = 4 * e
        p = 9 + spacetime + 1
        g = 16
        expected = 0
        expected += (24 + 7 + 12) * e + e * 2 + e                      # embed tables + location
        expected += 3 * (g * p + g) + g * p + g * 5 + g * 5            # conv: root/msg/query, key, edge maps
        enc_in = p + g
        expected += 3 * (16 * (16 + enc_in) + 16)                      # encoder gru
        expected += (16 * 16 + 16) + (1 * 16 + 1)                      # encoder head
        expected += 3 * (16 * (16 + spacetime + 1) + 16)               # decoder gru
        expected += 16 * 16 + (16 * 32 + 16)                           # attention score + out
        expected += (16 * 16 + 16) + (1 * 16 + 1)                      # decoder head
        assert model.parameter_count() == expected

    def test_mean_coefficients_of_each_sink_sum_to_one(self):
        net = toy_network(n=6, seed=2)
        model = Forecaster(config("gc_gru", net), net, seed=0)
        dst = net.edges[:, 1]
        assert len(set(dst.tolist())) > 1
        for sink in set(dst.tolist()):
            assert model.edge_coef[dst == sink].sum() == pytest.approx(1.0, rel=1e-15)

    def test_graph_mode_requires_network(self):
        net = toy_network()
        with pytest.raises(UsageError, match="network"):
            Forecaster(config("agnn_gru", net), network=None, seed=0)


class TestForward:
    def test_zero_parameters_give_zero_predictions(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=0)
        for t in model.params.values():
            t.data[...] = 0.0
        sample = toy_sample(net)
        preds = model.predict(sample)
        assert preds.shape == (2, 3)
        assert np.all(preds == 0.0)

    def test_forward_runs_blas_on_one_thread(self, blas_threads, monkeypatch):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=0)
        seen = []
        embed = model.embed

        def spy(*args):
            seen.append(blas_threads())
            return embed(*args)

        monkeypatch.setattr(model, "embed", spy)
        model.predict(toy_sample(net))
        assert seen == [1]  # one call embeds every hour of the window
        assert blas_threads() == 2

    def test_single_forecast_step_shape_and_composition(self):
        net = toy_network()
        cfg = config("agnn_gru", net, f=1)
        model = Forecaster(cfg, net, seed=3)
        sample = toy_sample(net, f=1, seed=4)
        preds = model.predict(sample)
        assert preds.shape == (1, net.n_stations)

        # hand-compose one graph-layer call per hour, where forward joins all
        # three hours into one call on their union, then one decoder step
        assert model.layout.hours_per_call(cfg.history_steps) == cfg.history_steps
        n = net.n_stations
        xbar = model.embed(sample.spacetime, sample.coords)
        h = Tensor(np.zeros((n, cfg.hidden)))
        history = []
        for t in range(cfg.history_steps):
            p = concat([Tensor(sample.x[t]), xbar.rows(t * n, (t + 1) * n),
                        Tensor(sample.y_hist[t].reshape(n, 1))])
            h = model.encoder_gru.step(h, p, model.conv(p, model.layout, Tensor(sample.edge_feats[t])))
            history.append(h)
        yhat = model.encoder_head(h)
        t = cfg.history_steps
        h = model.decoder_gru.step(h, xbar.rows(t * n, (t + 1) * n), yhat)
        out = model.decoder_head(model.attention(stack(history), h))
        assert np.array_equal(preds[0], out.data.ravel())

    @pytest.mark.parametrize("variant", ["agnn_gru", "gnn_gru", "wgc_gru", "gc_gru", "gru"])
    def test_matches_numpy_unrolling_oracle(self, variant):
        net = toy_network(n=3, seed=5)
        model = Forecaster(config(variant, net), net if variant != "gru" else None, seed=6)
        sample = toy_sample(net, seed=7)
        preds = model.predict(sample)
        expected = ref_forward(model, sample)
        assert np.allclose(preds, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("variant", ["agnn_gru", "gnn_gru", "wgc_gru", "gc_gru", "gru"])
    def test_network_without_edges(self, variant):
        # Two stations about 150 km apart under a 10 km threshold.
        net = build_network([Station("a", 25.0, 85.0), Station("b", 25.0, 86.5)], threshold_km=10.0)
        assert net.n_edges == 0
        model = Forecaster(config(variant, net), net if variant != "gru" else None, seed=6)
        sample = toy_sample(net, seed=7)
        preds = model.predict(sample)
        assert preds.shape == (2, 2) and np.isfinite(preds).all()
        assert np.allclose(preds, ref_forward(model, sample), rtol=1e-10, atol=1e-12)

    def test_scalar_graph_variants_agree_without_edges(self):
        net = build_network([Station("a", 25.0, 85.0), Station("b", 25.0, 86.5)], threshold_km=10.0)
        sample = toy_sample(net, seed=7)
        weighted, mean = (Forecaster(config(v, net), net, seed=6).predict(sample)
                          for v in ("wgc_gru", "gc_gru"))
        assert weighted.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("variant", ["agnn_gru", "gnn_gru"])
    def test_predict_bit_identical_to_taped_forward(self, variant):
        net = toy_network(n=4, seed=5)
        model = Forecaster(config(variant, net), net, seed=6)
        sample = toy_sample(net, seed=7)
        preds = model.predict(sample)
        assert preds.tobytes() == model.forward(sample).data.tobytes()
        assert model.predict(sample).tobytes() == preds.tobytes()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("stations, hours_per_call", [(4, 4), (40, 1)])
    def test_predict_bit_identical_to_taped_forward_per_union(self, variant, stations, hours_per_call):
        # 4 stations (12 edges) run the graph layer once on the union of all
        # 4 hours, 40 (1560 edges) once per hour; predict reuses step buffers.
        net = toy_network(n=stations, seed=5)
        model = Forecaster(config(variant, net, h=4, f=3), net if variant != "gru" else None, seed=6)
        assert GraphLayout(net.edges, stations).hours_per_call(4) == hours_per_call
        sample = toy_sample(net, h=4, f=3, seed=7)
        preds = model.predict(sample)
        assert preds.tobytes() == model.forward(sample).data.tobytes()

    @pytest.mark.parametrize("value", [12.7, np.nan])
    def test_non_integer_calendar_id_rejected(self, value):
        net = toy_network()
        model = Forecaster(config("gc_gru", net), net, seed=0)
        sample = toy_sample(net)
        sample.spacetime = sample.spacetime.astype(float)
        sample.spacetime[3, 0] = value
        with pytest.raises(DataError, match=f"calendar id {value} at step 3 is not an integer hour"):
            sample.validate()
        with pytest.raises(DataError, match="is not an integer hour"):
            model.predict(sample)

    def test_int32_calendar_ids_accepted(self):
        net = toy_network()
        model = Forecaster(config("gc_gru", net), net, seed=0)
        sample = toy_sample(net)
        base = model.predict(sample)
        sample.spacetime = sample.spacetime.astype(np.int32)
        assert model.predict(sample).tobytes() == base.tobytes()

    def test_forecast_period_inputs_never_read(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=8)
        sample = toy_sample(net, seed=9)
        base = model.predict(sample)
        mutated = WindowSample(
            x=sample.x, y_hist=sample.y_hist,
            y_future=sample.y_future + 100.0,
            spacetime=sample.spacetime, coords=sample.coords,
            edge_feats=sample.edge_feats,
        )
        assert np.array_equal(model.predict(mutated), base)

    def test_autoregressive_dependence_on_last_history_target(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=10)
        sample = toy_sample(net, seed=11)
        base = model.predict(sample)
        bumped = sample.y_hist.copy()
        bumped[-1, 0] += 0.5
        mutated = WindowSample(x=sample.x, y_hist=bumped, y_future=sample.y_future,
                               spacetime=sample.spacetime, coords=sample.coords,
                               edge_feats=sample.edge_feats)
        assert not np.array_equal(model.predict(mutated)[0], base[0])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(20)
        net = toy_network(n=4, seed=21)
        cfg = config("agnn_gru", net)
        model = Forecaster(cfg, net, seed=22)
        sample = toy_sample(net, seed=23)
        base = model.predict(sample)

        perm = np.array([2, 0, 3, 1])          # new index of each old station
        inv = np.argsort(perm)
        stations = [net.stations[i] for i in inv]
        permuted_net = build_network(stations, threshold_km=6.0)
        permuted_model = Forecaster(cfg, permuted_net, seed=22)
        for name in model.params:
            permuted_model.params[name].data[...] = model.params[name].data

        # edge order in the permuted network is lexicographic over new labels
        old_edges = {(perm[s], perm[d]): k for k, (s, d) in enumerate(net.edges)}
        edge_map = [old_edges[tuple(e)] for e in permuted_net.edges.tolist()]
        permuted_sample = WindowSample(
            x=sample.x[:, inv, :],
            y_hist=sample.y_hist[:, inv],
            y_future=sample.y_future[:, inv],
            spacetime=sample.spacetime,
            coords=sample.coords[inv],
            edge_feats=sample.edge_feats[:, edge_map, :],
        )
        out = permuted_model.predict(permuted_sample)
        assert np.allclose(out[:, perm], base, rtol=1e-12, atol=1e-13)

    def test_missing_edge_attributes_rejected(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=0)
        sample = toy_sample(net, with_edges=False)
        with pytest.raises(DataError, match="edge"):
            model.predict(sample)

    def test_edge_attributes_of_another_network_rejected(self):
        net = toy_network()
        model = Forecaster(config("gnn_gru", net), net, seed=0)
        sample = toy_sample(net)
        sample.edge_feats = sample.edge_feats[:, :-1]
        with pytest.raises(DataError, match="edge attributes of shape"):
            model.predict(sample)

    def test_window_shape_mismatch_rejected(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net, h=4), net, seed=0)
        sample = toy_sample(net, h=3)
        with pytest.raises(DataError, match="H="):
            model.predict(sample)

    def test_node_attribute_count_mismatch_rejected(self):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net, node_dim=5), net, seed=0)
        with pytest.raises(DataError, match="node attributes"):
            model.predict(toy_sample(net, node_dim=4))

    @pytest.mark.parametrize("model_stations, window_stations", [(3, 5), (5, 3)])
    def test_station_count_mismatch_rejected(self, model_stations, window_stations):
        net = toy_network(n=model_stations)
        model = Forecaster(config("gc_gru", net), net, seed=0)
        sample = toy_sample(toy_network(n=window_stations), with_edges=False)
        with pytest.raises(DataError, match=f"window has {window_stations} stations"):
            model.predict(sample)


class TestGradients:
    def test_end_to_end_gradients_small(self):
        # Calendar-table rows the window never indexes must get an exactly
        # zero gradient; every other entry is checked by central differences.
        net = toy_network(n=3, seed=30)
        model = Forecaster(config("agnn_gru", net, h=2, f=2, node_dim=2, hidden=3), net, seed=31)
        sample = toy_sample(net, h=2, f=2, node_dim=2, seed=32)
        truth = sample.y_future

        def loss():
            preds = model.forward(sample)
            diff = preds - truth
            return (diff * diff).mean()

        model.zero_grad()
        loss().backward()
        indexed = dict(zip(("embed.hour", "embed.dow", "embed.month"),
                           (sample.spacetime - np.array([0, 0, 1])).T))
        checked = 0
        for name, tensor in model.params.items():
            rows = np.arange(len(tensor.data))
            if name in indexed:
                unused = np.setdiff1d(rows, indexed[name])
                assert np.all(tensor.grad[unused] == 0.0), f"{name}: rows {unused} are never indexed"
                rows = np.unique(indexed[name])
            width = tensor.data[0].size
            entries = (rows[:, None] * width + np.arange(width)).ravel()
            flat = tensor.data.reshape(-1)
            for k in entries:
                orig = flat[k]
                flat[k] = orig + 1e-5
                up = loss().item()
                flat[k] = orig - 1e-5
                down = loss().item()
                flat[k] = orig
                fd, analytic = (up - down) / 2e-5, tensor.grad.reshape(-1)[k]
                assert abs(analytic - fd) <= 1e-3 * max(abs(analytic), abs(fd)) + 1e-8, (name, k)
            checked += len(entries)
        assert checked < model.parameter_count()


class TestDecoder:
    @pytest.mark.parametrize("variant", ["agnn_gru", "gnn_gru"])
    @pytest.mark.parametrize("f", [1, 3])
    def test_gradients(self, variant, f):
        net = toy_network()
        model = Forecaster(config(variant, net, f=f, hidden=4), net, seed=50)
        rng = np.random.default_rng(51 + f)
        n = net.n_stations
        h0 = Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        prev0 = Tensor(rng.normal(size=(n, 1)), requires_grad=True)
        inputs = Tensor(rng.normal(size=(f * n, model.embed.out_dim)), requires_grad=True)
        memory = Tensor(rng.normal(size=(3 * n, 4)), requires_grad=True) if model.attention else None
        probe = rng.normal(size=(f, n))

        def loss():
            return (model.decode(h0, prev0, inputs, memory) * probe).sum()

        tensors = {name: t for name, t in model.params.items() if name.startswith("decoder.")}
        tensors.update(h0=h0, prev0=prev0, inputs=inputs)
        if memory is not None:
            tensors["memory"] = memory
        assert_gradients_match(loss, tensors)
        assert recorded_nodes(model.decode(h0, prev0, inputs, memory), stop=[h0, prev0, inputs, memory]) == 1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = toy_network()
        model = Forecaster(config("agnn_gru", net), net, seed=40)
        path = tmp_path / "model.bin"
        model.save(path)
        loaded = Forecaster.load(path, network=net)
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()
        sample = toy_sample(net, seed=41)
        assert np.array_equal(loaded.predict(sample), model.predict(sample))

    def test_config_survives(self, tmp_path):
        net = toy_network()
        cfg = config("wgc_gru", net, hidden=7)
        model = Forecaster(cfg, net, seed=42)
        model.save(tmp_path / "m.bin")
        loaded = Forecaster.load(tmp_path / "m.bin", network=net)
        assert loaded.config == cfg

    @staticmethod
    def write(path, version=CHECKPOINT_VERSION, drop=(), **extra):
        """A gru checkpoint with the given version whose stored config lacks ``drop`` and adds ``extra``."""
        model = Forecaster(config("gru", toy_network()), None, seed=0)
        cfg = {k: v for k, v in model.config.to_dict().items() if k not in drop}
        meta = {"kind": "hazecast-checkpoint", "checkpoint_version": version, "config": dict(cfg, **extra)}
        save_arrays(path, {name: t.data for name, t in model.params.items()}, meta)
        return path

    def test_foreign_config_key_rejected(self, tmp_path):
        with pytest.raises(DataError, match="dropout"):
            Forecaster.load(self.write(tmp_path / "m.bin", dropout=0.1))

    def test_missing_config_key_rejected(self, tmp_path):
        with pytest.raises(DataError, match="node_dim"):
            Forecaster.load(self.write(tmp_path / "m.bin", drop=("node_dim",)))

    def test_version_1_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError, match="version 1"):
            Forecaster.load(self.write(tmp_path / "m.bin", version=1, edge_dim=5, use_bias=True, gnn_out=5))

    def test_version_2_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError, match="version 2"):
            Forecaster.load(self.write(tmp_path / "m.bin", version=2))

    def test_version_3_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError, match="version 3"):
            Forecaster.load(self.write(tmp_path / "m.bin", version=3, use_attention=False, graph_mode="none"))

    def test_version_4_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError, match="version 4"):
            Forecaster.load(self.write(tmp_path / "m.bin", version=4, embed_dim=EMBED_DIM))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        from hazecast.container import save_arrays
        from hazecast.errors import DataError
        path = tmp_path / "x.bin"
        save_arrays(path, {"a": np.ones(3)}, {"kind": "other"})
        with pytest.raises(DataError, match="checkpoint"):
            Forecaster.load(path)
