"""Tests of the benchmark's own code: generator, spans and metric names.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import spans
from corpus import CorpusSpec, write_corpus, write_subset
from spans import Tracer, self_times, summarize, tape_nodes
from workloads import WORKLOADS, CheckFailed, Run, assert_same

from hazecast import data, geo
from hazecast.autodiff import Tensor

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = CorpusSpec(n_stations=6, days=10, area_km=60.0, threshold_km=40.0)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestCorpus:
    def test_same_seed_gives_identical_files(self, tmp_path):
        write_corpus(tmp_path / "a", TINY, seed=5)
        write_corpus(tmp_path / "b", TINY, seed=5)
        assert files(tmp_path / "a") == files(tmp_path / "b")

    def test_seed_changes_series_but_not_stations(self, tmp_path):
        write_corpus(tmp_path / "a", TINY, seed=5)
        write_corpus(tmp_path / "b", TINY, seed=6)
        a, b = files(tmp_path / "a"), files(tmp_path / "b")
        assert a["stations.csv"] == b["stations.csv"]
        assert a["series/S0000.csv"] != b["series/S0000.csv"]

    def test_has_cell_gaps_and_outage_runs(self, tmp_path):
        spec = CorpusSpec(n_stations=3, days=20, area_km=60.0, threshold_km=40.0,
                          outages_per_station=3.0)
        write_corpus(tmp_path, spec, seed=1)
        rows = [line.split(",") for line in (tmp_path / "series/S0000.csv").read_text().splitlines()[1:]]
        empty_rows = sum(all(cell == "" for cell in row[1:]) for row in rows)
        partial_rows = sum(0 < sum(cell == "" for cell in row[1:]) < 9 for row in rows)
        assert empty_rows >= 3 and partial_rows > 0

    def test_prepare_corpus_reads_it(self, tmp_path):
        manifest = write_corpus(tmp_path, TINY, seed=2)
        prepared, report = data.prepare_corpus(data.parse_manifest(manifest), TINY.threshold_km)
        assert report["stations"] == 6 and report["rows"] == 240
        assert report["missing_pct"] > 0
        assert np.all(np.isfinite(prepared.x))

    def test_subset_manifest_lists_central_stations(self, tmp_path):
        manifest = write_corpus(tmp_path, TINY, seed=2)
        subset = write_subset(manifest, 3)
        stations = geo.read_stations_csv(data.parse_manifest(subset).stations_path)
        assert len(stations) == 3
        panel, _ = data.load_corpus(data.parse_manifest(subset))
        assert panel.n_stations == 3


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans_ = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 5.0, 6.0, 0],
            ["a.inner", 2.0, 3.5, 1],
        ]
        assert self_times(spans_) == pytest.approx([6.0, 1.5, 1.0, 1.5])

    def test_overlapping_children_count_once(self):
        spans_ = [["root", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["y", 4.0, 8.0, 0]]
        assert self_times(spans_)[0] == pytest.approx(4.0)

    def test_summarize_adds_calls_and_times(self):
        spans_ = [["f", 0.0, 2.0, -1], ["g", 0.5, 1.0, 0], ["f", 3.0, 4.0, -1]]
        table = summarize(spans_)
        assert table["f"] == pytest.approx({"calls": 2, "total_s": 3.0, "self_s": 2.5})
        assert table["g"]["calls"] == 1

    def test_installed_patches_the_caller_name_and_restores_it(self):
        original = data.edge_attributes_at
        tracer = Tracer()
        with tracer.installed("op"):
            assert data.edge_attributes_at is not original
            assert geo.edge_attributes_at is data.edge_attributes_at
            net = geo.build_network([geo.Station("a", 30.0, 115.0), geo.Station("b", 30.1, 115.0)], 50.0)
            data.edge_attributes_at(net, np.ones((2, 2)))
        assert data.edge_attributes_at is original and geo.edge_attributes_at is original
        names = [span[0] for span in tracer.spans]
        assert names == ["op", "geo.build_network", "geo.edge_attributes_at"]
        assert [span[3] for span in tracer.spans] == [-1, 0, 0]

    def test_tape_nodes_stop_at_inputs_and_leaves(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = w * 2.0                      # one node
        y = (x + w).tanh()               # two more
        assert tape_nodes(y) == 3
        assert tape_nodes(y, stop=[x]) == 2

    def test_every_trace_point_exists(self):
        for module, qualname, _ in spans.TRACE_POINTS:
            assert spans._bindings(module, qualname), f"{module}.{qualname}"


class TestChecks:
    def test_assert_same_finds_a_flipped_bit(self):
        a = {"x": np.arange(4.0)}
        b = np.arange(4.0)
        b.view(np.int64)[2] ^= 1
        assert_same([a["x"]], [a["x"].copy()])
        with pytest.raises(CheckFailed):
            assert_same([a["x"]], [b])


class TestMetricNames:
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        assert all(NAME.fullmatch(n) for n in names)
        assert len(names) == len(set(names))

    def test_workloads_match(self):
        assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
            [(w.name, w.why) for w in WORKLOADS.values()]

    def test_end_to_end_names_match_the_run(self, tmp_path):
        run = Run(WORKLOADS["train-ref"], 0, 1.0, False, tmp_path)
        for key in ("setup_s", "prepare_s", "load_s", "cache_mb", "train_step_s", "predict_s", "eval_s"):
            run.samples[key] = [1.0, 2.0]
        produced = run.end_to_end()
        assert set(produced) == {m["name"] for m in BENCHMARK["end_to_end"]}
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert all(units[name] == unit for name, (_, unit, _) in produced.items())

    def test_per_layer_names_match_the_run(self, tmp_path):
        produced = Run(WORKLOADS["train-ref"], 0, 1.0, True, tmp_path).per_layer()
        assert set(produced) == {m["name"] for m in BENCHMARK["per_layer"]}
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert all(units[name] == unit for name, (_, unit) in produced.items())
