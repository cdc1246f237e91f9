import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import hazecast
from hazecast.container import load_arrays, save_arrays
from hazecast.data import (
    FEATURES,
    IMPUTATION_SWEEPS,
    SERIES_HEADER,
    SPLIT_NAMES,
    PreparedData,
    RawPanel,
    SplitSpec,
    WindowSample,
    compute_stats,
    impute_chained,
    load_corpus,
    parse_manifest,
    prepare_corpus,
    spacetime_features,
    split_temporal,
)
from hazecast.errors import DataError, UsageError
from hazecast.geo import edge_attributes_at
from hazecast.model import VARIANTS, Forecaster, ModelConfig


# ---------------------------------------------------------------- import direction


def loaded_modules(statement):
    """Names of the hazecast modules a fresh interpreter holds after ``statement``."""
    code = (f"import json, sys; {statement}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hazecast'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(hazecast.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return set(json.loads(done.stdout))


def test_data_does_not_load_model():
    assert "hazecast.model" not in loaded_modules("import hazecast.data")


def test_geo_loads_neither_data_nor_model():
    assert loaded_modules("import hazecast.geo") == {"hazecast", "hazecast.errors", "hazecast.kvfile",
                                                     "hazecast.geo"}


def test_reader_loads_only_the_errors():
    assert loaded_modules("import hazecast.kvfile") == {"hazecast", "hazecast.errors", "hazecast.kvfile"}


# ---------------------------------------------------------------- calendar


def calendar_oracle(timestamps):
    out = []
    for ts in timestamps:
        moment = ts.astype("datetime64[s]").item()
        out.append((moment.hour, moment.weekday(), moment.month))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("stamps", [
    ["1899-12-31T23:59", "1900-01-01T00:00", "1969-12-31T23:30", "1970-01-01T00:00"],
    ["2024-02-28T23:15", "2024-02-29T00:00", "2024-02-29T12:45", "2024-03-01T00:01"],
    ["2023-12-31T22:59", "2023-12-31T23:00", "2024-01-01T00:00", "2024-01-01T01:30"],
])
def test_spacetime_features_match_datetime(stamps):
    ts = np.array(stamps, dtype="datetime64[m]")
    assert np.array_equal(spacetime_features(ts), calendar_oracle(ts))


def test_spacetime_features_cover_every_weekday():
    ts = np.datetime64("1965-06-01T07:20") + np.arange(14) * np.timedelta64(25, "h")
    got = spacetime_features(ts)
    assert np.array_equal(got, calendar_oracle(ts))
    assert set(got[:, 1]) == set(range(7))
    assert got.dtype == np.int64 and got.shape == (14, 3)


# ---------------------------------------------------------------- windows


def window(h=3, f=2, n=4, d=2, e=5, **changes):
    rng = np.random.default_rng(0)
    fields = dict(
        x=rng.normal(size=(h, n, d)),
        y_hist=rng.normal(size=(h, n)),
        spacetime=np.tile(np.array([0, 0, 1]), (h + f, 1)),
        coords=np.zeros((n, 2)),
        y_future=rng.normal(size=(f, n)),
        edge_feats=rng.normal(size=(h, e, 5)),
    )
    fields.update(changes)
    return WindowSample(**fields)


def test_consistent_window_validates():
    window().validate()
    window(y_future=None, edge_feats=None).validate()
    window(coords=np.array([[90.0, 180.0], [-90.0, -180.0], [0.0, 0.0], [-0.0, 179.9]])).validate()


@pytest.mark.parametrize("changes, message", [
    (dict(x=np.zeros((0, 4, 2)), y_hist=np.zeros((0, 4)), edge_feats=None), "positive"),
    (dict(spacetime=np.zeros((3, 3), dtype=np.int64)), "positive"),
    (dict(x=np.zeros((3, 5, 2))), "history shapes"),
    (dict(y_hist=np.zeros((3, 5))), "history shapes"),
    (dict(y_hist=np.zeros((2, 4))), "history shapes"),
    (dict(y_future=np.zeros((2, 5))), "forecast target"),
    (dict(spacetime=np.zeros((5, 2), dtype=np.int64)), "spacetime"),
    (dict(edge_feats=np.zeros((2, 5, 5))), "span exactly the history"),
])
def test_inconsistent_shapes_rejected(changes, message):
    with pytest.raises(DataError, match=message):
        window(**changes).validate()


@pytest.mark.parametrize("coords, message", [
    (np.zeros((4, 3)), r"\(L, 2\)"),                                     # hours would mix
    (np.zeros(8), r"\(L, 2\)"),
    (np.array([[0.0, 0.0], [125.0, 85.0], [0.0, 0.0], [0.0, 0.0]]), "latitude in"),
    (np.array([[0.0, 0.0], [25.0, -180.5], [0.0, 0.0], [0.0, 0.0]]), "longitude in"),
    (np.array([[0.0, 0.0], [np.nan, 85.0], [0.0, 0.0], [0.0, 0.0]]), "finite"),
    (np.array([[0.0, 0.0], [25.0, np.inf], [0.0, 0.0], [0.0, 0.0]]), "finite"),
], ids=["3 columns", "1-D", "latitude 125", "longitude -180.5", "nan", "inf"])
def test_bad_coordinates_rejected(coords, message):
    with pytest.raises(DataError, match=message):
        window(coords=coords).validate()


@pytest.mark.parametrize("column, value, message", [
    (0, 24, "hour"), (0, -1, "hour"), (1, 7, "weekday"), (1, -1, "weekday"),
    (2, 0, "month"), (2, 13, "month"),
])
def test_calendar_id_out_of_range_rejected(column, value, message):
    sample = window()
    sample.spacetime[3, column] = value
    with pytest.raises(DataError, match=f"calendar id {value} at step 3 is not a valid {message}"):
        sample.validate()


@pytest.mark.parametrize("value", [12.7, np.nan, np.inf])
def test_non_integer_calendar_id_rejected(value):
    sample = window(spacetime=np.tile(np.array([0.0, 0.0, 1.0]), (5, 1)))
    sample.validate()  # whole numbers in a float array convert exactly
    sample.spacetime[3, 0] = value
    with pytest.raises(DataError, match=f"calendar id {value} at step 3 is not an integer hour"):
        sample.validate()


def test_int32_calendar_ids_accepted():
    window(spacetime=np.array([[0, 0, 1], [23, 6, 12], [0, 6, 1], [23, 0, 12], [12, 3, 6]], dtype=np.int32)).validate()


def test_calendar_id_bounds_accepted():
    window(spacetime=np.array([[0, 0, 1], [23, 6, 12], [0, 6, 1], [23, 0, 12], [12, 3, 6]])).validate()


@pytest.mark.parametrize("field", ["x", "y_hist", "y_future", "edge_feats"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_rejected(field, bad):
    sample = window()
    arr = getattr(sample, field).copy()
    arr.flat[1] = bad
    setattr(sample, field, arr)
    with pytest.raises(DataError, match=f"non-finite values in window field {field}"):
        sample.validate()


# ---------------------------------------------------------------- imputation


def gappy_panel():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 2, 3))
    mask = rng.random(values.shape) > 0.2
    return RawPanel(
        timestamps=np.datetime64("2020-01-01T00:00") + np.arange(40) * np.timedelta64(60, "m"),
        values=np.where(mask, values, np.nan),
        station_ids=["a", "b"],
        features=("f0", "f1", "f2"),
        cadence_hours=1.0,
    )


def test_imputation_runs_blas_on_one_thread(blas_threads, monkeypatch):
    seen = []
    solve = hazecast.data._least_norm_coef

    def spy(*args):
        seen.append(blas_threads())
        return solve(*args)

    monkeypatch.setattr(hazecast.data, "_least_norm_coef", spy)
    impute_chained(gappy_panel())
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def impute_oracle(panel, sweeps=IMPUTATION_SWEEPS):
    """The per-station loop of one ``np.linalg.lstsq`` call per (station, feature, sweep)."""
    values = panel.values.copy()
    n_features = len(panel.features)
    for st in range(panel.n_stations):
        mask = ~np.isnan(panel.values[:, st, :])
        if mask.all():
            continue
        z = values[:, st, :]
        for c in range(n_features):
            n_obs = int(mask[:, c].sum())
            if n_obs < 2:
                raise DataError(
                    f"station {panel.station_ids[st]!r}, feature {panel.features[c]!r}: "
                    f"only {n_obs} observed values; cannot impute")
        for c in range(n_features):
            miss = ~mask[:, c]
            if miss.any():
                z[miss, c] = z[mask[:, c], c].mean()
        others = {c: [k for k in range(n_features) if k != c] for c in range(n_features)}
        for _ in range(sweeps):
            for c in range(n_features):
                miss = ~mask[:, c]
                if not miss.any():
                    continue
                target_obs = z[mask[:, c], c]
                if np.all(target_obs == target_obs[0]):
                    z[miss, c] = target_obs[0]  # regression degenerates to the intercept
                    continue
                design = np.column_stack([np.ones(panel.n_steps), z[:, others[c]]])
                coef, *_ = np.linalg.lstsq(design[mask[:, c]], target_obs, rcond=None)
                z[miss, c] = design[miss] @ coef
    return values


#: Largest deviation from the oracle allowed, as a share of the feature's observed std.
ORACLE_TOLERANCE = 1e-8


def assert_matches_oracle(panel):
    """``impute_chained`` agrees with the oracle; observed cells keep their bits."""
    got = impute_chained(panel).values
    want = impute_oracle(panel, hazecast.data.IMPUTATION_SWEEPS)
    observed = ~np.isnan(panel.values)
    assert got[observed].tobytes() == panel.values[observed].tobytes()
    assert np.isfinite(got).all()
    # The smaller of the station's and the pooled observed std of each feature.
    std = np.minimum(np.nanstd(panel.values, axis=0), np.nanstd(panel.values, axis=(0, 1)))
    assert np.all(np.abs(got - want) <= ORACLE_TOLERANCE * std)
    return got


def correlated_panel(seed=5, steps=300, stations=4, features=5, gap=0.15, outage=30):
    """Gappy panel of correlated features on unlike scales.

    About ``gap`` of the cells are missing at random, plus a run of
    ``outage`` rows of one feature per station.
    """
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(features, features))
    values = rng.normal(size=(steps, stations, features)) @ mixing
    values = values * 10.0 ** np.arange(-1, features - 1) + 100.0 * np.arange(features)
    absent = rng.random(values.shape) < gap
    for st in range(stations):
        start = rng.integers(0, steps - outage)
        absent[start:start + outage, st, rng.integers(0, features)] = True
    absent[:2] = False
    return RawPanel(
        timestamps=np.datetime64("2020-01-01T00:00") + np.arange(steps) * np.timedelta64(60, "m"),
        values=np.where(absent, np.nan, values),
        station_ids=[f"s{k}" for k in range(stations)],
        features=tuple(f"f{k}" for k in range(features)),
        cadence_hours=1.0,
    )


@pytest.mark.parametrize("sweeps", [1, IMPUTATION_SWEEPS])
@pytest.mark.parametrize("seed", [5, 6])
def test_imputation_matches_lstsq_oracle(seed, sweeps, monkeypatch):
    monkeypatch.setattr(hazecast.data, "IMPUTATION_SWEEPS", sweeps)
    assert_matches_oracle(correlated_panel(seed))


#: Gap counts around each power of two up to most of a 120-row series.
GAP_COUNTS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 110, 0)


def varied_gaps_panel(seed=9, steps=120, stations=9, features=4):
    """Correlated panel whose stations' gap counts per feature run through GAP_COUNTS."""
    panel = correlated_panel(seed, steps=steps, stations=stations, features=features, gap=0.0, outage=0)
    rng = np.random.default_rng(seed)
    for k in range(stations * features):
        gaps = GAP_COUNTS[k % len(GAP_COUNTS)]
        panel.values[rng.choice(steps, size=gaps, replace=False), k // features, k % features] = np.nan
    return panel


def test_imputation_with_gap_counts_from_one_to_most_rows_matches_oracle():
    panel = varied_gaps_panel()
    gaps = np.isnan(panel.values).sum(axis=0)
    assert set(gaps.ravel().tolist()) == set(GAP_COUNTS)
    assert_matches_oracle(panel)


def test_imputation_small_panel_matches_oracle():
    assert_matches_oracle(gappy_panel())


def test_imputation_leaves_complete_stations_and_panels_alone():
    panel = correlated_panel()
    panel.values[:, 1] = np.nan_to_num(panel.values[:, 1], nan=7.25)
    got = assert_matches_oracle(panel)
    assert got[:, 1].tobytes() == panel.values[:, 1].tobytes()
    complete = correlated_panel(gap=0.0, outage=0)
    assert impute_chained(complete).values.tobytes() == complete.values.tobytes()


def test_imputation_is_deterministic():
    panel = correlated_panel()
    assert impute_chained(panel).values.tobytes() == impute_chained(panel).values.tobytes()


def test_imputation_leaves_its_input_bitwise_unchanged():
    panel = correlated_panel()
    gaps = np.flatnonzero(np.isnan(panel.values))
    assert gaps.size > 100
    payloads = np.uint64(0x7FF8_0000_0000_0001) + np.arange(gaps.size, dtype=np.uint64)
    panel.values.ravel()[gaps] = payloads.view(float)   # NaNs that a rewritten NaN would not match
    before = panel.values.tobytes()
    impute_chained(panel)
    assert panel.values.tobytes() == before


def test_imputation_fills_constant_feature_with_its_constant():
    panel = correlated_panel()
    values = panel.values[:, 2]
    observed = ~np.isnan(values[:, 3])
    values[observed, 3] = 1013.7
    # f4 is constant on those rows too, so a least-squares fit of f3 would
    # split the constant between the intercept and f4 and miss it elsewhere.
    values[observed, 4] = 5.0
    got = assert_matches_oracle(panel)
    assert np.all(got[:, 2, 3] == 1013.7)


def rank_deficient_panel(kind):
    """Target f0 has gaps.  On the rows where it is observed, f2 is constant
    (``kind="constant"``) or equal to f1 (``kind="duplicate"``); on the rows
    where it is missing, f2 moves off that by a little noise, so each least
    squares solution fills f0 differently and only the least-norm one agrees
    with the oracle.  The noise is small, which keeps the later designs well
    conditioned (see ``impute_chained`` on conditioning)."""
    panel = correlated_panel(gap=0.0, outage=0)
    values = panel.values
    rng = np.random.default_rng(8)
    missing = rng.random(values.shape[:2]) < 0.2
    missing[:2] = False
    base = 4.0 if kind == "constant" else values[:, :, 1]
    values[:, :, 2] = base + np.where(missing, rng.normal(scale=0.1, size=missing.shape), 0.0)
    values[:, :, 0][missing] = np.nan
    values[5:9, 1, 3] = np.nan
    return panel


@pytest.mark.parametrize("kind", ["constant", "duplicate"])
def test_imputation_rank_deficient_design_gives_least_norm_fill(kind):
    assert_matches_oracle(rank_deficient_panel(kind))


def design_grams(seed, stations=6, rows=200, features=5):
    """(gram, centre, scale) of scaled designs ``[1, features]`` of correlated features, as imputation keeps them."""
    rng = np.random.default_rng(seed)
    design = np.ones((stations, rows, features + 1))
    design[:, :, 1:] = rng.normal(size=(stations, rows, features)) @ rng.normal(size=(stations, features, features))
    centre = rng.normal(size=(stations, features)) * 10.0
    scale = rng.uniform(0.1, 100.0, size=(stations, features))
    return design.transpose(0, 2, 1) @ design, centre, scale


def test_cholesky_solve_routes_a_singular_station_alone_to_eigh():
    gram, centre, scale = design_grams(4)
    gram[3, 3, :] = gram[3, :, 3] = 0.0   # station 3's feature 2 is constant: its scaled column is zero
    others = np.arange(gram.shape[1]) != 1
    _, certified = hazecast.data._cholesky_inverse(gram[:, others][:, :, others], gram[:, 0, 0])
    assert certified.tolist() == [True, True, True, False, True, True]
    coef = hazecast.data._least_norm_coef(gram, 0, centre, scale)
    full = [0, 1, 2, 4, 5]
    alone = hazecast.data._least_norm_coef(gram[full], 0, centre[full], scale[full])
    assert coef[full].tobytes() == alone.tobytes()
    least_norm = hazecast.data._eigh_least_norm_coef(gram[3:4], 0, centre[3:4], scale[3:4])
    assert coef[3:4].tobytes() == least_norm.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cholesky_solve_matches_eigh_on_full_rank_grams(seed):
    gram, centre, scale = design_grams(seed, stations=50)
    for c in range(gram.shape[1] - 1):
        fast = hazecast.data._least_norm_coef(gram, c, centre, scale)
        slow = hazecast.data._eigh_least_norm_coef(gram, c, centre, scale)
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow).max(axis=1, keepdims=True))


def test_imputation_needs_two_observed_values():
    panel = correlated_panel()
    panel.values[:, 3, 0] = np.nan
    panel.values[7, 3, 0] = 1.0
    panel.values[:, 1, 4] = np.nan
    panel.values[:, 2, 1] = np.nan
    message = "station 's1', feature 'f4': only 0 observed values; cannot impute"
    with pytest.raises(DataError, match=message):
        impute_oracle(panel)
    with pytest.raises(DataError, match=message):
        impute_chained(panel)
    panel.values[:, 1:3] = 1.0
    with pytest.raises(DataError, match="station 's3', feature 'f0': only 1 observed values"):
        impute_chained(panel)


# ---------------------------------------------------------------- corpus on disk


MANIFEST = {
    "manifest_version": "1",
    "cadence_hours": "1",
    "timezone": "Asia/Shanghai",
    "stations": "stations.csv",
    "series_dir": "series",
    "train": "2020-01-01:2020-01-03",
    "val": "2020-01-04:2020-01-04",
    "test": "2020-01-05:2020-01-05",
}
STATIONS = [("a", 30.00, 115.00), ("b", 30.10, 115.05), ("c", 29.95, 115.10)]


def write_manifest(root, **changes):
    pairs = {k: v for k, v in {**MANIFEST, **changes}.items() if v is not None}
    path = root / "manifest.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return path


def series_lines(rng, steps=120, hours=1):
    """CSV lines of one station: ``steps`` rows ``hours`` apart (5 days hourly), about 5 % empty cells."""
    stamps = np.datetime64("2020-01-01T00:00") + np.arange(steps) * np.timedelta64(60 * hours, "m")
    values = rng.normal(size=(steps, len(FEATURES))) + np.arange(len(FEATURES))
    absent = rng.random(values.shape) < 0.05
    absent[:2] = False
    lines = [",".join(SERIES_HEADER)]
    for ts, row, gap in zip(stamps, values, absent):
        cells = ["" if g else f"{v:.4f}" for v, g in zip(row, gap)]
        lines.append(str(ts).replace("T", " ") + "," + ",".join(cells))
    return lines


def write_corpus(root, sites=STATIONS, days=5, hours=1, **manifest_changes):
    """A corpus of ``sites`` over ``days``, a row every ``hours``, under ``root`` (3 stations, 5 days
    hourly by default); returns the manifest path."""
    rng = np.random.default_rng(11)
    (root / "series").mkdir()
    (root / "stations.csv").write_text(
        "id,latitude,longitude\n" + "".join(f"{i},{la},{lo}\n" for i, la, lo in sites))
    for sid, _, _ in sites:
        (root / "series" / f"{sid}.csv").write_text("\n".join(series_lines(rng, 24 * days // hours, hours)) + "\n")
    return write_manifest(root, cadence_hours=str(hours), **manifest_changes)


def edit_series(root, sid, edit):
    path = root / "series" / f"{sid}.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


def set_cell(lineno, column, text):
    """Edit for :func:`edit_series` putting ``text`` in one cell of 1-based line ``lineno``."""
    def edit(lines):
        cells = lines[lineno - 1].split(",")
        cells[column] = text
        lines[lineno - 1] = ",".join(cells)
        return lines
    return edit


# ---------------------------------------------------------------- manifest


def test_manifest_parses(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    assert manifest.cadence_hours == 1.0
    assert manifest.series_dir == tmp_path / "series"
    assert manifest.splits.val == (date(2020, 1, 4), date(2020, 1, 4))


@pytest.mark.parametrize("changes, message", [
    (dict(timezone=None), r"missing keys \['timezone'\]"),
    (dict(manifest_version="2"), "unsupported manifest_version '2'"),
    (dict(cadence_hours="0"), "cadence_hours must be positive"),
    (dict(cadence_hours="-1"), "cadence_hours must be positive"),
    (dict(cadence_hours="hourly"), "cadence_hours must be numeric"),
    (dict(cadence_hours="nan"), "cadence_hours must be positive and finite"),
    (dict(cadence_hours="inf"), "cadence_hours must be positive and finite"),
])
def test_manifest_errors(tmp_path, changes, message):
    with pytest.raises(DataError, match=message):
        parse_manifest(write_manifest(tmp_path, **changes))


def test_missing_manifest_file(tmp_path):
    path = tmp_path / "manifest.txt"
    with pytest.raises(DataError, match=re.escape(f"{path}: cannot read input file")):
        parse_manifest(path)


# ---------------------------------------------------------------- loading


def test_load_corpus_reads_gaps_as_nan(tmp_path):
    panel, stations = load_corpus(parse_manifest(write_corpus(tmp_path)))
    assert [s.id for s in stations] == panel.station_ids == ["a", "b", "c"]
    assert panel.values.shape == (120, 3, len(FEATURES))
    assert 0.0 < np.isnan(panel.values).mean() < 0.1
    assert not np.any(np.isinf(panel.values))
    lines = (tmp_path / "series" / "b.csv").read_text().splitlines()
    cells = lines[5].split(",")[1:]     # data row 4
    assert [c == "" for c in cells] == np.isnan(panel.values[4, 1]).tolist()


@pytest.mark.parametrize("name, lineno", [("manifest.txt", 3), ("stations.csv", 2), ("series/b.csv", 7)],
                         ids=["manifest", "stations", "series"])
def test_input_that_is_not_utf8_refused_with_its_line(tmp_path, name, lineno):
    manifest = write_corpus(tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] += b"\xe9"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError, match=re.escape(f"{path}:{lineno}: not UTF-8 text (byte 0xe9)")):
        load_corpus(parse_manifest(manifest))


def test_load_corpus_missing_file(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    (tmp_path / "series" / "b.csv").unlink()
    with pytest.raises(DataError, match="missing series file for station 'b'"):
        load_corpus(manifest)


def test_load_corpus_ragged_row(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    path = edit_series(tmp_path, "c", lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:])
    with pytest.raises(DataError, match=f"{path}:8: expected 10 fields, got 9"):
        load_corpus(manifest)


def test_load_corpus_misaligned_timestamps(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    path = edit_series(tmp_path, "b", set_cell(4, 0, "2020-01-01 02:30"))
    with pytest.raises(DataError, match=f"{path}: timestamps differ from station 'a'"):
        load_corpus(manifest)


def test_load_corpus_cadence_gap(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    for sid, _, _ in STATIONS:
        edit_series(tmp_path, sid, lambda lines: lines[:10] + lines[11:])   # drops 09:00
    with pytest.raises(DataError, match="cadence violated between 2020-01-01T08:00 and "
                                        "2020-01-01T10:00"):
        load_corpus(manifest)


def test_three_hourly_corpus_prepares_and_predicts(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path, hours=3))
    prepared, report = prepare_corpus(manifest, threshold_km=20.0)
    assert prepared.cadence_hours == 3.0 and report["rows"] == 40
    assert sorted(set(prepared.spacetime[:, 0].tolist())) == list(range(0, 24, 3))
    prepared.save(tmp_path / "cache.bin")
    loaded = PreparedData.load(tmp_path / "cache.bin")
    assert_bitwise_equal(prepared, loaded)
    fresh, windows = prepared.windows("test", 4, 2), loaded.windows("test", 4, 2)
    assert len(windows) == 8 - (4 + 2) + 1
    for variant in VARIANTS:
        cfg = ModelConfig(variant=variant, hidden=5, history_steps=4, forecast_steps=2, node_dim=loaded.node_dim)
        model = Forecaster(cfg, loaded.network(), seed=0)
        for a, b in zip(fresh, windows):
            pred = model.predict(b)
            assert np.all(np.isfinite(pred)) and pred.tobytes() == model.predict(a).tobytes()


def test_two_hour_step_in_a_three_hourly_corpus_refused(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path, hours=3))
    for sid, _, _ in STATIONS:
        edit_series(tmp_path, sid, set_cell(5, 0, "2020-01-01 08:00"))   # 06:00, 08:00, 12:00
    with pytest.raises(DataError, match=re.escape("cadence violated between 2020-01-01T06:00 and "
                                                  "2020-01-01T08:00 (expected 3.0 h)")):
        load_corpus(manifest)


@pytest.mark.parametrize("literal", ["nan", "NaN", "inf", "-Infinity"])
def test_load_corpus_rejects_non_finite_literal(tmp_path, literal):
    manifest = parse_manifest(write_corpus(tmp_path))
    path = edit_series(tmp_path, "c", set_cell(6, 1 + FEATURES.index("temp"), literal))
    with pytest.raises(DataError, match=f"{path}:6: non-finite value '{literal}' for temp"):
        load_corpus(manifest)


def test_load_corpus_rejects_unparseable_value(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    path = edit_series(tmp_path, "a", set_cell(3, 1, "n/a"))
    with pytest.raises(DataError, match=f"{path}:3: bad value 'n/a' for rh"):
        load_corpus(manifest)


def blank_cells(row, columns):
    """Edit of a series' lines emptying ``columns`` of 0-based data row ``row``."""
    def edit(lines):
        cells = lines[row + 1].split(",")
        for k in columns:
            cells[k] = ""
        lines[row + 1] = ",".join(cells)
        return lines
    return edit


def series_text(*edits, newline="\n"):
    """Text of a 12-row series file after ``edits`` of its lines."""
    lines = series_lines(np.random.default_rng(2), steps=12)
    for edit in edits:
        lines = edit(lines)
    return newline.join(lines) + newline


def spaced(lines):
    return [lines[0]] + [" " + line.replace(",", " ,  ") + "  " for line in lines[1:]]


PLAIN_FILES = {
    "first and last value columns empty": series_text(blank_cells(0, [1]), blank_cells(3, [9]),
                                                      blank_cells(11, [1, 9])),
    "adjacent empty cells": series_text(blank_cells(2, [3, 4, 5, 6]), blank_cells(5, [8, 9])),
    "every value empty": series_text(blank_cells(4, range(1, 10))),
    "CRLF line endings": series_text(blank_cells(1, [2, 9]), newline="\r\n"),
    "spaces around cells": series_text(blank_cells(6, [5]), spaced),
    "trailing blank lines": series_text(blank_cells(7, [1]), lambda lines: lines + ["", "   ", ""]),
}


def read_series(tmp_path, text):
    """The series file holding ``text``, and the row parser's arrays of it."""
    path = tmp_path / "S.csv"
    path.write_bytes(text.encode())
    return path, hazecast.data._parse_rows(path, text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", PLAIN_FILES)
def test_fast_read_matches_row_parser(tmp_path, monkeypatch, name):
    path, (want_ts, want_values) = read_series(tmp_path, PLAIN_FILES[name])
    assert np.isnan(want_values).any()

    def refuse(*args):
        raise AssertionError("the fast read handed a plain file to the row parser")

    monkeypatch.setattr(hazecast.data, "_parse_rows", refuse)
    ts, values = hazecast.data._load_series(path)
    assert_bitwise_equal(ts, want_ts)
    assert_bitwise_equal(values, want_values)


@pytest.mark.parametrize("text", [
    series_text(set_cell(3, 2, '"1.5"')),
    series_text(lambda lines: ['"timestamp"' + lines[0][len("timestamp"):]] + lines[1:]),
    series_text(set_cell(3, 2, "\t1.5")),
], ids=["quoted cell", "quoted header", "tab"])
def test_files_the_fast_read_declines_go_to_the_row_parser(tmp_path, monkeypatch, text):
    path, want = read_series(tmp_path, text)
    calls = []
    parse_rows = hazecast.data._parse_rows

    def spy(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(hazecast.data, "_parse_rows", spy)
    for got, expected in zip(hazecast.data._load_series(path), want):
        assert_bitwise_equal(got, expected)
    assert len(calls) == 1


@pytest.mark.parametrize("edit, message", [
    (set_cell(4, 1 + FEATURES.index("temp"), "1e999"), ":4: non-finite value '1e999' for temp"),
    (set_cell(4, 1 + FEATURES.index("tp"), "-1E+400"), ":4: non-finite value '-1E\\+400' for tp"),
    (lambda lines: [lines[0]] + [line + ",0.5" for line in lines[1:]], ":2: expected 10 fields, got 11"),
    (lambda lines: [lines[0]] + [line.split(",")[0] for line in lines[1:]], ":2: expected 10 fields, got 1"),
], ids=["overflow", "negative overflow", "extra field in every row", "no comma in any row"])
def test_plain_looking_faults_reported_with_line(tmp_path, edit, message):
    path = tmp_path / "S.csv"
    path.write_text(series_text(edit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"{path}{message}"):
            hazecast.data._load_series(path)


@pytest.mark.parametrize("text", [",".join(SERIES_HEADER) + "\n", ",".join(SERIES_HEADER) + "\r\n\n  \n"])
def test_header_only_file_has_no_data_rows(tmp_path, text):
    path = tmp_path / "S.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError, match=f"{path}: no data rows"):
        hazecast.data._load_series(path)


# ---------------------------------------------------------------- splits and statistics


def hourly(days):
    return np.datetime64("2020-01-01T00:00") + np.arange(24 * days) * np.timedelta64(60, "m")


def split_spec(**changes):
    ranges = {**{k: MANIFEST[k] for k in SPLIT_NAMES}, **changes}
    return SplitSpec(**{k: tuple(map(date.fromisoformat, v.split(":"))) for k, v in ranges.items()})


def test_split_temporal_row_ranges():
    assert split_temporal(hourly(5), split_spec()) == {"train": (0, 72), "val": (72, 96),
                                                      "test": (96, 120)}


def test_split_temporal_rejects_uncovered_row():
    spec = split_spec(train="2020-01-01:2020-01-02")   # 2020-01-03 is in no split
    with pytest.raises(DataError, match="timestamp 2020-01-03T00:00 falls outside every split range"):
        split_temporal(hourly(5), spec)


def stats_panel(values):
    return RawPanel(timestamps=hourly(1)[:values.shape[0]], values=values, station_ids=["a", "b"],
                    features=("rh", "pm25", "tp"), cadence_hours=1.0)


def test_compute_stats_fits_training_rows_only():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(12, 2, 3))
    values[8:] = 1e6    # rows outside the training range
    kept, mean, std, dropped = compute_stats(stats_panel(values), (0, 8))
    train = values[:8].reshape(-1, 3)
    assert kept == ["rh", "pm25", "tp"] and dropped == []
    assert mean.tobytes() == train.mean(axis=0).tobytes()
    assert std.tobytes() == train.std(axis=0).tobytes()


def test_compute_stats_drops_feature_constant_on_training_rows():
    values = np.random.default_rng(4).normal(size=(12, 2, 3))
    values[:8, :, 2] = 0.0    # tp varies only outside the training rows
    with pytest.warns(UserWarning, match="dropping constant feature 'tp'"):
        kept, mean, std, dropped = compute_stats(stats_panel(values), (0, 8))
    assert kept == ["rh", "pm25"] and dropped == ["tp"]
    assert mean.shape == std.shape == (2,)


def test_compute_stats_rejects_constant_target():
    values = np.random.default_rng(4).normal(size=(12, 2, 3))
    values[:8, :, 1] = 35.0
    with pytest.raises(DataError, match="target pm25 is constant"):
        compute_stats(stats_panel(values), (0, 8))


# ---------------------------------------------------------------- prepared data


@pytest.fixture
def prepared(tmp_path):
    prepared, report = prepare_corpus(parse_manifest(write_corpus(tmp_path)), threshold_km=20.0)
    assert report["edges"] == prepared.network().n_edges > 0
    return prepared


def test_report_counts_missing_cells(tmp_path):
    manifest = parse_manifest(write_corpus(tmp_path))
    missing = np.isnan(load_corpus(manifest)[0].values)
    _, report = prepare_corpus(manifest, threshold_km=20.0)
    assert report["missing_pct"] == 100.0 * missing.mean() > 0.0
    assert report["missing_pct_by_feature"] == {name: 100.0 * missing[:, :, k].mean()
                                                for k, name in enumerate(FEATURES)}


@pytest.mark.parametrize("split", SPLIT_NAMES)
def test_windows_stay_inside_their_split(prepared, split):
    lo, hi = prepared.splits[split]
    h, f = 5, 3
    windows = prepared.windows(split, h, f)
    assert len(windows) == (hi - lo) - (h + f) + 1
    edge_feats = (edge_attributes_at(prepared.network(), prepared.wind[lo:hi])
                  - prepared.edge_mean) / prepared.edge_std
    for k, w in enumerate(windows):
        start = lo + k
        assert w.y_hist.tobytes() == prepared.y[start:start + h].tobytes()
        assert w.y_future.tobytes() == prepared.y[start + h:start + h + f].tobytes()
        assert w.edge_feats.tobytes() == edge_feats[k:k + h].tobytes()
        w.validate()
    assert windows[0].edge_feats.base is windows[-1].edge_feats.base    # views of one array


@pytest.mark.parametrize("lengths, field, value", [
    ((True, 2), "history_steps", True), ((2.5, 2), "history_steps", 2.5), ((0, 2), "history_steps", 0),
    ((4, 0), "forecast_steps", 0), ((4, np.int64(2)), "forecast_steps", np.int64(2)), ((4, "2"), "forecast_steps", "2"),
], ids=["bool history", "float history", "zero history", "zero forecast", "numpy int forecast", "text forecast"])
def test_window_lengths_must_be_ints(prepared, lengths, field, value):
    with pytest.raises(UsageError, match=re.escape(f"{field} must be an int >= 1, got {value!r}")):
        prepared.windows("train", *lengths)


def test_graph_built_once_per_prepared_data(prepared, tmp_path, monkeypatch):
    prepared.save(tmp_path / "cache.bin")
    loaded = PreparedData.load(tmp_path / "cache.bin")
    calls = []
    build = hazecast.data.build_network
    monkeypatch.setattr(hazecast.data, "build_network",
                        lambda *args: calls.append(args) or build(*args))
    loaded.windows("test", 4, 2)
    loaded.windows("train", 4, 2)
    network = loaded.network()
    assert loaded.network() is network
    assert len(calls) == 1
    assert network.edges.tobytes() == prepared.network().edges.tobytes()
    assert "_network" not in {f.name for f in dataclasses.fields(PreparedData)}


def assert_bitwise_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif hasattr(a, "__dataclass_fields__"):
        for name in a.__dataclass_fields__:
            assert_bitwise_equal(getattr(a, name), getattr(b, name))
    else:
        assert a == b


def test_cache_round_trip_bit_exact(prepared, tmp_path):
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    assert sorted(arrays) == ["coords", "edge_mean", "edge_std", "node_mean", "node_std",
                              "split_bounds", "timestamps", "wind", "x", "y"]
    loaded = PreparedData.load(path)
    assert_bitwise_equal(prepared, loaded)
    for split in SPLIT_NAMES:
        for a, b in zip(prepared.windows(split, 4, 2), loaded.windows(split, 4, 2)):
            assert_bitwise_equal(a, b)
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_int_threshold_survives_the_round_trip(tmp_path):
    prepared, _ = prepare_corpus(parse_manifest(write_corpus(tmp_path)), threshold_km=20)
    prepared.save(tmp_path / "cache.bin")
    loaded = PreparedData.load(tmp_path / "cache.bin")
    assert type(loaded.threshold_km) is int
    assert_bitwise_equal(prepared, loaded)


@pytest.mark.parametrize("constant_rh", [False, True])
def test_destandardize_target_restores_observed_pm25(tmp_path, constant_rh):
    """On every observed PM2.5 cell the destandardized target is the CSV value, also when
    ``rh``, a feature before the target, is dropped for being constant on the training rows."""
    manifest = parse_manifest(write_corpus(tmp_path))
    if constant_rh:
        for sid, _, _ in STATIONS:
            edit_series(tmp_path, sid, lambda lines: lines[:1] + [
                ",".join([stamp, "55.0", *rest]) for stamp, _, *rest in (line.split(",") for line in lines[1:])])
    raw = load_corpus(manifest)[0].values[:, :, FEATURES.index("pm25")]
    with pytest.warns(UserWarning, match="dropping constant feature 'rh'") if constant_rh else nullcontext():
        prepared, _ = prepare_corpus(manifest, threshold_km=20.0)
    assert prepared.features_dropped == (["rh"] if constant_rh else [])
    observed = ~np.isnan(raw)
    got = prepared.destandardize_target(prepared.y)[observed]
    assert observed.mean() > 0.9 and np.abs(got - raw[observed]).max() <= 1e-12 * np.abs(raw[observed]).max()


def test_prepared_arrays_are_c_ordered_like_a_loaded_cache(prepared, tmp_path):
    prepared.save(tmp_path / "cache.bin")
    loaded = PreparedData.load(tmp_path / "cache.bin")
    for name in ("x", "y", "wind"):
        fresh, cached = getattr(prepared, name), getattr(loaded, name)
        assert fresh.flags.c_contiguous and fresh.base is None
        assert fresh.strides == cached.strides


def test_prepare_makes_each_panel_sized_array_once(tmp_path):
    """The traced peak stays under 3.5 raw panels (2.8 here; it was 5.2 while the
    raw panel outlived imputation and standardization made three more), and the
    result holds its own arrays only (it held 1.7 times them while ``y`` was a
    view of the standardized block)."""
    rng = np.random.default_rng(8)
    sites = [(f"s{k}", 30.0 + la, 115.0 + lo) for k, (la, lo) in enumerate(rng.uniform(0, 1.5, (60, 2)))]
    manifest = parse_manifest(write_corpus(tmp_path, sites, days=50, train="2020-01-01:2020-02-04",
                                           val="2020-02-05:2020-02-11", test="2020-02-12:2020-02-19"))
    panel_bytes = load_corpus(manifest)[0].values.nbytes
    assert panel_bytes > 5_000_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prepared, report = prepare_corpus(manifest, threshold_km=20.0)
        with_result, peak = tracemalloc.get_traced_memory()
        arrays = sum(a.nbytes for a in vars(prepared).values() if isinstance(a, np.ndarray))
        del prepared
        held = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report["edges"] < 3 * len(sites)   # so the (T, E) edge statistics stay below the panel
    assert peak - base < 3.5 * panel_bytes
    assert held < 1.02 * arrays


def test_cache_of_another_version_refused(prepared, tmp_path):
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    save_arrays(path, arrays, {**meta, "cache_version": 1})
    with pytest.raises(DataError, match="unsupported cache version 1"):
        PreparedData.load(path)


def test_cache_without_a_metadata_key_refused(prepared, tmp_path):
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    del meta["features_kept"]
    save_arrays(path, arrays, meta)
    with pytest.raises(DataError, match=re.escape(f"{path}: cache lacks the metadata key or array 'features_kept'")):
        PreparedData.load(path)


def test_cache_without_an_array_refused(prepared, tmp_path):
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    del arrays["edge_std"]
    save_arrays(path, arrays, meta)
    with pytest.raises(DataError, match=re.escape(f"{path}: cache lacks the metadata key or array 'edge_std'")):
        PreparedData.load(path)


def test_missing_cache_file_refused(tmp_path):
    path = tmp_path / "cache.bin"
    with pytest.raises(DataError, match=re.escape(f"{path}: cannot read input file")):
        PreparedData.load(path)


def set_array(name, edit):
    return lambda arrays, meta: arrays.__setitem__(name, edit(arrays[name]))


def set_meta(name, edit):
    return lambda arrays, meta: meta.__setitem__(name, edit(meta[name]))


#: Rewrites of one field of a valid cache of 120 rows (train 0-72, val 72-96, test 96-120), 3 stations
#: and 9 features, and the fault each must be refused for.
CACHE_FAULTS = {
    "overlapping splits": (set_array("split_bounds", lambda b: np.array([[0, 72], [48, 96], [96, 120]])),
                           "split bounds [[0, 72], [48, 96], [96, 120]] do not tile the 120 rows in order"),
    "split past the rows": (set_array("split_bounds", lambda b: np.array([[0, 72], [72, 96], [96, 130]])),
                            "do not tile the 120 rows"),
    "empty split": (set_array("split_bounds", lambda b: np.array([[0, 72], [72, 72], [72, 120]])),
                    "do not tile the 120 rows"),
    "splits out of order": (set_array("split_bounds", lambda b: np.array([[48, 120], [24, 48], [0, 24]])),
                            "do not tile the 120 rows"),
    "two splits": (set_array("split_bounds", lambda b: b[:2]), "array 'split_bounds' has shape (2, 2), expected (3, 2)"),
    "x shorter than timestamps": (set_array("x", lambda x: x[10:]),
                                  "array 'x' has shape (110, 3, 8), expected (120, 3, 8)"),
    "y of two stations": (set_array("y", lambda y: y[:, :2]), "array 'y' has shape (120, 2), expected (120, 3)"),
    "node_mean one short": (set_array("node_mean", lambda m: m[:-1]),
                            "array 'node_mean' has shape (8,), expected (9,)"),
    "four edge statistics": (set_array("edge_std", lambda m: m[:-1]),
                             "array 'edge_std' has shape (4,), expected (5,)"),
    "reversed timestamps": (set_array("timestamps", lambda t: t[::-1]), "timestamps are not strictly increasing"),
    "repeated timestamp": (set_array("timestamps", lambda t: np.r_[t[:1], t[:-1]]),
                           "timestamps are not strictly increasing"),
    "no pm25": (set_meta("features_kept", lambda f: [name if name != "pm25" else "pm10" for name in f]),
                "features_kept lacks the target 'pm25'"),
    "station_ids one short": (set_meta("station_ids", lambda ids: ids[:-1]),
                              "array 'coords' has shape (3, 2), expected (2, 2)"),
    "3-component wind": (set_array("wind", lambda w: np.concatenate([w, w[..., :1]], axis=-1)),
                         "array 'wind' has shape (120, 3, 3), expected (120, 3, 2)"),
    "3-column coords": (set_array("coords", lambda c: np.column_stack([c, c[:, :1]])),
                        "array 'coords' has shape (3, 3), expected (3, 2)"),
    "non-finite node mean": (set_array("node_mean", lambda m: np.r_[m[:-1], np.nan]),
                             "statistics must be finite, with every std positive"),
    "infinite edge mean": (set_array("edge_mean", lambda m: np.r_[m[:-1], np.inf]),
                           "statistics must be finite, with every std positive"),
    "zero node std": (set_array("node_std", lambda m: np.r_[0.0, m[1:]]),
                      "statistics must be finite, with every std positive"),
    "negative edge std": (set_array("edge_std", lambda m: -m), "statistics must be finite, with every std positive"),
    "negative threshold": (set_meta("threshold_km", lambda t: -5.0),
                           "threshold_km must be positive and finite, got -5.0"),
    "NaN threshold": (set_meta("threshold_km", lambda t: float("nan")),
                      "threshold_km must be positive and finite, got nan"),
    "text threshold": (set_meta("threshold_km", lambda t: "20"),
                       "threshold_km must be positive and finite, got '20'"),
    "int64 x": (set_array("x", lambda x: np.round(x).astype(np.int64)),
                "array 'x' has dtype int64, expected float64"),
    "float timestamps": (set_array("timestamps", lambda t: t.astype(np.float64)),
                         "array 'timestamps' has dtype float64, expected int64"),
    "float split bounds": (set_array("split_bounds", lambda b: b.astype(np.float64)),
                           "array 'split_bounds' has dtype float64, expected int64"),
    "text cadence": (set_meta("cadence_hours", lambda c: "x"), "cadence_hours must be positive and finite, got 'x'"),
    "negative cadence": (set_meta("cadence_hours", lambda c: -1.0),
                         "cadence_hours must be positive and finite, got -1.0"),
    "features_kept a number": (set_meta("features_kept", lambda f: 5), "features_kept must be a list of strings"),
    "features_dropped a number": (set_meta("features_dropped", lambda f: 3),
                                  "features_dropped must be a list of strings"),
    "numeric station ids": (set_meta("station_ids", lambda ids: list(range(len(ids)))),
                            "station_ids must be a list of strings"),
    "numeric timezone": (set_meta("timezone", lambda z: 8), "timezone must be a string, got 8"),
    "repeated station id": (set_meta("station_ids", lambda ids: [ids[0], *ids[:-1]]),
                            "duplicate station ids: ['a']"),
}


@pytest.mark.parametrize("case", CACHE_FAULTS)
def test_inconsistent_cache_refused(prepared, tmp_path, case):
    edit, message = CACHE_FAULTS[case]
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    edit(arrays, meta)
    save_arrays(path, arrays, meta)
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        PreparedData.load(path)
