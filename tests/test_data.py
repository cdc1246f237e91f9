import dataclasses
import json
import os
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import hazecast
from hazecast.container import load_arrays, save_arrays
from hazecast.data import (
    FEATURES,
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
from hazecast.errors import DataError
from hazecast.geo import edge_attributes_at


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
    loaded = loaded_modules("import hazecast.geo")
    assert "hazecast.geo" in loaded
    assert not loaded & {"hazecast.data", "hazecast.model"}


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
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    impute_chained(gappy_panel(), iterations=2)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def impute_oracle(panel, iterations=5):
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
        for _ in range(iterations):
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


def assert_matches_oracle(panel, iterations=5):
    """``impute_chained`` agrees with the oracle; observed cells keep their bits."""
    got = impute_chained(panel, iterations=iterations).values
    want = impute_oracle(panel, iterations=iterations)
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


@pytest.mark.parametrize("iterations", [1, 5])
@pytest.mark.parametrize("seed", [5, 6])
def test_imputation_matches_lstsq_oracle(seed, iterations):
    assert_matches_oracle(correlated_panel(seed), iterations)


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


def series_lines(rng, steps=120):
    """CSV lines of one station: 5 days hourly, about 5 % empty cells."""
    stamps = np.datetime64("2020-01-01T00:00") + np.arange(steps) * np.timedelta64(60, "m")
    values = rng.normal(size=(steps, len(FEATURES))) + np.arange(len(FEATURES))
    absent = rng.random(values.shape) < 0.05
    absent[:2] = False
    lines = [",".join(SERIES_HEADER)]
    for ts, row, gap in zip(stamps, values, absent):
        cells = ["" if g else f"{v:.4f}" for v, g in zip(row, gap)]
        lines.append(str(ts).replace("T", " ") + "," + ",".join(cells))
    return lines


def write_corpus(root, **manifest_changes):
    """A 3-station, 5-day hourly corpus under ``root``; returns the manifest path."""
    rng = np.random.default_rng(11)
    (root / "series").mkdir()
    (root / "stations.csv").write_text(
        "id,latitude,longitude\n" + "".join(f"{i},{la},{lo}\n" for i, la, lo in STATIONS))
    for sid, _, _ in STATIONS:
        (root / "series" / f"{sid}.csv").write_text("\n".join(series_lines(rng)) + "\n")
    return write_manifest(root, **manifest_changes)


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
])
def test_manifest_errors(tmp_path, changes, message):
    with pytest.raises(DataError, match=message):
        parse_manifest(write_manifest(tmp_path, **changes))


# ---------------------------------------------------------------- loading


def test_load_corpus_reads_gaps_as_nan(tmp_path):
    panel, stations = load_corpus(parse_manifest(write_corpus(tmp_path)))
    assert [s.id for s in stations] == panel.station_ids == ["a", "b", "c"]
    assert panel.values.shape == (120, 3, len(FEATURES))
    assert 0.0 < panel.missing_fraction() < 0.1
    assert not np.any(np.isinf(panel.values))
    lines = (tmp_path / "series" / "b.csv").read_text().splitlines()
    cells = lines[5].split(",")[1:]     # data row 4
    assert [c == "" for c in cells] == np.isnan(panel.values[4, 1]).tolist()


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
    stats = compute_stats(stats_panel(values), (0, 8))
    train = values[:8].reshape(-1, 3)
    assert stats.features == ("rh", "pm25", "tp") and stats.dropped == ()
    assert stats.mean.tobytes() == train.mean(axis=0).tobytes()
    assert stats.std.tobytes() == train.std(axis=0).tobytes()


def test_compute_stats_drops_feature_constant_on_training_rows():
    values = np.random.default_rng(4).normal(size=(12, 2, 3))
    values[:8, :, 2] = 0.0    # tp varies only outside the training rows
    with pytest.warns(UserWarning, match="dropping constant feature 'tp'"):
        stats = compute_stats(stats_panel(values), (0, 8))
    assert stats.features == ("rh", "pm25") and stats.dropped == ("tp",)
    assert stats.mean.shape == stats.std.shape == (2,)


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
        assert prepared.timestamps[lo] < w.timestamps_future[0]
        assert w.timestamps_future[-1] <= prepared.timestamps[hi - 1]
        w.validate()
    assert windows[0].edge_feats.base is windows[-1].edge_feats.base    # views of one array


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


def test_cache_of_another_version_refused(prepared, tmp_path):
    path = tmp_path / "cache.bin"
    prepared.save(path)
    arrays, meta = load_arrays(path)
    save_arrays(path, arrays, {**meta, "cache_version": 1})
    with pytest.raises(DataError, match="unsupported cache version 1"):
        PreparedData.load(path)
