import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hazecast
from hazecast.data import RawPanel, WindowSample, impute_chained, spacetime_features


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
        spacetime=np.zeros((h + f, 3), dtype=np.int64),
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
    with pytest.raises(ValueError, match=message):
        window(**changes).validate()


@pytest.mark.parametrize("field", ["x", "y_hist", "y_future", "edge_feats"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_rejected(field, bad):
    sample = window()
    arr = getattr(sample, field).copy()
    arr.flat[1] = bad
    setattr(sample, field, arr)
    with pytest.raises(ValueError, match=f"non-finite values in window field {field}"):
        sample.validate()


# ---------------------------------------------------------------- imputation


def gappy_panel():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 2, 3))
    mask = rng.random(values.shape) > 0.2
    return RawPanel(
        timestamps=np.datetime64("2020-01-01T00:00") + np.arange(40) * np.timedelta64(60, "m"),
        values=np.where(mask, values, np.nan),
        mask=mask,
        station_ids=["a", "b"],
        features=("f0", "f1", "f2"),
        cadence_hours=1.0,
    )


def test_imputation_runs_blas_on_one_thread(blas_threads, monkeypatch):
    seen = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    impute_chained(gappy_panel(), iterations=2)
    assert seen and set(seen) == {1}
    assert blas_threads() == 2
