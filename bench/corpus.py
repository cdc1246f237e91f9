"""Seeded synthetic station corpus in the layout ``hazecast.data`` reads.

A corpus is a manifest, a ``stations.csv`` and one hourly CSV per station
with the nine features of ``hazecast.data.FEATURES``.  Stations are drawn
uniformly in a square around a fixed centre.  The series combine seasonal and
diurnal cycles with AR(1) weather shared across the region, so neighbouring
stations correlate and PM2.5 responds to boundary-layer height and wind.
Missingness is random single cells plus whole-station outage runs.

The same spec and seed always give byte-identical files: every value comes
from one ``numpy.random.Generator`` and is written with a fixed format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

FEATURES = ("rh", "temp", "pm25", "pbl", "u10", "v10", "kindex", "sp", "tp")
CENTRE = (30.0, 115.0)  # latitude, longitude of the square's centre
KM_PER_DEGREE = 111.2
START = date(2015, 1, 1)
SPLIT_FRACTIONS = (0.7, 0.1)  # train, val; test takes the remaining days


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus.

    ``area_km`` is the side of the square the stations are drawn in and
    ``threshold_km`` the edge distance the benchmark passes to
    ``prepare_corpus``; together with the station count they set the mean
    in-degree.  Stations are placed from ``layout_seed``, not from the run
    seed, so a workload keeps one network while its weather and gaps vary.
    """

    n_stations: int
    days: int
    area_km: float
    threshold_km: float
    cell_missing: float = 0.02       # chance that one feature value is absent
    outages_per_station: float = 2.0  # mean number of whole-row outage runs
    max_outage_hours: int = 48
    layout_seed: int = 0

    def split_days(self) -> tuple[int, int, int]:
        train = int(self.days * SPLIT_FRACTIONS[0])
        val = max(1, int(self.days * SPLIT_FRACTIONS[1]))
        return train, val, self.days - train - val


def _ar1(rng: np.random.Generator, steps: int, width: int, phi: float) -> np.ndarray:
    """(steps, width) stationary unit-variance AR(1) series."""
    shocks = rng.standard_normal((steps, width)) * math.sqrt(1.0 - phi * phi)
    out = np.empty((steps, width))
    out[0] = rng.standard_normal(width)
    for t in range(1, steps):
        out[t] = phi * out[t - 1] + shocks[t]
    return out


def _series(rng: np.random.Generator, spec: CorpusSpec, xy_km: np.ndarray) -> np.ndarray:
    """(T, L, 9) feature values in physical units, columns as FEATURES."""
    steps, n = spec.days * 24, spec.n_stations
    hour = np.arange(steps) % 24
    day = np.arange(steps) / 24.0
    season = np.cos(2 * np.pi * (day - 15.0) / 365.0)[:, None]      # +1 in mid-January
    diurnal = np.sin(2 * np.pi * (hour - 9) / 24.0)[:, None]        # +1 at 15:00

    # Regional weather: a few AR(1) modes, felt by each station through a
    # smooth position-dependent loading, plus a weaker local AR(1).
    loadings = 1.0 + 0.3 * np.tanh(xy_km / spec.area_km)             # (L, 2)
    regional = _ar1(rng, steps, 5, 0.97)
    local = _ar1(rng, steps, 5 * n, 0.9).reshape(steps, 5, n)

    temp = 16.0 - 11.0 * season + 4.0 * diurnal + 3.0 * regional[:, :1] * loadings[:, 0] \
        + 1.0 * local[:, 0] - 0.01 * xy_km[:, 1]
    rh = np.clip(65.0 - 1.2 * (temp - 16.0) + 10.0 * local[:, 1] + 5.0 * regional[:, 1:2], 5.0, 100.0)
    pbl = np.maximum(50.0, 700.0 + 450.0 * diurnal - 200.0 * season + 120.0 * local[:, 2])
    u10 = 2.5 * regional[:, 2:3] * loadings[:, 0] + 1.0 * local[:, 3]
    v10 = 2.5 * regional[:, 3:4] * loadings[:, 1] + 1.0 * local[:, 4]
    speed = np.hypot(u10, v10)
    kindex = 20.0 + 8.0 * regional[:, 4:5] - 6.0 * season + rng.normal(0.0, 2.0, (steps, n))
    sp = 1013.0 + 8.0 * season - 3.0 * regional[:, 1:2] + rng.normal(0.0, 0.5, (steps, n))
    rain = rng.random((steps, n)) < 0.04 + 0.03 * (rh > 85.0)
    tp = np.where(rain, rng.exponential(1.5, (steps, n)), 0.0)
    log_pm = 3.6 + 0.5 * season + 0.5 * regional[:, 4:5] - 0.35 * (pbl - 700.0) / 300.0 \
        - 0.08 * speed + 0.15 * local[:, 2] - 0.2 * (tp > 0)
    pm25 = np.exp(log_pm)
    return np.stack([rh, temp, pm25, pbl, u10, v10, kindex, sp, tp], axis=2)


def _missing_mask(rng: np.random.Generator, spec: CorpusSpec, steps: int) -> np.ndarray:
    """(T, L, 9) bool, True where the value is absent from the CSV."""
    n, c = spec.n_stations, len(FEATURES)
    missing = rng.random((steps, n, c)) < spec.cell_missing
    counts = rng.poisson(spec.outages_per_station, n)
    for st in range(n):
        for _ in range(counts[st]):
            length = int(rng.integers(3, spec.max_outage_hours + 1))
            start = int(rng.integers(0, max(1, steps - length)))
            missing[start:start + length, st, :] = True
    # Imputation needs at least two observed values per station and feature;
    # the first two rows are always kept.
    missing[:2] = False
    return missing


def _rows(stamps: list[str], values: np.ndarray, missing: np.ndarray):
    """CSV lines of one station, with an empty cell for each missing value."""
    full = "%s," + ",".join(["%.3f"] * len(FEATURES)) + "\n"
    gaps = missing.any(axis=1)
    for ts, row, gap, absent in zip(stamps, values.tolist(), gaps.tolist(), missing.tolist()):
        if gap:
            yield ts + "," + ",".join("" if a else "%.3f" % v for v, a in zip(row, absent)) + "\n"
        else:
            yield full % (ts, *row)


def write_corpus(root, spec: CorpusSpec, seed: int) -> Path:
    """Write a corpus under ``root`` and return the manifest path."""
    root = Path(root)
    series_dir = root / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    steps = spec.days * 24

    layout = np.random.default_rng(spec.layout_seed)
    xy_km = (layout.random((spec.n_stations, 2)) - 0.5) * spec.area_km  # (east, north)
    lat = CENTRE[0] + xy_km[:, 1] / KM_PER_DEGREE
    lon = CENTRE[1] + xy_km[:, 0] / (KM_PER_DEGREE * math.cos(math.radians(CENTRE[0])))
    ids = [f"S{k:04d}" for k in range(spec.n_stations)]
    with open(root / "stations.csv", "w", newline="\n") as fh:
        fh.write("id,latitude,longitude\n")
        fh.writelines(f"{sid},{la:.5f},{lo:.5f}\n" for sid, la, lo in zip(ids, lat, lon))

    values = _series(rng, spec, xy_km)
    missing = _missing_mask(rng, spec, steps)
    stamps = np.datetime64(START, "m") + np.arange(steps) * np.timedelta64(60, "m")
    stamp_text = [str(s).replace("T", " ") for s in stamps]
    header = "timestamp," + ",".join(FEATURES) + "\n"
    for st, sid in enumerate(ids):
        with open(series_dir / f"{sid}.csv", "w", newline="\n") as fh:
            fh.write(header)
            fh.writelines(_rows(stamp_text, values[:, st, :], missing[:, st, :]))

    train, val, _ = spec.split_days()
    last = START + timedelta(days=spec.days - 1)
    val_start = START + timedelta(days=train)
    test_start = val_start + timedelta(days=val)
    manifest = root / "manifest.txt"
    manifest.write_text(
        "manifest_version = 1\n"
        "cadence_hours = 1\n"
        "timezone = Asia/Shanghai\n"
        "stations = stations.csv\n"
        "series_dir = series\n"
        f"train = {START}:{val_start - timedelta(days=1)}\n"
        f"val = {val_start}:{test_start - timedelta(days=1)}\n"
        f"test = {test_start}:{last}\n")
    return manifest


def write_subset(manifest: Path, n_stations: int) -> Path:
    """A second manifest over the ``n_stations`` stations nearest the centre.

    It shares the series files of ``manifest`` and lists only the chosen
    stations, so ``prepare_corpus`` reads a smaller corpus of the same data.
    """
    root = manifest.parent
    lines = (root / "stations.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    scale = math.cos(math.radians(CENTRE[0]))
    rows.sort(key=lambda r: (float(r[1]) - CENTRE[0]) ** 2 + ((float(r[2]) - CENTRE[1]) * scale) ** 2)
    kept = sorted(rows[:n_stations])
    (root / "stations_subset.csv").write_text(
        lines[0] + "\n" + "".join(",".join(r) + "\n" for r in kept))
    text = manifest.read_text().replace("stations = stations.csv", "stations = stations_subset.csv")
    subset = root / "manifest_subset.txt"
    subset.write_text(text)
    return subset
