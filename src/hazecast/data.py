"""Data ingestion, gap imputation, standardization, splits and windowing.

A corpus is a directory of per-station CSV series plus a manifest declaring
cadence, timezone, the station file and the temporal split dates.  The
pipeline is: load -> impute gaps -> fit standardization statistics of the
node features and edge attributes on the training rows only -> cache the
standardized panel, the raw wind and those statistics -> cut the cache into
:class:`WindowSample` windows, deriving the station graph, the calendar and
the edge attributes again from the cached inputs.

Timestamps are naive local times; the manifest's timezone field documents
their locality but no conversion is applied.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, replace
from datetime import date
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import single_threaded_blas
from .container import load_arrays, save_arrays
from .errors import DataError, UsageError
from .geo import (
    Station,
    StationNetwork,
    build_network,
    edge_attribute_stats,
    edge_attributes_at,
    read_stations_csv,
)
from .kvfile import read_keyvalue

FEATURES = ("rh", "temp", "pm25", "pbl", "u10", "v10", "kindex", "sp", "tp")
TARGET = "pm25"
SERIES_HEADER = ("timestamp",) + FEATURES
CACHE_VERSION = 2
MANIFEST_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")


# --------------------------------------------------------------------------- panel


@dataclass
class RawPanel:
    """Hourly (or coarser) per-station feature matrix; NaN marks a missing cell."""

    timestamps: np.ndarray          # (T,) datetime64[m], strictly increasing, fixed cadence
    values: np.ndarray              # (T, L, C) float, NaN where missing, finite elsewhere
    station_ids: list[str]
    features: tuple[str, ...]
    cadence_hours: float

    @property
    def n_steps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_stations(self) -> int:
        return len(self.station_ids)

    def validate(self) -> None:
        t, n, c = self.n_steps, self.n_stations, len(self.features)
        if self.values.shape != (t, n, c):
            raise DataError("panel arrays inconsistent with timestamps/stations/features")
        if t >= 2:
            deltas = np.diff(self.timestamps.astype("datetime64[m]").astype(np.int64))
            step = round(self.cadence_hours * 60)
            if np.any(deltas <= 0):
                raise DataError("panel timestamps must be strictly increasing")
            if np.any(deltas != step):
                k = int(np.argmax(deltas != step))
                raise DataError(
                    f"panel cadence violated between {self.timestamps[k]} and "
                    f"{self.timestamps[k + 1]} (expected {self.cadence_hours} h)")
        if np.any(np.isinf(self.values)):
            raise DataError("panel holds infinite values")

    def missing_fraction(self) -> float:
        return float(np.isnan(self.values).mean()) if self.values.size else 0.0


# --------------------------------------------------------------------------- manifest


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive train/validation/test date ranges; ordered and disjoint."""

    train: tuple[date, date]
    val: tuple[date, date]
    test: tuple[date, date]

    def __post_init__(self):
        for name, (start, end) in zip(SPLIT_NAMES, (self.train, self.val, self.test)):
            if start > end:
                raise DataError(f"{name} split range {start}..{end} is empty")
        if not (self.train[1] < self.val[0] and self.val[1] < self.test[0]):
            raise DataError("split ranges must be ordered train < val < test and disjoint")

    def ranges(self):
        return dict(zip(SPLIT_NAMES, (self.train, self.val, self.test)))


@dataclass
class Manifest:
    cadence_hours: float
    timezone: str
    stations_path: Path
    series_dir: Path
    splits: SplitSpec


def _parse_date(text: str, context: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"{context}: invalid date {text!r} (expected YYYY-MM-DD)") from None


def _parse_range(text: str, context: str) -> tuple[date, date]:
    if ":" not in text:
        raise DataError(f"{context}: expected 'start:end' date range, got {text!r}")
    start, _, end = text.partition(":")
    return _parse_date(start, context), _parse_date(end, context)


def parse_manifest(path) -> Manifest:
    path = Path(path)
    pairs = read_keyvalue(path)
    required = {"manifest_version", "cadence_hours", "timezone", "stations",
                "series_dir", "train", "val", "test"}
    missing = required - set(pairs)
    if missing:
        raise DataError(f"{path}: manifest missing keys {sorted(missing)}")
    if pairs["manifest_version"] != str(MANIFEST_VERSION):
        raise DataError(f"{path}: unsupported manifest_version {pairs['manifest_version']!r}")
    try:
        cadence = float(pairs["cadence_hours"])
    except ValueError:
        raise DataError(f"{path}: cadence_hours must be numeric") from None
    if cadence <= 0:
        raise DataError(f"{path}: cadence_hours must be positive")
    splits = SplitSpec(
        train=_parse_range(pairs["train"], f"{path}: train"),
        val=_parse_range(pairs["val"], f"{path}: val"),
        test=_parse_range(pairs["test"], f"{path}: test"),
    )
    base = path.parent
    return Manifest(
        cadence_hours=cadence,
        timezone=pairs["timezone"],
        stations_path=base / pairs["stations"],
        series_dir=base / pairs["series_dir"],
        splits=splits,
    )


# --------------------------------------------------------------------------- loading


def _load_series(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, values) of one station, reading the file once; an empty cell becomes NaN.

    A plain file (the header, then rows of digits, signs, points, exponents,
    colons, ``T``, spaces and commas) goes to ``np.loadtxt``, its empty cells
    set to ``nan``.  Any other file, or one loadtxt or the checks after it
    reject, goes to the row parser, which reports faults with ``file:line``.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    lines = [line for line in re.sub(r", *(?=[,\r\n]|\Z)", ",nan", body).splitlines() if line.strip(" ")]
    stamps, rest = zip(*(line.partition(",")[::2] for line in lines)) if lines else ((), ())
    if ([h.strip(" ") for h in header.removesuffix("\r").split(",")] == list(SERIES_HEADER)
            and re.fullmatch(r"[0-9eE+\-.,:T \r\n]*", body) and lines and all(rest)):
        try:   # all(rest): loadtxt would skip a row without a comma
            values = np.loadtxt(rest, delimiter=",", ndmin=2)
            timestamps = np.array([s.strip(" ") for s in stamps], dtype="datetime64[m]")
            if values.shape == (len(lines), len(FEATURES)) and not np.isinf(values).any():
                return timestamps, values
        except ValueError:
            pass
    return _parse_rows(path, text)


def _parse_rows(path: Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parse of a series file's ``text``; raises ``DataError`` at the first fault."""
    timestamps, rows = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty series file") from None
    if tuple(h.strip() for h in header) != SERIES_HEADER:
        raise DataError(f"{path}:1: expected header {','.join(SERIES_HEADER)!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(SERIES_HEADER):
            raise DataError(f"{path}:{lineno}: expected {len(SERIES_HEADER)} fields, got {len(row)}")
        try:
            timestamps.append(np.datetime64(row[0].strip(), "m"))
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable timestamp {row[0]!r}") from None
        cells = [cell.strip() for cell in row[1:]]
        for name, cell in zip(FEATURES, cells):
            try:
                finite = not cell or math.isfinite(float(cell))
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value {cell!r} for {name}") from None
            if not finite:
                raise DataError(f"{path}:{lineno}: non-finite value {cell!r} for {name} "
                                "(leave a missing cell empty)")
        rows.append([float(cell) if cell else np.nan for cell in cells])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(timestamps, dtype="datetime64[m]"), np.array(rows, dtype=float)


def load_corpus(manifest: Manifest) -> tuple[RawPanel, list[Station]]:
    """Load every station series named by the manifest into one panel, allocated once T is known."""
    stations = read_stations_csv(manifest.stations_path)
    ref_ts = values = None
    for k, st in enumerate(stations):
        path = manifest.series_dir / f"{st.id}.csv"
        if not path.exists():
            raise DataError(f"missing series file for station {st.id!r}: {path}")
        ts, vals = _load_series(path)
        if ref_ts is None:
            ref_ts = ts
            values = np.empty((len(ts), len(stations), len(FEATURES)))
        elif ts.shape != ref_ts.shape or np.any(ts != ref_ts):
            raise DataError(f"{path}: timestamps differ from station {stations[0].id!r}")
        values[:, k] = vals
    panel = RawPanel(
        timestamps=ref_ts,
        values=values,
        station_ids=[s.id for s in stations],
        features=FEATURES,
        cadence_hours=manifest.cadence_hours,
    )
    panel.validate()
    return panel, stations


# --------------------------------------------------------------------------- calendar


def spacetime_features(timestamps: np.ndarray) -> np.ndarray:
    """(T, 3) int64 array of (hour 0-23, weekday 0-6 with Monday 0, month 1-12).

    Computed by datetime64 arithmetic: 1970-01-01, day 0, was a Thursday.
    """
    ts = np.asarray(timestamps, dtype="datetime64")
    days = ts.astype("datetime64[D]")
    hour = (ts.astype("datetime64[h]") - days).astype(np.int64)
    weekday = (days.astype(np.int64) + 3) % 7
    month = ts.astype("datetime64[M]").astype(np.int64) % 12 + 1
    return np.column_stack([hour, weekday, month])


# --------------------------------------------------------------------------- splits


def split_temporal(timestamps: np.ndarray, spec: SplitSpec) -> dict[str, tuple[int, int]]:
    """Assign rows to the splits by timestamp date; returns index ranges.

    Every row must fall in exactly one range and no range may be empty.
    """
    days = timestamps.astype("datetime64[D]")
    bounds = {}
    for name, (start, end) in spec.ranges().items():
        lo = np.datetime64(start, "D")
        hi = np.datetime64(end, "D")
        inside = (days >= lo) & (days <= hi)
        if not inside.any():
            raise DataError(f"{name} split {start}..{end} contains no rows")
        idx = np.flatnonzero(inside)
        bounds[name] = (int(idx[0]), int(idx[-1]) + 1)
    covered = sum(e - s for s, e in bounds.values())
    if covered != timestamps.shape[0]:
        outside = np.ones(timestamps.shape[0], dtype=bool)
        for s, e in bounds.values():
            outside[s:e] = False
        first = timestamps[np.flatnonzero(outside)[0]]
        raise DataError(f"timestamp {first} falls outside every split range")
    return bounds


# --------------------------------------------------------------------------- imputation


@single_threaded_blas()
def impute_chained(panel: RawPanel, iterations: int = 5) -> RawPanel:
    """Fill gaps by chained-equations regression (MICE; van Buuren and Groothuis-Oudshoorn 2011).

    Missing cells start at their feature's observed mean; each sweep refits
    every feature, in column order, on the current values of the others by
    least squares and re-predicts its missing cells (a feature with constant
    observed values gets that constant).  Observed cells and stations without
    gaps are untouched.  All stations are fitted at once: each keeps the Gram
    matrix of ``[1, features]``, features centred and scaled by their observed
    mean and std; feature c's normal equations are that Gram less the rows
    missing in c, and re-predicting c changes only its row and column.  The
    missing rows are gathered per group of stations: for feature c, the
    stations whose gap count in c rounds up to the same power of two form a
    group, and each group's gather is padded to that width with a zero row,
    so no station carries more than twice its own gaps.  One batched solve
    per (feature, sweep) then serves every station.  Fills agree with a
    per-station ``lstsq`` loop to 1e-8 of each feature's std (about 1e-11 on
    the benchmark corpora); as normal equations, the error grows with the
    square of a design's condition number.  BLAS runs on one thread.
    """
    if iterations < 1:
        raise UsageError("imputation needs at least one iteration")
    values = panel.values.copy()
    gappy = np.flatnonzero(np.isnan(values).any(axis=(0, 2)))
    n_st, n_steps, n_feat = len(gappy), values.shape[0], values.shape[2]
    design = np.zeros((n_st, n_steps + 1, n_feat + 1))   # the last row stays zero and pads gathers
    design[:, :n_steps, 0] = 1.0
    z = design[:, :n_steps, 1:]
    z[...] = values[:, gappy].transpose(1, 0, 2)
    observed = ~np.isnan(z)
    n_obs = observed.sum(axis=1)
    if np.any(n_obs < 2):
        st, c = np.argwhere(n_obs < 2)[0]
        raise DataError(f"station {panel.station_ids[gappy[st]]!r}, feature {panel.features[c]!r}: "
                        f"only {n_obs[st, c]} observed values; cannot impute")
    centre = z.mean(axis=1, where=observed)
    low = z.min(axis=1, where=observed, initial=np.inf)
    constant = low == z.max(axis=1, where=observed, initial=-np.inf)
    z -= centre[:, None]
    z[~observed] = 0.0
    scale = np.where(constant, 1.0, np.sqrt(np.einsum("stc,stc->sc", z, z) / n_obs))
    z /= scale[:, None]
    groups = [_gap_groups(observed, c, gappy, panel.n_stations) for c in range(n_feat)]
    design_rows, design_cells, panel_cells = design.reshape(-1, n_feat + 1), design.ravel(), values.ravel()
    gram = design.transpose(0, 2, 1) @ design
    for _ in range(iterations):
        for c, feature_groups in enumerate(groups):
            reduced = gram.copy()
            gathered = []
            for at, gather, *_ in feature_groups:
                rows = np.take(design_rows, gather, axis=0)
                reduced[at] -= rows.transpose(0, 2, 1) @ rows
                gathered.append(rows)
            coef = _least_norm_coef(reduced, c, centre, scale)
            for (at, _, real, in_design, in_panel), rows in zip(feature_groups, gathered):
                pred = np.where(constant[at, c, None], low[at, c, None], (rows @ coef[at, :, None])[..., 0])
                change = np.where(real, (pred - centre[at, c, None]) / scale[at, c, None]
                                  - rows[..., c + 1], 0.0)
                cross = (rows.transpose(0, 2, 1) @ change[:, :, None])[..., 0]
                gram[at, c + 1] += cross
                gram[at, :, c + 1] += cross
                gram[at, c + 1, c + 1] += (change * change).sum(axis=1)
                design_cells[in_design] += change[real]
                panel_cells[in_panel] = pred[real]
    out = replace(panel, values=values)
    out.validate()
    return out


def _gap_groups(observed: np.ndarray, c: int, gappy: np.ndarray, n_stations: int) -> list[tuple]:
    """Stations with gaps in feature ``c``, grouped by gap count rounded up to a power of two.

    ``observed`` is the (S, T, C) mask of the design, whose stations are
    ``gappy`` of the panel's ``n_stations``.  A group is ``(stations, gather,
    real, in_design, in_panel)``: ``gather`` holds, per station, the flat
    design rows of its missing rows, padded with its zero row T to the
    group's width, and ``real`` marks the missing ones; ``in_design`` and
    ``in_panel`` are their flat cells of feature ``c``, in ``gather``'s order.
    """
    _, n_steps, n_feat = observed.shape
    gaps = n_steps - observed[:, :, c].sum(axis=1)
    width = np.where(gaps > 0, 1 << np.frexp(np.maximum(gaps - 1, 0))[1], 0)
    missing = np.sort(np.where(observed[:, :, c], n_steps, np.arange(n_steps)), axis=1)
    out = []
    for w in np.unique(width[width > 0]):
        at = np.flatnonzero(width == w)
        pad = missing[at, :w]
        real = pad < n_steps
        gather = at[:, None] * (n_steps + 1) + pad
        station = gappy[np.repeat(at, real.sum(axis=1))]
        out.append((at, gather, real, gather[real] * (n_feat + 1) + c + 1,
                    (pad[real] * n_stations + station) * n_feat + c))
    return out


def _least_norm_coef(gram: np.ndarray, c: int, centre: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(S, C+1) coefficients on the scaled design predicting feature ``c`` in its units.

    ``gram`` spans the rows where ``c`` is observed.  Eigenvalues up to
    ``n_rows * eps`` of the largest count as zero; the solution is then the
    one of least norm in original units, as ``np.linalg.lstsq`` returns it.
    """
    others = np.arange(gram.shape[1]) != c + 1
    lam, vec = np.linalg.eigh(gram[:, others][:, :, others])
    null = lam <= lam[:, -1:] * gram[:, :1, 0] * np.finfo(float).eps
    inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=~null)
    coef = np.einsum("sij,sj->si", vec, inverse * np.einsum("sji,sj->si", vec, gram[:, others, c + 1]))
    coef *= scale[:, c, None]
    coef[:, 0] += centre[:, c]
    bad = np.flatnonzero(null.any(axis=1))
    if bad.size:   # move along the null space to the least norm of the coefficients in original units
        sd = scale[bad][:, others[1:]]
        to_units = np.eye(lam.shape[1]) / np.column_stack([np.ones(bad.size), sd])[:, None, :]
        to_units[:, 0, 1:] = -centre[bad][:, others[1:]] / sd
        basis = vec[bad] * null[bad, None, :]
        shift = np.linalg.pinv(to_units @ basis) @ (to_units @ coef[bad, :, None])
        coef[bad] -= (basis @ shift)[..., 0]
    return np.insert(coef, c + 1, 0.0, axis=1)


# --------------------------------------------------------------------------- standardization


@dataclass
class StandardizationStats:
    """Per-feature mean/std pooled over stations, training rows only."""

    features: tuple[str, ...]       # kept features, original order; includes the target
    mean: np.ndarray
    std: np.ndarray
    dropped: tuple[str, ...]

    def index_of(self, feature: str) -> int:
        try:
            return self.features.index(feature)
        except ValueError:
            raise UsageError(f"feature {feature!r} not in standardized set") from None

    def standardize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def compute_stats(panel: RawPanel, train_rows: tuple[int, int]) -> StandardizationStats:
    """Training-split standardization; constant non-target features are dropped."""
    lo, hi = train_rows
    train = panel.values[lo:hi].reshape(-1, len(panel.features))
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    kept, dropped = [], []
    for k, name in enumerate(panel.features):
        if std[k] > 0:
            kept.append(k)
        elif name == TARGET:
            raise DataError("target pm25 is constant on the training split")
        else:
            dropped.append(name)
            warnings.warn(f"dropping constant feature {name!r} (zero training std)")
    features = tuple(panel.features[k] for k in kept)
    return StandardizationStats(
        features=features,
        mean=mean[kept],
        std=std[kept],
        dropped=tuple(dropped),
    )


# --------------------------------------------------------------------------- prepared data


@dataclass
class WindowSample:
    """One training/evaluation window.

    Node attributes, history targets and edge attributes span the history
    period only; the calendar/location features span history + forecast.
    ``y_future`` may be absent for pure forecasting.
    """

    x: np.ndarray                     # (H, L, node_dim)
    y_hist: np.ndarray                # (H, L)
    spacetime: np.ndarray             # (H+F, 3) int: hour, dow, month
    coords: np.ndarray                # (L, 2) latitude, longitude
    y_future: np.ndarray | None = None        # (F, L)
    edge_feats: np.ndarray | None = None      # (H, E, 5), columns as geo.EDGE_FEATURES
    timestamps_future: np.ndarray | None = None  # (F,) datetime64

    @property
    def history_steps(self) -> int:
        return int(self.x.shape[0])

    @property
    def forecast_steps(self) -> int:
        return int(self.spacetime.shape[0] - self.x.shape[0])

    @property
    def n_stations(self) -> int:
        return int(self.coords.shape[0])

    def validate(self) -> None:
        h, f, n = self.history_steps, self.forecast_steps, self.n_stations
        if h <= 0 or f <= 0:
            raise DataError(f"window needs positive history/forecast lengths, got H={h}, F={f}")
        if self.x.shape[:2] != (h, n) or self.y_hist.shape != (h, n):
            raise DataError("inconsistent history shapes in window")
        if self.y_future is not None and self.y_future.shape != (f, n):
            raise DataError("inconsistent forecast target shape in window")
        if self.spacetime.shape != (h + f, 3):
            raise DataError("spacetime features must cover history + forecast")
        ids, fields = self.spacetime, ("hour (0-23)", "weekday (0-6)", "month (1-12)")
        for bad, kind in ((~np.isfinite(ids) | (ids != np.round(ids)), "an integer"),
                          ((ids < (0, 0, 1)) | (ids > (23, 6, 12)), "a valid")):
            if bad.any():
                step, field = np.argwhere(bad)[0]
                raise DataError(f"calendar id {ids[step, field]} at step {step} is not {kind} {fields[field]}")
        for name, arr in (("x", self.x), ("y_hist", self.y_hist),
                          ("y_future", self.y_future), ("edge_feats", self.edge_feats)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in window field {name}")
        if self.edge_feats is not None and self.edge_feats.shape[0] != h:
            raise DataError("edge attributes must span exactly the history period")


@dataclass
class PreparedData:
    """Model-ready corpus: standardized panels, raw wind, splits and statistics."""

    timestamps: np.ndarray            # (T,) datetime64[m]
    station_ids: list[str]
    coords: np.ndarray                # (L, 2)
    x: np.ndarray                     # (T, L, Cx) standardized non-target features
    y: np.ndarray                     # (T, L) standardized target
    spacetime: np.ndarray             # (T, 3) int64, spacetime_features(timestamps)
    wind: np.ndarray                  # (T, L, 2) imputed u10, v10 in m/s
    edge_mean: np.ndarray             # (5,)
    edge_std: np.ndarray              # (5,)
    stats: StandardizationStats
    splits: dict[str, tuple[int, int]]
    cadence_hours: float
    timezone: str
    threshold_km: float

    @property
    def node_dim(self) -> int:
        return self.x.shape[2]

    def network(self) -> StationNetwork:
        """The station graph, built on first use and shared by every later call."""
        return self._network

    @cached_property
    def _network(self) -> StationNetwork:
        stations = [Station(sid, float(lat), float(lon))
                    for sid, (lat, lon) in zip(self.station_ids, self.coords)]
        return build_network(stations, self.threshold_km)

    def windows(self, split: str, history_steps: int, forecast_steps: int) -> list[WindowSample]:
        """Sliding windows inside one split; never crosses a split boundary.

        Each window's ``edge_feats`` is a view of the split's attributes.
        """
        if split not in self.splits:
            raise UsageError(f"unknown split {split!r}")
        if history_steps < 1 or forecast_steps < 1:
            raise UsageError("history and forecast lengths must be positive")
        lo, hi = self.splits[split]
        edge_feats = edge_attributes_at(self.network(), self.wind[lo:hi])
        edge_feats -= self.edge_mean
        edge_feats /= self.edge_std
        total = history_steps + forecast_steps
        out = []
        for start in range(lo, hi - total + 1):
            mid = start + history_steps
            end = start + total
            out.append(WindowSample(
                x=self.x[start:mid],
                y_hist=self.y[start:mid],
                y_future=self.y[mid:end],
                spacetime=self.spacetime[start:end],
                coords=self.coords,
                edge_feats=edge_feats[start - lo:mid - lo],
                timestamps_future=self.timestamps[mid:end],
            ))
        return out

    def destandardize_target(self, values: np.ndarray) -> np.ndarray:
        k = self.stats.index_of(TARGET)
        return values * self.stats.std[k] + self.stats.mean[k]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        arrays = {
            "timestamps": self.timestamps.astype("datetime64[m]").astype(np.int64),
            "coords": self.coords,
            "x": self.x,
            "y": self.y,
            "wind": self.wind,
            "edge_mean": self.edge_mean,
            "edge_std": self.edge_std,
            "node_mean": self.stats.mean,
            "node_std": self.stats.std,
            "split_bounds": np.array([self.splits[name] for name in SPLIT_NAMES], dtype=np.int64),
        }
        meta = {
            "kind": "hazecast-cache",
            "cache_version": CACHE_VERSION,
            "station_ids": self.station_ids,
            "features_kept": list(self.stats.features),
            "features_dropped": list(self.stats.dropped),
            "cadence_hours": self.cadence_hours,
            "timezone": self.timezone,
            "threshold_km": self.threshold_km,
        }
        save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "PreparedData":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "hazecast-cache":
            raise DataError(f"{path}: not a prepared-data cache")
        if meta.get("cache_version") != CACHE_VERSION:
            raise DataError(f"{path}: unsupported cache version {meta.get('cache_version')}")
        stats = StandardizationStats(
            features=tuple(meta["features_kept"]),
            mean=arrays["node_mean"],
            std=arrays["node_std"],
            dropped=tuple(meta["features_dropped"]),
        )
        splits = {name: (int(lo), int(hi))
                  for name, (lo, hi) in zip(SPLIT_NAMES, arrays["split_bounds"])}
        timestamps = arrays["timestamps"].astype("datetime64[m]")
        return cls(
            timestamps=timestamps,
            station_ids=list(meta["station_ids"]),
            coords=arrays["coords"],
            x=arrays["x"],
            y=arrays["y"],
            spacetime=spacetime_features(timestamps),
            wind=arrays["wind"],
            edge_mean=arrays["edge_mean"],
            edge_std=arrays["edge_std"],
            stats=stats,
            splits=splits,
            cadence_hours=float(meta["cadence_hours"]),
            timezone=meta["timezone"],
            threshold_km=float(meta["threshold_km"]),
        )


def prepare_corpus(manifest: Manifest, threshold_km: float) -> tuple[PreparedData, dict]:
    """Run the full preparation pipeline; returns the cache and a data report."""
    panel, stations = load_corpus(manifest)
    report = {
        "stations": panel.n_stations,
        "rows": panel.n_steps,
        "missing_pct": 100.0 * panel.missing_fraction(),
        "missing_pct_by_feature": {
            name: 100.0 * float(np.isnan(panel.values[:, :, k]).mean())
            for k, name in enumerate(panel.features)
        },
    }

    complete = impute_chained(panel)
    splits = split_temporal(complete.timestamps, manifest.splits)
    for name in SPLIT_NAMES:
        lo, hi = splits[name]
        report[f"rows_{name}"] = hi - lo

    network = build_network(stations, threshold_km)
    report["edges"] = network.n_edges

    stats = compute_stats(complete, splits["train"])
    kept_idx = [complete.features.index(f) for f in stats.features]
    std_values = stats.standardize(complete.values[:, :, kept_idx])
    target_pos = stats.index_of(TARGET)
    x_pos = [k for k in range(len(stats.features)) if k != target_pos]

    wind = complete.values[:, :, [complete.features.index("u10"), complete.features.index("v10")]]
    lo, hi = splits["train"]
    edge_mean, edge_std = edge_attribute_stats(network, wind[lo:hi])

    prepared = PreparedData(
        timestamps=complete.timestamps,
        station_ids=complete.station_ids,
        coords=network.coordinates(),
        x=std_values[:, :, x_pos],
        y=std_values[:, :, target_pos],
        spacetime=spacetime_features(complete.timestamps),
        wind=wind,
        edge_mean=edge_mean,
        edge_std=edge_std,
        stats=stats,
        splits=splits,
        cadence_hours=complete.cadence_hours,
        timezone=manifest.timezone,
        threshold_km=threshold_km,
    )
    report["dropped_features"] = list(stats.dropped)
    return prepared, report
