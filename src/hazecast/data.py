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
import math
import warnings
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .autodiff import single_threaded_blas
from .container import load_arrays, save_arrays
from .errors import DataError, UsageError
from .geo import (
    EDGE_FEATURES,
    Station,
    StationNetwork,
    build_network,
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


def _parse_timestamp(text: str, context: str) -> np.datetime64:
    try:
        return np.datetime64(text.strip(), "m")
    except ValueError:
        raise DataError(f"{context}: unparseable timestamp {text!r}") from None


def _load_series(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, values) of one station; an empty cell becomes NaN."""
    timestamps, rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
            timestamps.append(_parse_timestamp(row[0], f"{path}:{lineno}"))
            vals = []
            for name, cell in zip(FEATURES, row[1:]):
                cell = cell.strip()
                if cell == "":
                    vals.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {cell!r} for {name}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: non-finite value {cell!r} for {name} "
                                    "(leave a missing cell empty)")
                vals.append(value)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(timestamps, dtype="datetime64[m]"), np.array(rows, dtype=float)


def load_corpus(manifest: Manifest, stations: list[Station] | None = None) -> tuple[RawPanel, list[Station]]:
    """Load every station series named by the manifest into one panel."""
    if stations is None:
        stations = read_stations_csv(manifest.stations_path)
    ref_ts = None
    values = []
    for st in stations:
        path = manifest.series_dir / f"{st.id}.csv"
        if not path.exists():
            raise DataError(f"missing series file for station {st.id!r}: {path}")
        ts, vals = _load_series(path)
        if ref_ts is None:
            ref_ts = ts
        elif ts.shape != ref_ts.shape or np.any(ts != ref_ts):
            raise DataError(f"{path}: timestamps differ from station {stations[0].id!r}")
        values.append(vals)
    panel = RawPanel(
        timestamps=ref_ts,
        values=np.stack(values, axis=1),
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
    """Fill gaps by iterated per-feature linear regression on the other features.

    Missing cells start at their feature's observed mean; each sweep then
    refits every feature (in column order) against the current values of the
    others by least squares and re-predicts only the missing cells.  The
    procedure is deterministic and leaves observed cells untouched, so a
    complete panel comes back unchanged.  The fits run numpy's BLAS on one
    thread, for the reason :func:`~hazecast.autodiff.single_threaded_blas` gives.
    """
    if iterations < 1:
        raise UsageError("imputation needs at least one iteration")
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
    out = RawPanel(
        timestamps=panel.timestamps,
        values=values,
        station_ids=panel.station_ids,
        features=panel.features,
        cadence_hours=panel.cadence_hours,
    )
    out.validate()
    return out


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

    def destandardize(self, values: np.ndarray, feature: str) -> np.ndarray:
        k = self.index_of(feature)
        return values * self.std[k] + self.mean[k]


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
            raise ValueError(f"window needs positive history/forecast lengths, got H={h}, F={f}")
        if self.x.shape[:2] != (h, n) or self.y_hist.shape != (h, n):
            raise ValueError("inconsistent history shapes in window")
        if self.y_future is not None and self.y_future.shape != (f, n):
            raise ValueError("inconsistent forecast target shape in window")
        if self.spacetime.shape != (h + f, 3):
            raise ValueError("spacetime features must cover history + forecast")
        for name, arr in (("x", self.x), ("y_hist", self.y_hist),
                          ("y_future", self.y_future), ("edge_feats", self.edge_feats)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in window field {name}")
        if self.edge_feats is not None and self.edge_feats.shape[0] != h:
            raise ValueError("edge attributes must span exactly the history period")


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
        stations = [Station(sid, float(lat), float(lon))
                    for sid, (lat, lon) in zip(self.station_ids, self.coords)]
        return build_network(stations, self.threshold_km)

    def windows(self, split: str, history_steps: int, forecast_steps: int,
                stride: int = 1) -> list[WindowSample]:
        """Sliding windows inside one split; never crosses a split boundary.

        Each window's ``edge_feats`` is a view of the split's attributes.
        """
        if split not in self.splits:
            raise UsageError(f"unknown split {split!r}")
        if history_steps < 1 or forecast_steps < 1 or stride < 1:
            raise UsageError("history, forecast and stride must be positive")
        lo, hi = self.splits[split]
        edge_feats = edge_attributes_at(self.network(), self.wind[lo:hi])
        edge_feats -= self.edge_mean
        edge_feats /= self.edge_std
        total = history_steps + forecast_steps
        out = []
        for start in range(lo, hi - total + 1, stride):
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
        return self.stats.destandardize(values, TARGET)

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


def prepare_corpus(manifest: Manifest, threshold_km: float,
                   mice_iterations: int = 5) -> tuple[PreparedData, dict]:
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

    complete = impute_chained(panel, iterations=mice_iterations)
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
    edge_train = edge_attributes_at(network, wind[lo:hi]).reshape(-1, len(EDGE_FEATURES))
    if edge_train.shape[0]:
        edge_mean = edge_train.mean(axis=0)
        edge_std = edge_train.std(axis=0)
    else:
        edge_mean = np.zeros(len(EDGE_FEATURES))
        edge_std = np.ones(len(EDGE_FEATURES))
    edge_std = np.where(edge_std > 0, edge_std, 1.0)  # constant edge feature: pass through centered

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
