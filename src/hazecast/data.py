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
from .errors import DataError, UsageError, check_size
from .geo import (
    EDGE_FEATURES,
    Station,
    StationNetwork,
    build_network,
    edge_attribute_stats,
    edge_attributes_at,
    read_stations_csv,
)
from .kvfile import csv_rows, read_keyvalue, read_text

FEATURES = ("rh", "temp", "pm25", "pbl", "u10", "v10", "kindex", "sp", "tp")
TARGET = "pm25"
SERIES_HEADER = ("timestamp",) + FEATURES
SERIES_ROW = np.dtype([("timestamp", "datetime64[m]"), ("values", float, (len(FEATURES),))])
PLAIN_BYTES = b"0123456789eE+-.,:T \r\n"   # every byte of a series file's body that loadtxt may read
CACHE_VERSION = 2
MANIFEST_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")
#: The cache's float64 arrays, in file order (between ``timestamps`` and ``split_bounds``),
#: and its metadata fields; each is stored and restored under its ``PreparedData`` name.
CACHE_FLOATS = ("coords", "x", "y", "wind", "edge_mean", "edge_std", "node_mean", "node_std")
CACHE_META = ("station_ids", "features_kept", "features_dropped", "cadence_hours", "timezone", "threshold_km")
IMPUTATION_SWEEPS = 5


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
    if not 0.0 < cadence < math.inf:   # refuses NaN too
        raise DataError(f"{path}: cadence_hours must be positive and finite")
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
    colons, ``T``, spaces and commas) goes to one ``np.loadtxt`` call that
    parses the timestamps and the values, its empty cells set to ``nan``.
    Any other file, or one loadtxt or the check after it reject, goes to the
    row parser, which reports faults with ``file:line``.
    """
    text = read_text(path)
    header, _, body = text.partition("\n")
    cells = re.sub(r", *(?=[,\r\n]|\Z)", ",nan", body)
    if re.search(r" (?:[,\r\n]|\Z)", cells):   # loadtxt takes "00:00 ," for a zoned time, "  " for a row
        cells = re.sub(r" +(?=[,\r\n]|\Z)", "", cells)
    if ([h.strip(" ") for h in header.removesuffix("\r").split(",")] == list(SERIES_HEADER)
            and not body.encode().translate(None, PLAIN_BYTES) and cells.strip("\r\n")):
        try:   # a row with other than one field per header column raises; an empty line is skipped
            rows = np.loadtxt(cells.splitlines(), delimiter=",", dtype=SERIES_ROW, ndmin=1)
            if not np.isinf(rows["values"]).any():
                return rows["timestamp"].copy(), rows["values"]   # a view would keep all of rows alive
        except ValueError:
            pass
    return _parse_rows(path, text)


def _parse_rows(path: Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parse of a series file's ``text``; raises ``DataError`` at the first fault."""
    timestamps, rows = [], []
    for lineno, (stamp, *cells) in csv_rows(path, text, SERIES_HEADER):
        try:
            timestamps.append(np.datetime64(stamp, "m"))
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable timestamp {stamp!r}") from None
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
def impute_chained(panel: RawPanel) -> RawPanel:
    """Fill gaps by chained-equations regression (MICE; van Buuren and Groothuis-Oudshoorn 2011).

    Missing cells start at their feature's observed mean; each of the
    ``IMPUTATION_SWEEPS`` sweeps refits every feature, in column order, on the
    current values of the others by least squares and re-predicts its missing
    cells (a feature with constant observed values gets that constant).
    Observed cells and stations without gaps are untouched.  All stations are
    fitted at once: each keeps the Gram matrix of ``[1, features]``, features
    centred and scaled by their observed mean and std; feature c's normal
    equations are that Gram less the rows missing in c, and re-predicting c
    changes only its row and column.  The missing rows are gathered per group
    of stations: for feature c, the stations whose gap count in c rounds up to
    the same power of two form a group, and each group's gather is padded to
    that width with a zero row, so no station carries more than twice its own
    gaps.  One batched solve per (feature, sweep) then serves every station:
    a Cholesky factorization of all stations at once, whose bound certifies a
    station's Gram as full rank, and an eigendecomposition that gives the
    least-norm fill of every station it does not certify.  Fills agree with a
    per-station ``lstsq`` loop to 1e-8 of each feature's std (about 1e-11 on
    the benchmark corpora); as both paths solve normal equations, the error
    grows with the square of a design's condition number.  BLAS runs on one
    thread.  ``panel`` is only read: at the peak it is alive beside the (S, T+1,
    C+1) design of the S gappy stations, its (S, T, C) masks and one feature's
    gathers, and the output's copy of the panel is made after they are freed.
    """
    values = panel.values
    gappy = np.flatnonzero(np.isnan(values).any(axis=(0, 2)))
    n_st, n_steps, n_feat = len(gappy), values.shape[0], values.shape[2]
    design = np.zeros((n_st, n_steps + 1, n_feat + 1))   # the last row stays zero and pads gathers
    design[:, :n_steps, 0] = 1.0
    z = design[:, :n_steps, 1:]
    for s, station in enumerate(gappy):   # one station at a time, so no (T, S, C) temporary
        z[s] = values[:, station]
    observed = ~np.isnan(z)
    n_obs = observed.sum(axis=1)
    if np.any(n_obs < 2):
        st, c = np.argwhere(n_obs < 2)[0]
        raise DataError(f"station {panel.station_ids[gappy[st]]!r}, feature {panel.features[c]!r}: "
                        f"only {n_obs[st, c]} observed values; cannot impute")
    low = np.fmin.reduce(z, axis=1)   # fmin and fmax skip the NaN of a missing cell
    constant = low == np.fmax.reduce(z, axis=1)
    z[~observed] = 0.0
    centre = z.sum(axis=1) / n_obs
    np.subtract(z, centre[:, None], out=z, where=observed)
    scale = np.where(constant, 1.0, np.sqrt(np.einsum("stc,stc->sc", z, z) / n_obs))
    z /= scale[:, None]
    groups = [_gap_groups(observed, c, gappy, panel.n_stations) for c in range(n_feat)]
    design_rows, design_cells = design.reshape(-1, n_feat + 1), design.ravel()
    gram = design.transpose(0, 2, 1) @ design
    fills = []   # (flat panel cells, values) of the last sweep, the only fills the panel keeps
    for sweep in range(IMPUTATION_SWEEPS):
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
                design_cells[in_design] = (rows[..., c + 1] + change)[real]
                if sweep == IMPUTATION_SWEEPS - 1:
                    fills.append((in_panel, pred[real]))
    del design, z, design_rows, design_cells, observed   # so the output copy does not add to the peak
    values = panel.values.copy()
    for in_panel, fill in fills:
        np.put(values, in_panel, fill)
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

    ``gram`` spans the rows where ``c`` is observed.  A station whose Gram
    ``A`` of the other columns :func:`_cholesky_inverse` certifies as full rank
    is solved as ``L^-T L^-1 b``; every other station goes, batched, to
    :func:`_eigh_least_norm_coef`.  Both paths solve the normal equations.
    """
    others = np.arange(gram.shape[1]) != c + 1
    inverse, certified = _cholesky_inverse(gram[:, others][:, :, others], gram[:, 0, 0])
    rhs = gram[:, others, c + 1].T
    half = sum(inverse[:, k] * rhs[k] for k in range(len(rhs)))   # L^-1 b, summed in a fixed order
    coef = sum(inverse[k] * half[k] for k in range(len(rhs))).T
    coef *= scale[:, c, None]
    coef[:, 0] += centre[:, c]
    coef = np.insert(coef, c + 1, 0.0, axis=1)
    rest = np.flatnonzero(~certified)
    if rest.size:
        coef[rest] = _eigh_least_norm_coef(gram[rest], c, centre[rest], scale[rest])
    return coef


def _cholesky_inverse(a: np.ndarray, n_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(L^-1, certified)`` of the (S, n, n) Grams ``a = L L^T``; ``L^-1`` is (n, n, S), stations last.

    ``L`` is built column by column over all stations at once, so a station
    that is not positive definite fails alone.  A station is certified when
    ``1 / |L^-1|_F^2``, a lower bound on its least eigenvalue, exceeds
    ``n_rows * eps * trace(a)``, an upper bound on the null threshold of
    :func:`_eigh_least_norm_coef`.  No pivot is below that lower bound, so a
    station fails at its first pivot under the threshold, which is then
    replaced by 1 to keep its arithmetic finite.  Products are summed in
    index order, so a station's bits do not depend on the other stations.
    """
    n_st, n, _ = a.shape
    threshold = n_rows * np.finfo(float).eps * np.einsum("sii->s", a)
    lower, inverse = np.zeros((n, n, n_st)), np.zeros((n, n, n_st))
    certified = np.ones(n_st, dtype=bool)
    for j in range(n):
        column = a[:, j:, j].T.copy()
        for k in range(j):
            column -= lower[j:, k] * lower[j, k]
        certified &= column[0] > threshold
        lower[j, j] = np.sqrt(np.where(certified, column[0], 1.0))
        lower[j + 1:, j] = column[1:] / lower[j, j]
    for i in range(n):
        inverse[i, i] = 1.0 / lower[i, i]
        for k in range(i):
            inverse[i, :i] -= lower[i, k] * inverse[k, :i]
        inverse[i, :i] *= inverse[i, i]
    certified &= (inverse * inverse).sum(axis=(0, 1)) * threshold < 1.0
    return inverse, certified


def _eigh_least_norm_coef(gram: np.ndarray, c: int, centre: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """:func:`_least_norm_coef` by eigendecomposition, for Grams that may be singular.

    Eigenvalues up to ``n_rows * eps`` of the largest count as zero; the
    solution is then the one of least norm in original units, as
    ``np.linalg.lstsq`` returns it.
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


def compute_stats(panel: RawPanel, train_rows: tuple[int, int]) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """Training-split standardization, pooled over stations: ``(features_kept, node_mean,
    node_std, features_dropped)``.  Constant non-target features are dropped; the
    kept ones, target included, stay in their original order."""
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
    return [panel.features[k] for k in kept], mean[kept], std[kept], dropped


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
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise DataError(f"coords must be (L, 2) latitude, longitude, got shape {self.coords.shape}")
        if not np.all(np.abs(self.coords) <= (90.0, 180.0)):  # NaN compares false
            raise DataError("coords must be finite, latitude in [-90, 90] and longitude in [-180, 180]")
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
    features_kept: list[str]          # x's columns and the target, in original order
    node_mean: np.ndarray             # (len(features_kept),), training rows only
    node_std: np.ndarray              # (len(features_kept),)
    features_dropped: list[str]       # constant on the training rows
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
        check_size("history_steps", history_steps)
        check_size("forecast_steps", forecast_steps)
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
            ))
        return out

    def destandardize_target(self, values: np.ndarray) -> np.ndarray:
        k = self.features_kept.index(TARGET)
        return values * self.node_std[k] + self.node_mean[k]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        arrays = {"timestamps": self.timestamps.astype("datetime64[m]").astype(np.int64),
                  **{name: getattr(self, name) for name in CACHE_FLOATS},
                  "split_bounds": np.array([self.splits[name] for name in SPLIT_NAMES], dtype=np.int64)}
        meta = {name: getattr(self, name) for name in CACHE_META}
        save_arrays(path, arrays, {"kind": "hazecast-cache", "cache_version": CACHE_VERSION, **meta})

    @classmethod
    def load(cls, path) -> "PreparedData":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "hazecast-cache":
            raise DataError(f"{path}: not a prepared-data cache")
        if meta.get("cache_version") != CACHE_VERSION:
            raise DataError(f"{path}: unsupported cache version {meta.get('cache_version')}")
        try:   # the fields are read here and the check reads the rest, so no later line raises KeyError
            fields = {name: arrays[name] for name in CACHE_FLOATS} | {key: meta[key] for key in CACHE_META}
            fault = _cache_fault(arrays, meta)
        except KeyError as exc:
            raise DataError(f"{path}: cache lacks the metadata key or array {exc}") from None
        if fault:
            raise DataError(f"{path}: {fault}")
        timestamps = arrays["timestamps"].astype("datetime64[m]")
        splits = {name: (int(lo), int(hi)) for name, (lo, hi) in zip(SPLIT_NAMES, arrays["split_bounds"])}
        return cls(timestamps=timestamps, spacetime=spacetime_features(timestamps), splits=splits, **fields)


def _cache_fault(arrays: dict, meta: dict) -> str | None:
    """What makes a cache's arrays and metadata disagree, or differ from what ``save`` writes, or None.

    Only types, shapes and the small arrays are read; the panels' values are
    left to :meth:`WindowSample.validate`, once per window.  None comes only
    after every stored name was read; a missing one raises ``KeyError``.
    """
    for key in ("station_ids", "features_kept", "features_dropped"):
        if not (isinstance(meta[key], list) and all(isinstance(name, str) for name in meta[key])):
            return f"{key} must be a list of strings"
    ids = meta["station_ids"]
    if len(set(ids)) != len(ids):
        return f"duplicate station ids: {sorted({sid for sid in ids if ids.count(sid) > 1})}"
    if not isinstance(meta["timezone"], str):
        return f"timezone must be a string, got {meta['timezone']!r}"
    for key in ("cadence_hours", "threshold_km"):
        if not (type(meta[key]) in (int, float) and 0.0 < meta[key] < math.inf):
            return f"{key} must be positive and finite, got {meta[key]!r}"
    t, n, c = arrays["timestamps"].size, len(meta["station_ids"]), len(meta["features_kept"])
    shapes = {"timestamps": (t,), "coords": (n, 2), "x": (t, n, c - 1), "y": (t, n), "wind": (t, n, 2),
              "node_mean": (c,), "node_std": (c,), "edge_mean": (len(EDGE_FEATURES),),
              "edge_std": (len(EDGE_FEATURES),), "split_bounds": (len(SPLIT_NAMES), 2)}
    for name, shape in shapes.items():
        dtype = np.dtype(np.float64 if name in CACHE_FLOATS else np.int64)
        if arrays[name].shape != shape:
            return f"array {name!r} has shape {arrays[name].shape}, expected {shape}"
        if arrays[name].dtype != dtype:
            return f"array {name!r} has dtype {arrays[name].dtype}, expected {dtype}"
    if TARGET not in meta["features_kept"]:
        return f"features_kept lacks the target {TARGET!r}"
    starts, stops = arrays["split_bounds"].T.tolist()
    if not (starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == t
            and all(lo < hi for lo, hi in zip(starts, stops))):
        return f"split bounds {arrays['split_bounds'].tolist()} do not tile the {t} rows in order"
    if np.any(np.diff(arrays["timestamps"]) <= 0):
        return "timestamps are not strictly increasing"
    means, stds = (np.concatenate([arrays[f"node_{k}"], arrays[f"edge_{k}"]]) for k in ("mean", "std"))
    if not (np.isfinite(means).all() and np.all((0.0 < stds) & (stds < np.inf))):
        return "standardization statistics must be finite, with every std positive"
    return None


def prepare_corpus(manifest: Manifest, threshold_km: float) -> tuple[PreparedData, dict]:
    """Run the full preparation pipeline; returns the cache and a data report.

    The cache's arrays are C-ordered and own their data, as a loaded cache's do.
    """
    panel, stations = load_corpus(manifest)
    missing = np.isnan(panel.values)
    report = {
        "stations": panel.n_stations,
        "rows": panel.n_steps,
        "missing_pct": 100.0 * float(missing.mean()),
        "missing_pct_by_feature": dict(zip(panel.features, (100.0 * missing.mean(axis=(0, 1))).tolist())),
    }
    del missing   # a (T, L, C) mask, freed before imputation, whose design sets the memory peak

    complete = impute_chained(panel)
    del panel   # from here on the imputed panel is the only one
    splits = split_temporal(complete.timestamps, manifest.splits)
    for name in SPLIT_NAMES:
        lo, hi = splits[name]
        report[f"rows_{name}"] = hi - lo

    network = build_network(stations, threshold_km)
    report["edges"] = network.n_edges
    wind = np.take(complete.values, [complete.features.index("u10"), complete.features.index("v10")], axis=2)
    edge_mean, edge_std = edge_attribute_stats(network, wind[slice(*splits["train"])])   # before x, y: (T, E) temporaries

    kept, node_mean, node_std, dropped = compute_stats(complete, splits["train"])
    target_pos = kept.index(TARGET)
    x_pos = [k for k in range(len(kept)) if k != target_pos]
    x = np.take(complete.values, [complete.features.index(f) for f in kept if f != TARGET], axis=2)
    y = np.take(complete.values, complete.features.index(TARGET), axis=2)
    for block, pos in ((x, x_pos), (y, target_pos)):   # standardized in place, no temporaries
        block -= node_mean[pos]
        block /= node_std[pos]

    prepared = PreparedData(
        timestamps=complete.timestamps,
        station_ids=complete.station_ids,
        coords=network.coordinates(),
        x=x,
        y=y,
        spacetime=spacetime_features(complete.timestamps),
        wind=wind,
        edge_mean=edge_mean,
        edge_std=edge_std,
        features_kept=kept,
        node_mean=node_mean,
        node_std=node_std,
        features_dropped=dropped,
        splits=splits,
        cadence_hours=complete.cadence_hours,
        timezone=manifest.timezone,
        threshold_km=threshold_km,
    )
    report["dropped_features"] = list(dropped)
    return prepared, report
