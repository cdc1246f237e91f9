"""Forecast quality metrics and their multi-seed aggregation.

Squared-error loss is computed on standardized values; RMSE/MAE and the
event metrics expect physical concentrations.  The event metrics binarize
both series at the haze threshold (inclusive) and count hits (truth and
prediction above), misses (truth above only) and false alarms (prediction
above only):

    CSI = hits / (hits + misses + false alarms)
    POD = hits / (hits + misses)
    FAR = false alarms / (hits + false alarms)

all reported in percent.  A metric whose denominator is empty is undefined
for that series and is excluded from averages, as is Spearman on a constant
series.  Aggregation averages each metric over locations per seed, then
reports mean and population standard deviation across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("loss", "rmse", "mae", "spearman", "csi", "pod", "far")


def _as_pair(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: predictions {pred.shape} vs truth {truth.shape}")
    return pred, truth


def mse_loss(pred, truth) -> float:
    """Mean squared error over all entries (location mean of per-step means)."""
    pred, truth = _as_pair(pred, truth)
    return float(np.add.reduce((pred - truth) ** 2, axis=None) / pred.size)


def rmse(pred, truth) -> float:
    return math.sqrt(mse_loss(pred, truth))


def mae(pred, truth) -> float:
    pred, truth = _as_pair(pred, truth)
    return float(np.add.reduce(np.abs(pred - truth), axis=None) / pred.size)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions.

    Equal values (``0.0`` and ``-0.0`` among them) tie; each NaN ranks alone,
    after every number, in the order of ``np.argsort``'s default sort.
    """
    order = np.argsort(x)
    ordered = x[order]
    start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(start, x.size))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(start + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


def spearman(pred, truth) -> float | None:
    """Rank both series (average ranks for ties), then correlate the ranks.

    Returns ``None`` when undefined: series shorter than 2, or either series
    constant.
    """
    pred, truth = _as_pair(pred, truth)
    if pred.size < 2:
        return None
    if np.all(pred == pred[0]) or np.all(truth == truth[0]):
        return None
    rp = _average_ranks(pred)
    rt = _average_ranks(truth)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    return float((rp @ rt) / np.sqrt((rp @ rp) * (rt @ rt)))


def threshold_metrics(pred, truth, haze: float):
    """(CSI, POD, FAR) in percent at the given haze threshold; None when undefined."""
    pred, truth = _as_pair(pred, truth)
    p = pred >= haze
    t = truth >= haze
    hits = int(np.count_nonzero(p & t))
    misses = int(np.count_nonzero(~p & t))
    false_alarms = int(np.count_nonzero(p & ~t))
    csi = 100.0 * hits / (hits + misses + false_alarms) if hits + misses + false_alarms else None
    pod = 100.0 * hits / (hits + misses) if hits + misses else None
    far = 100.0 * false_alarms / (hits + false_alarms) if hits + false_alarms else None
    return csi, pod, far


def _mean_skipping_none(values) -> float | None:
    kept = [v for v in values if v is not None]
    return float(np.mean(kept)) if kept else None


@dataclass
class MetricsReport:
    """Per-location, per-seed and aggregate metric values for one model run."""

    seeds: list[int]
    station_ids: list[str]
    per_location: list[dict[str, list]]     # one dict per seed: metric -> per-location values
    per_seed: list[dict[str, float | None]] # location means per seed
    mean: dict[str, float | None]
    std: dict[str, float | None]

    def to_text(self, title: str = "metrics") -> str:
        lines = [title, "=" * len(title), ""]
        header = f"{'metric':<10} {'mean':>12} {'std':>12}  " + "  ".join(
            f"seed {s:>4}" for s in self.seeds)
        lines.append(header)
        lines.append("-" * len(header))
        for name in METRIC_NAMES:
            mean = _fmt(self.mean.get(name))
            std = _fmt(self.std.get(name))
            per_seed = "  ".join(f"{_fmt(d.get(name)):>9}" for d in self.per_seed)
            lines.append(f"{name:<10} {mean:>12} {std:>12}  {per_seed}")
        lines.append("")
        return "\n".join(lines)

    def to_keyvalue_lines(self) -> list[str]:
        lines = ["report_version = 1",
                 "seeds = " + ",".join(str(s) for s in self.seeds)]
        for name in METRIC_NAMES:
            lines.append(f"metric.{name}.mean = {_fmt(self.mean.get(name))}")
            lines.append(f"metric.{name}.std = {_fmt(self.std.get(name))}")
        for seed, values in zip(self.seeds, self.per_seed):
            for name in METRIC_NAMES:
                lines.append(f"seed.{seed}.{name} = {_fmt(values.get(name))}")
        return lines

    def location_csv_lines(self) -> list[str]:
        lines = ["seed,station_id," + ",".join(METRIC_NAMES)]
        for seed, values in zip(self.seeds, self.per_location):
            for k, sid in enumerate(self.station_ids):
                cells = [_fmt(values[name][k]) for name in METRIC_NAMES]
                lines.append(f"{seed},{sid}," + ",".join(cells))
        return lines


def _fmt(value) -> str:
    return "" if value is None else f"{value:.10g}"


def aggregate(seeds, station_ids, per_location: list[dict[str, list]]) -> MetricsReport:
    """Two-stage aggregation: location mean per seed, then mean +/- std across seeds.

    ``per_location`` holds one dict per seed mapping each metric name to its
    per-location values (``None`` marks an undefined value, which is skipped).
    The cross-seed standard deviation is the population one, so a single seed
    reports std 0.
    """
    if not per_location:
        raise ValueError("aggregate needs at least one seed")
    if len(seeds) != len(per_location):
        raise ValueError("one per-location dict per seed required")
    per_seed = []
    for values in per_location:
        per_seed.append({name: _mean_skipping_none(values.get(name, [])) for name in METRIC_NAMES})
    mean, std = {}, {}
    for name in METRIC_NAMES:
        seed_values = [d[name] for d in per_seed if d[name] is not None]
        if seed_values:
            mean[name] = float(np.mean(seed_values))
            std[name] = float(np.std(seed_values))
        else:
            mean[name] = None
            std[name] = None
    return MetricsReport(seeds=list(seeds), station_ids=list(station_ids),
                         per_location=per_location, per_seed=per_seed, mean=mean, std=std)
