import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hazecast.metrics import (
    METRIC_NAMES,
    _average_ranks,
    aggregate,
    mae,
    mse_loss,
    rmse,
    spearman,
    threshold_metrics,
)


class TestMseLoss:
    def test_zero_on_equal(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert mse_loss(x, x) == 0.0

    def test_single_residual(self):
        assert mse_loss(np.array([[3.0]]), np.array([[0.0]])) == 9.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(4, 5))
        truth = rng.normal(size=(4, 5))
        total = 0.0
        for l in range(5):
            acc = 0.0
            for t in range(4):
                acc += (pred[t, l] - truth[t, l]) ** 2
            total += acc / 4
        assert mse_loss(pred, truth) == pytest.approx(total / 5, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestErrorMagnitudes:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_rmse_at_least_mae(self, n, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=n)
        truth = rng.normal(size=n)
        assert rmse(pred, truth) >= mae(pred, truth) - 1e-12


class TestSpearman:
    @pytest.mark.parametrize("x", [
        np.random.default_rng(6).integers(0, 4, size=500).astype(float),
        np.repeat([2.5, -1.0, 7.0, 2.5], [1, 40, 3, 9]),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
        np.full(17, 3.0),
        np.array([4.0]),
    ], ids=["few-values", "long-runs", "signed-zeros", "constant", "single"])
    def test_average_ranks_bitwise_equal_scipy(self, x):
        got = _average_ranks(x)
        want = scipy.stats.rankdata(x, method="average")
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_identical_series(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(x, x) == pytest.approx(1.0)

    def test_reversed_ordering(self):
        truth = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(-truth, truth) == pytest.approx(-1.0)

    def test_constant_series_undefined(self):
        assert spearman(np.ones(5), np.arange(5.0)) is None
        assert spearman(np.arange(5.0), np.ones(5)) is None
        assert spearman(np.array([1.0]), np.array([2.0])) is None

    def test_matches_brute_force_rank_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(3, 30)
            pred = rng.integers(0, 6, size=n).astype(float)   # plenty of ties
            truth = rng.integers(0, 6, size=n).astype(float)
            if np.all(pred == pred[0]) or np.all(truth == truth[0]):
                continue

            def brute_ranks(x):
                return np.array([
                    1.0 + np.sum(x < v) + 0.5 * (np.sum(x == v) - 1) for v in x
                ])

            rp, rt = brute_ranks(pred), brute_ranks(truth)
            expected = np.corrcoef(rp, rt)[0, 1]
            assert spearman(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            pred = rng.normal(size=n)
            truth = rng.normal(size=n)
            expected = scipy.stats.spearmanr(pred, truth).statistic
            assert spearman(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=20)
        truth = rng.normal(size=20)
        base = spearman(pred, truth)
        assert spearman(np.exp(pred), truth) == base
        assert spearman(pred, 3.0 * truth + 7.0) == base

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = spearman(rng.normal(size=10), rng.normal(size=10))
            assert -1.0 <= rho <= 1.0


class TestThresholdMetrics:
    def test_all_correct_events(self):
        truth = np.array([150.0, 120.0, 101.0])
        csi, pod, far = threshold_metrics(truth, truth, haze=100.0)
        assert (csi, pod, far) == (100.0, 100.0, 0.0)

    def test_formula_spot_check(self):
        # hits=3, misses=1, false alarms=1
        truth = np.array([150.0, 150.0, 150.0, 150.0, 50.0])
        pred = np.array([150.0, 150.0, 150.0, 50.0, 150.0])
        csi, pod, far = threshold_metrics(pred, truth, haze=100.0)
        assert csi == pytest.approx(60.0)
        assert pod == pytest.approx(75.0)
        assert far == pytest.approx(25.0)

    def test_threshold_inclusive(self):
        csi, pod, far = threshold_metrics(np.array([100.0]), np.array([100.0]), haze=100.0)
        assert csi == 100.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            pred = rng.uniform(0, 200, size=n)
            truth = rng.uniform(0, 200, size=n)
            haze = 100.0
            hits = misses = fa = 0
            for p, t in zip(pred, truth):
                if t >= haze and p >= haze:
                    hits += 1
                elif t >= haze:
                    misses += 1
                elif p >= haze:
                    fa += 1
            csi, pod, far = threshold_metrics(pred, truth, haze)
            assert csi == (100.0 * hits / (hits + misses + fa) if hits + misses + fa else None)
            assert pod == (100.0 * hits / (hits + misses) if hits + misses else None)
            assert far == (100.0 * fa / (hits + fa) if hits + fa else None)

    def test_undefined_denominators_reported_missing(self):
        below = np.array([10.0, 20.0])
        assert threshold_metrics(below, below, haze=100.0) == (None, None, None)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0, 200, size=40)
        truth = rng.uniform(0, 200, size=40)
        base = threshold_metrics(pred, truth, haze=100.0)
        scaled = threshold_metrics(0.75 * pred, 0.75 * truth, haze=75.0)
        assert base == scaled

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            threshold_metrics(np.zeros(3), np.zeros(4), haze=1.0)


class TestAggregate:
    def test_single_seed_std_zero(self):
        report = aggregate([7], ["a", "b"], [
            {name: [1.0, 3.0] for name in METRIC_NAMES},
        ])
        assert report.mean["rmse"] == pytest.approx(2.0)
        assert report.std["rmse"] == 0.0

    def test_two_seed_values(self):
        per_loc = [
            {name: [1.0] for name in METRIC_NAMES},
            {name: [3.0] for name in METRIC_NAMES},
        ]
        report = aggregate([0, 1], ["a"], per_loc)
        assert report.mean["mae"] == pytest.approx(2.0)
        assert report.std["mae"] == pytest.approx(1.0)  # population std

    def test_matches_direct_two_stage_computation(self):
        rng = np.random.default_rng(8)
        seeds = list(range(5))
        values = rng.normal(size=(5, 10))
        per_loc = [{name: list(values[s]) for name in METRIC_NAMES} for s in seeds]
        report = aggregate(seeds, [f"s{k}" for k in range(10)], per_loc)
        seed_means = values.mean(axis=1)
        assert report.mean["csi"] == pytest.approx(seed_means.mean(), rel=1e-12)
        assert report.std["csi"] == pytest.approx(seed_means.std(), rel=1e-12)

    def test_none_values_skipped(self):
        per_loc = [{name: [None, 4.0] for name in METRIC_NAMES}]
        report = aggregate([0], ["a", "b"], per_loc)
        assert report.mean["pod"] == pytest.approx(4.0)

    def test_all_none_metric_stays_none(self):
        per_loc = [{name: [None] for name in METRIC_NAMES}]
        report = aggregate([0], ["a"], per_loc)
        assert report.mean["spearman"] is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [], [])

    def test_serialization_round_trip_fields(self):
        per_loc = [{name: [1.0, 2.0] for name in METRIC_NAMES}]
        report = aggregate([3], ["a", "b"], per_loc)
        text = report.to_text("demo")
        assert "rmse" in text and "demo" in text
        kv = report.to_keyvalue_lines()
        assert any(line.startswith("metric.rmse.mean = 1.5") for line in kv)
        csv_lines = report.location_csv_lines()
        assert csv_lines[0].startswith("seed,station_id,loss")
        assert len(csv_lines) == 3


# ---------------------------------------------------------------- the previous implementations


def oracle_mse(pred, truth):
    return float(np.mean((pred - truth) ** 2))


def oracle_rmse(pred, truth):
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def oracle_mae(pred, truth):
    return float(np.mean(np.abs(pred - truth)))


def oracle_ranks(x):
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    start = np.cumsum(counts) - counts
    return (start + 0.5 * (counts - 1) + 1.0)[inverse]


def oracle_spearman(pred, truth):
    if pred.size < 2 or np.all(pred == pred[0]) or np.all(truth == truth[0]):
        return None
    rp = oracle_ranks(pred)
    rt = oracle_ranks(truth)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    return float((rp @ rt) / np.sqrt((rp @ rp) * (rt @ rt)))


def oracle_threshold(pred, truth, haze):
    p = pred >= haze
    t = truth >= haze
    hits = int(np.sum(p & t))
    misses = int(np.sum(~p & t))
    false_alarms = int(np.sum(p & ~t))
    csi = 100.0 * hits / (hits + misses + false_alarms) if hits + misses + false_alarms else None
    pod = 100.0 * hits / (hits + misses) if hits + misses else None
    far = 100.0 * false_alarms / (hits + false_alarms) if hits + false_alarms else None
    return csi, pod, far


def series_cases():
    rng = np.random.default_rng(11)
    cases = {f"random-{n}": rng.normal(50.0, 40.0, size=n) for n in (0, 1, 2, 3, 24)}
    cases.update({
        "ties-24": rng.integers(0, 4, size=24) * 25.0,
        "ties-3": np.array([75.0, 10.0, 75.0]),
        "constant-24": np.full(24, 75.0),
        "constant-2": np.full(2, 3.0),
        "nan-24": np.where(rng.random(24) < 0.3, np.nan, rng.integers(0, 5, size=24) * 30.0),
        "nan-3": np.array([np.nan, 1.0, np.nan]),
        "all-nan-2": np.full(2, np.nan),
        "signed-zeros-24": rng.choice([0.0, -0.0, 1.0, -1.0], size=24),
        "signed-zeros-3": np.array([-0.0, 0.0, -0.0]),
    })
    return cases


CASES = series_cases()


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_previous_implementations(name):
    truth = CASES[name]
    rng = np.random.default_rng(len(name))
    others = [truth[::-1].copy(), truth + rng.normal(0.0, 30.0, size=truth.size), truth.copy()]
    got_ranks, want_ranks = _average_ranks(truth), oracle_ranks(truth)
    assert got_ranks.dtype == want_ranks.dtype and got_ranks.tobytes() == want_ranks.tobytes()
    for pred in others:
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            pairs = [(mse_loss(pred, truth), oracle_mse(pred, truth)),
                     (rmse(pred, truth), oracle_rmse(pred, truth)),
                     (mae(pred, truth), oracle_mae(pred, truth)),
                     (spearman(pred, truth), oracle_spearman(pred, truth)),
                     *zip(threshold_metrics(pred, truth, 75.0), oracle_threshold(pred, truth, 75.0))]
        for got, want in pairs:
            assert same_bits(got, want), (got, want)


def test_ranks_bit_identical_on_many_random_series():
    rng = np.random.default_rng(12)
    for k in range(3000):
        n = int(rng.integers(0, 40))
        x = rng.integers(-2, 3, size=n) * 0.5 if k % 2 else rng.normal(size=n)
        x[rng.random(n) < 0.1] = np.nan
        x[x == 0.0] = rng.choice([0.0, -0.0], size=int((x == 0.0).sum()))
        assert _average_ranks(x).tobytes() == oracle_ranks(x).tobytes()
