"""The benchmark's workloads and the closed loop that drives them.

Every workload runs the same user flow on its own generated corpus, one call
at a time in one process:

1. ``setup``: ``prepare_corpus`` from the CSVs, save the cache, load it back,
   cut windows and build the models;
2. ``train``: SGD steps of ``agnn_gru`` at the reference size (30 stations,
   H = F = 24, hidden 64);
3. ``forecast``: ``predict`` on test windows, destandardize and score each
   window per location with ``hazecast.metrics``.

After one set-up the three stages share one closed loop: the workload's
main stage runs for the run's seconds and the other two run a fixed count,
interleaved evenly over that time.  So every end-to-end metric is measured on
every workload, each metric samples the whole run rather than one stretch of
a machine whose speed drifts, and each workload puts its time where its name
says.  Training and forecasting therefore overlap: forecasts use the weights
as they are at that moment.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from corpus import CorpusSpec, write_corpus, write_subset
from spans import LAYER_SPANS, Tracer, summarize, tape_nodes

from hazecast import data, metrics
from hazecast.autodiff import Tensor
from hazecast.model import Forecaster, ModelConfig

STAGES = ("setup", "train", "forecast")
HISTORY = FORECAST = 24
HIDDEN = 64
LEARNING_RATE = 0.05
CLIP_NORM = 1.0          # global gradient norm cap, so long runs cannot diverge
SCHEDULE = 30            # train steps whose losses give train_loss
FORECAST_WINDOWS = 60    # test windows scored when forecast is not the main stage
MIN_MAIN = {"setup": 3, "train": SCHEDULE, "forecast": 5}
HAZE = 75.0              # ug/m3, threshold of the event metrics
GRADCHECK_ENTRIES = 4


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    main: str                      # the stage that runs for the run's seconds
    setup_reps: int = 3            # set-ups when set-up is not the main stage
    train_stations: int | None = None  # train on this many central stations


WORKLOADS = {w.name: w for w in (
    Workload(
        name="prepare-year",
        why="a year of hourly CSV for 30 stations: loading, imputation, edge "
            "attributes and the cache dominate; the model stages are short",
        corpus=CorpusSpec(n_stations=30, days=365, area_km=300.0, threshold_km=110.0),
        main="setup"),
    Workload(
        name="train-ref",
        why="training steps at the reference size (30 stations, ~260 edges): the "
            "Python tape and backward dominate and graph aggregation is small",
        corpus=CorpusSpec(n_stations=30, days=90, area_km=300.0, threshold_km=110.0),
        main="train", setup_reps=6),
    Workload(
        name="forecast-scale",
        why="forecasting 1000 stations (~9k edges) with no backward: dense graph "
            "aggregation dominates; training runs on 30 central stations",
        corpus=CorpusSpec(n_stations=1000, days=21, area_km=1000.0, threshold_km=55.0),
        main="forecast", setup_reps=2, train_stations=30),
)}


@dataclass
class Ready:
    """What one set-up produces for the later stages."""

    cache: data.PreparedData
    train_windows: list
    test_windows: list
    model: Forecaster          # trained at the reference size
    forecaster: Forecaster     # predicts on the full corpus; may be ``model``


def model_config(prepared: data.PreparedData) -> ModelConfig:
    return ModelConfig(variant="agnn_gru", hidden=HIDDEN, history_steps=HISTORY,
                       forecast_steps=FORECAST, node_dim=prepared.node_dim)


def mse(pred: Tensor, truth: np.ndarray) -> Tensor:
    diff = pred - Tensor(truth)
    return (diff * diff).mean()


def assert_same(a, b, where: str = "cache") -> None:
    """Bitwise equality of two values built from dataclasses, arrays and plain data."""
    if dataclasses.is_dataclass(a):
        if type(a) is not type(b):
            raise CheckFailed(f"{where}: {type(a).__name__} vs {type(b).__name__}")
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name), f"{where}.{field.name}")
    elif isinstance(a, np.ndarray):
        if not (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes()):
            raise CheckFailed(f"{where}: arrays differ after the round trip")
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            raise CheckFailed(f"{where}: lengths differ after the round trip")
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{k}]")
    elif a != b:
        raise CheckFailed(f"{where}: {a!r} != {b!r} after the round trip")


def check_model(model: Forecaster, window, rng: np.random.Generator) -> None:
    """``predict`` equals ``forward(...).data`` bitwise, and central differences
    match the analytic gradient on a few parameter entries."""
    model.zero_grad()
    taped = model.forward(window)
    if not np.array_equal(model.predict(window), taped.data):
        raise CheckFailed("predict differs from forward(...).data")
    mse(taped, window.y_future).backward()
    eps = 1e-6
    for name in rng.choice(sorted(model.params), GRADCHECK_ENTRIES, replace=False):
        tensor = model.params[name]
        k = int(np.argmax(np.abs(tensor.grad)))  # the entry the loss is most sensitive to
        analytic = float(tensor.grad.flat[k])
        original = tensor.data.flat[k]
        losses = []
        for shift in (eps, -eps):
            tensor.data.flat[k] = original + shift
            losses.append(float(np.mean((model.predict(window) - window.y_future) ** 2)))
        tensor.data.flat[k] = original
        numeric = (losses[0] - losses[1]) / (2 * eps)
        if abs(numeric - analytic) > 1e-4 * max(abs(numeric), abs(analytic)) + 1e-8:
            raise CheckFailed(f"gradient of {name}[{k}]: analytic {analytic:.9g}, "
                              f"central difference {numeric:.9g}")
    model.zero_grad()


def score(prepared: data.PreparedData, pred: np.ndarray, window, seed: int):
    """Per-location metrics of one forecast window, aggregated."""
    p = prepared.destandardize_target(pred)
    t = prepared.destandardize_target(window.y_future)
    per_location = {name: [] for name in metrics.METRIC_NAMES}
    for k in range(p.shape[1]):
        per_location["loss"].append(metrics.mse_loss(pred[:, k], window.y_future[:, k]))
        per_location["rmse"].append(metrics.rmse(p[:, k], t[:, k]))
        per_location["mae"].append(metrics.mae(p[:, k], t[:, k]))
        per_location["spearman"].append(metrics.spearman(p[:, k], t[:, k]))
        csi, pod, far = metrics.threshold_metrics(p[:, k], t[:, k], HAZE)
        per_location["csi"].append(csi)
        per_location["pod"].append(pod)
        per_location["far"].append(far)
    return metrics.aggregate([seed], prepared.station_ids, [per_location])


def percentile_ms(values, q: float) -> float:
    return 1000.0 * float(np.percentile(values, q))


class Run:
    """One run of one workload: the closed loop, its samples and its checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.op_times: dict[bool, list[float]] = {False: [], True: []}  # main stage, by traced
        self.tracers = {stage: Tracer() for stage in STAGES}
        self.train_losses: list[float] = []
        self.forward_peak_mb = 0.0
        self.layer_nodes: dict[str, float] = {}
        self.step_nodes = 0
        self.ready: Ready | None = None

    def record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- the closed loop ------------------------------------------------------

    def attempt(self, stage: str, op, traced: bool = False, main: bool = False) -> None:
        """Run one operation; a raise or a failed check counts as a failure."""
        self.attempted += 1
        tracer = self.tracers[stage] if traced else None
        try:
            with tracer.installed(f"op.{stage}") if tracer else nullcontext():
                start = perf_counter()
                op()
                elapsed = perf_counter() - start
        except Exception:  # operation boundary: report it and keep the loop going
            self.failed += 1
            traceback.print_exc()
            return
        if main:
            self.op_times[traced].append(elapsed)

    def schedule(self, ops: dict, done: dict) -> None:
        """Run ``ops[stage] = (op, count)`` as one closed loop.

        ``op(k)`` is the stage's k-th operation.  The main stage runs until
        the run's seconds have passed and its minimum count has run.  Each
        other stage runs its count, spread evenly over that time, so every
        metric samples the whole run rather than one stretch of it.  In a
        traced run every other main-stage operation runs untraced, which gives
        the untraced times that ``trace_overhead`` compares against.
        """
        main = self.workload.main

        def step(stage):
            k = done[stage]
            traced = self.trace and (stage != main or k % 2 == 1)
            self.attempt(stage, lambda: ops[stage][0](k), traced=traced, main=stage == main)
            done[stage] += 1

        start = perf_counter()
        while done[main] < MIN_MAIN[main] or perf_counter() - start < self.seconds:
            step(main)
            share = min(1.0, (perf_counter() - start) / self.seconds)
            for stage, (_, count) in ops.items():
                while stage != main and done[stage] < round(share * count):
                    step(stage)
        for stage, (_, count) in ops.items():
            while stage != main and done[stage] < count:
                step(stage)

    # -- stages -----------------------------------------------------------------

    def run(self) -> None:
        wl = self.workload
        manifest = write_corpus(self.workdir / "corpus", wl.corpus, self.seed)
        train_manifest = write_subset(manifest, wl.train_stations) if wl.train_stations else None
        cache_path = self.workdir / "cache.bin"

        def setup(k):
            """One set-up; the first one's results feed the other stages."""
            start = perf_counter()
            prepared, _ = data.prepare_corpus(data.parse_manifest(manifest), wl.corpus.threshold_km)
            prepared_at = perf_counter()
            prepared.save(cache_path)
            saved_at = perf_counter()
            cache = data.PreparedData.load(cache_path)
            loaded_at = perf_counter()
            assert_same(prepared, cache)
            del prepared
            resumed_at = perf_counter()
            if train_manifest is None:
                train_data = cache
            else:
                train_data, _ = data.prepare_corpus(data.parse_manifest(train_manifest),
                                                    wl.corpus.threshold_km)
            model = Forecaster(model_config(train_data), train_data.network(), seed=self.seed)
            forecaster = model
            if train_data is not cache:
                forecaster = Forecaster(model_config(cache), cache.network(), seed=self.seed)
                for name, tensor in forecaster.params.items():
                    tensor.data = model.params[name].data  # shared, so training updates both
            ready = Ready(cache, train_data.windows("train", HISTORY, FORECAST),
                          cache.windows("test", HISTORY, FORECAST), model, forecaster)
            ready_at = perf_counter()
            self.record("setup_s", (loaded_at - start) + (ready_at - resumed_at))
            self.record("prepare_s", prepared_at - start)
            self.record("load_s", loaded_at - saved_at)
            self.record("cache_mb", os.path.getsize(cache_path) / 1e6)
            if self.ready is None:
                self.ready = ready

        self.attempt("setup", lambda: setup(0), traced=self.trace and wl.main != "setup",
                     main=wl.main == "setup")
        if self.ready is None:
            return
        ready = self.ready
        rng = np.random.default_rng(self.seed)
        self.attempt("check", lambda: check_model(ready.model, ready.train_windows[0], rng))
        order = rng.permutation(len(ready.train_windows))
        n_test = len(ready.test_windows)
        picks = np.unique(np.linspace(0, n_test - 1, min(n_test, FORECAST_WINDOWS)).round().astype(int))
        if self.trace:
            self.count_nodes(ready)
            self.measure_forward_memory(ready.test_windows[picks[0]])
        ready.forecaster.predict(ready.test_windows[picks[0]])  # first-touch costs stay untimed

        def train_step(k):
            window = ready.train_windows[order[k % len(order)]]
            start = perf_counter()
            ready.model.zero_grad()
            loss = mse(ready.model.forward(window), window.y_future)
            loss.backward()
            grads = [(t, t.grad) for t in ready.model.params.values() if t.grad is not None]
            norm = math.sqrt(sum(float(np.vdot(g, g)) for _, g in grads))
            rate = LEARNING_RATE * min(1.0, CLIP_NORM / norm) if norm > 0 else 0.0
            for tensor, grad in grads:
                tensor.data -= rate * grad
            elapsed = perf_counter() - start
            value = loss.item()
            if not math.isfinite(value):
                raise CheckFailed(f"train step {k}: loss {value}")
            self.record("train_step_s", elapsed)
            if k < SCHEDULE:
                self.train_losses.append(value)

        def forecast(k):
            window = ready.test_windows[picks[k % len(picks)]]
            start = perf_counter()
            pred = ready.forecaster.predict(window)
            predicted_at = perf_counter()
            report = score(ready.cache, pred, window, self.seed)
            scored_at = perf_counter()
            if not (np.all(np.isfinite(pred)) and math.isfinite(report.mean["rmse"])):
                raise CheckFailed(f"forecast window {k}: non-finite prediction or score")
            self.record("predict_s", predicted_at - start)
            self.record("eval_s", scored_at - start)

        self.schedule({"setup": (setup, wl.setup_reps), "train": (train_step, SCHEDULE),
                       "forecast": (forecast, len(picks))},
                      done={"setup": 1, "train": 0, "forecast": 0})

    # -- traced-run extras ----------------------------------------------------------

    def count_nodes(self, ready: Ready) -> None:
        """Tape nodes per layer call and per train step, from one untimed step."""
        counter = Tracer()
        counter.counting = True
        window = ready.train_windows[0]
        with counter.installed():
            loss = mse(ready.model.forward(window), window.y_future)
        self.step_nodes = tape_nodes(loss)
        self.layer_nodes = {name: counter.layer_nodes[name] / max(1, counter.layer_grad_calls[name])
                            for name in LAYER_SPANS}

    def measure_forward_memory(self, window) -> None:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.ready.forecaster.predict(window)
            self.forward_peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()

    # -- results ---------------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """Metric name -> (value, unit, sample count), for the stages that ran."""
        s = self.samples
        out = {"peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)}
        for name in ("setup_s", "prepare_s", "load_s"):
            if s.get(name):
                out[name] = (median(s[name]), "s", len(s[name]))
        if s.get("cache_mb"):
            out["cache_mb"] = (s["cache_mb"][-1], "MB", 1)
        steps = s.get("train_step_s")
        if steps:
            out["train_windows_per_s"] = (len(steps) / sum(steps), "1/s", len(steps))
            out["train_step_ms_p90"] = (percentile_ms(steps, 90), "ms", len(steps))
        predict, evaluate = s.get("predict_s"), s.get("eval_s")
        if predict:
            out["predict_ms_p90"] = (percentile_ms(predict, 90), "ms", len(predict))
            out["eval_windows_per_s"] = (len(evaluate) / sum(evaluate), "1/s", len(evaluate))
        return out

    def notes(self) -> dict[str, tuple[float, str, int]]:
        """Figures printed for people but not gated: their healthy value is 0,
        or they vary across runs by more than any bound the gate allows."""
        out = {"fail_frac": (self.failed / max(1, self.attempted), "ratio", self.attempted)}
        for name, key in (("train_step_ms_p50", "train_step_s"), ("predict_ms_p50", "predict_s")):
            if self.samples.get(key):
                out[name] = (percentile_ms(self.samples[key], 50), "ms", len(self.samples[key]))
        if len(self.train_losses) == SCHEDULE:
            tail = self.train_losses[-(SCHEDULE // 10):]
            out["train_loss"] = (sum(tail) / len(tail), "mse", len(tail))
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Metric name -> (value, unit), each normalised per operation."""
        setup, train, forecast = (summarize(self.tracers[stage].spans) for stage in STAGES)
        n_setup = max(1, setup["op.setup"]["calls"])
        n_steps = max(1, train["op.train"]["calls"])
        n_scored = max(1, forecast["op.forecast"]["calls"])
        # Layer time comes from the stage whose forwards the workload is about.
        layers = forecast if self.workload.main == "forecast" else train
        n_forward = max(1, layers["model.forward"]["calls"])
        out = {
            "autodiff.backward_s": (train["autodiff.backward"]["total_s"] / n_steps, "s"),
            "autodiff.tape_nodes": (float(self.step_nodes), "count"),
            "model.forward_s": (layers["model.forward"]["total_s"] / n_forward, "s"),
            "model.forward_peak_mb": (self.forward_peak_mb, "MB"),
            "layers.GraphLayout.aggregate_s": (
                layers["layers.GraphLayout.aggregate"]["total_s"] / n_forward, "s"),
        }
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = (layers[name]["calls"] / n_forward, "count")
            out[f"{name}.self_s"] = (layers[name]["self_s"] / n_forward, "s")
            out[f"{name}.nodes"] = (self.layer_nodes.get(name, 0.0), "count")
        for name in ("load_corpus", "impute_chained", "split_temporal", "compute_stats",
                     "spacetime_features", "windows"):
            out[f"data.{name}_s"] = (setup[f"data.{name}"]["total_s"] / n_setup, "s")
        out["data.prepare_corpus_self_s"] = (setup["data.prepare_corpus"]["self_s"] / n_setup, "s")
        out["geo.build_network_s"] = (setup["geo.build_network"]["total_s"] / n_setup, "s")
        out["geo.edge_attributes_at_s"] = (setup["geo.edge_attributes_at"]["total_s"] / n_setup, "s")
        out["geo.edge_attributes_at_calls"] = (setup["geo.edge_attributes_at"]["calls"] / n_setup, "count")
        out["container.save_arrays_s"] = (setup["container.save_arrays"]["total_s"] / n_setup, "s")
        out["container.load_arrays_s"] = (setup["container.load_arrays"]["total_s"] / n_setup, "s")
        for name in ("aggregate", "spearman", "threshold_metrics"):
            out[f"metrics.{name}_s"] = (forecast[f"metrics.{name}"]["total_s"] / n_scored, "s")
        untraced, traced = self.op_times[False], self.op_times[True]
        out["trace_overhead"] = (median(traced) / median(untraced) if traced and untraced else 0.0, "ratio")
        return out

    def spans(self) -> dict[str, list]:
        return {stage: tracer.spans for stage, tracer in self.tracers.items()}
