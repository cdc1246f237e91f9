"""Outside-in spans around calls into hazecast's public functions.

The tracer adds no hooks to the package.  While installed it replaces each
traced function or method by a wrapper, at the name the caller looks it up:
a module-level function is rebound in every ``hazecast`` module that imported
it by name (``data.py`` imports ``edge_attributes_at``, for example), and a
method is rebound on its class.  Uninstalling restores the originals.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until the run writes them out.
A span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import warnings
from collections import defaultdict
from time import perf_counter

from hazecast.autodiff import Tensor

#: (defining module, qualified name, span name) of every traced call site.
TRACE_POINTS = (
    ("hazecast.data", "prepare_corpus", "data.prepare_corpus"),
    ("hazecast.data", "load_corpus", "data.load_corpus"),
    ("hazecast.data", "impute_chained", "data.impute_chained"),
    ("hazecast.data", "split_temporal", "data.split_temporal"),
    ("hazecast.data", "compute_stats", "data.compute_stats"),
    ("hazecast.data", "spacetime_features", "data.spacetime_features"),
    ("hazecast.data", "PreparedData.windows", "data.windows"),
    ("hazecast.geo", "build_network", "geo.build_network"),
    ("hazecast.geo", "edge_attributes_at", "geo.edge_attributes_at"),
    ("hazecast.container", "save_arrays", "container.save_arrays"),
    ("hazecast.container", "load_arrays", "container.load_arrays"),
    ("hazecast.autodiff", "Tensor.backward", "autodiff.backward"),
    ("hazecast.layers", "Linear.__call__", "layers.Linear"),
    ("hazecast.layers", "GruCell.step", "layers.GruCell"),
    ("hazecast.layers", "TransformerConv.__call__", "layers.TransformerConv"),
    ("hazecast.layers", "LuongAttention.__call__", "layers.LuongAttention"),
    ("hazecast.layers", "SpaceTimeEmbedding.__call__", "layers.SpaceTimeEmbedding"),
    ("hazecast.layers", "Mlp.__call__", "layers.Mlp"),
    ("hazecast.layers", "GraphLayout.aggregate", "layers.GraphLayout.aggregate"),
    ("hazecast.model", "Forecaster.forward", "model.forward"),
    ("hazecast.metrics", "aggregate", "metrics.aggregate"),
    ("hazecast.metrics", "spearman", "metrics.spearman"),
    ("hazecast.metrics", "threshold_metrics", "metrics.threshold_metrics"),
)

#: Span names whose tape nodes are counted per call in counting mode.
LAYER_SPANS = tuple(name for _, _, name in TRACE_POINTS if name.startswith("layers.")
                    and name != "layers.GraphLayout.aggregate")


def _bindings(module_name: str, qualname: str):
    """Every (owner, attribute) through which callers reach the traced object."""
    module = importlib.import_module(module_name)
    owner_path, _, attr = qualname.rpartition(".")
    if owner_path:
        owner = functools.reduce(getattr, owner_path.split("."), module)
        return [(owner, attr, owner.__dict__[attr])] if attr in owner.__dict__ else []
    target = getattr(module, attr, None)
    if target is None:
        return []
    return [(mod, attr, target) for name, mod in sorted(sys.modules.items())
            if (name == "hazecast" or name.startswith("hazecast."))
            and getattr(mod, attr, None) is target]


def tape_nodes(output, stop=()) -> int:
    """Recorded operations reachable from ``output``, read-only.

    The walk follows each tensor's parents and does not pass through leaves
    or through the tensors in ``stop`` (a call's inputs), so it counts the
    nodes that produced ``output`` from those inputs.
    """
    stop_ids = {id(t) for t in stop}
    seen, todo, count = set(), [output], 0
    while todo:
        node = todo.pop()
        if id(node) in seen or id(node) in stop_ids or getattr(node, "_backward", None) is None:
            continue
        seen.add(id(node))
        count += 1
        todo.extend(getattr(node, "_parents", ()))
    return count


def _tensor_args(args):
    for arg in args:
        if isinstance(arg, Tensor):
            yield arg
        elif isinstance(arg, (list, tuple)):
            yield from (a for a in arg if isinstance(a, Tensor))


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and self seconds.

    A name with no spans reads as zeros.
    """
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


class Tracer:
    """Records spans for the calls in TRACE_POINTS while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counting = False
        self.layer_nodes: dict[str, int] = defaultdict(int)
        self.layer_grad_calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings = None

    def _wrap(self, original, name: str):
        tracer = self
        count = name in LAYER_SPANS

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.counting:
                out = original(*args, **kwargs)
                if count and getattr(out, "requires_grad", False):
                    tracer.layer_nodes[name] += tape_nodes(out, stop=list(_tensor_args(args)))
                    tracer.layer_grad_calls[name] += 1
                return out
            with tracer.span(name):
                return original(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, root: str | None = None):
        """Patch every trace point for the duration of the block."""
        if self._bindings is None:
            self._bindings = []
            for module_name, qualname, name in TRACE_POINTS:
                found = _bindings(module_name, qualname)
                if not found:
                    warnings.warn(f"trace point {module_name}.{qualname} not found")
                    continue
                wrapper = self._wrap(found[0][2], name)
                self._bindings += [(owner, attr, wrapper, original) for owner, attr, original in found]
        patched = []
        try:
            for owner, attr, wrapper, original in self._bindings:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            with self.span(root) if root else contextlib.nullcontext():
                yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
