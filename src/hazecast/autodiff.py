"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operations applied
to it; calling :meth:`Tensor.backward` on a scalar result accumulates exact
analytic gradients into every reachable tensor that requires them.  Gradients
accumulate across multiple backward calls (sum over a batch); reset leaves
with :func:`zero_grads` between optimizer steps.

Only the primitives the forecasting layers and their losses need are
implemented: elementwise ``+``, ``-`` and ``*`` with broadcasting, tanh, the
sum and mean of all entries, joining 2-D tensors by columns or rows, stacking
along a new leading axis, row blocks, row gathering and reshaping.
Row gathering sums its gradient through :func:`segment_sum`, which costs time
and memory linear in the number of rows summed.  Everything runs
single-threaded over numpy (see :func:`single_threaded_blas`), so identical
inputs give bit-identical results.  ``backward`` adds gradients in place, but
only into arrays it allocated itself.  A row block (:meth:`Tensor.rows`) is a
view of a run of its parent's rows; ``backward`` adds the gradients of all
blocks of one parent, which may touch, overlap or repeat, into one buffer the
size of that parent.

A layer can also record one fused node through :meth:`Tensor._make`, with
every weight as a parent and a hand-derived backward; what such a node keeps
alive until backward is whatever its backward closure refers to.  The layers
of :mod:`hazecast.layers` do so and keep only small arrays: ``Linear`` its
input; ``TransformerConv`` its (nodes, d) query terms and edge-input sums and
its (edges, 1) attention weights; ``SpaceTimeEmbedding`` its scaled
coordinates and calendar ids.  A recurrence (``GruCell.unroll``, the model's
decoder) is one node that keeps each step's arrays in :class:`StepBuffers`,
or nothing when it does not record.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or None.

    numpy wheels ship OpenBLAS under ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS); a numpy linked against another BLAS gets None.
    """
    base = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(base, ".dylibs", "*openblas*"))
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The tape's matmuls are small or medium and sit between single-threaded
    numpy operations.  A second BLAS thread shortens them a little on an idle
    machine, but its worker spins between calls and every threaded call waits
    for both threads to get a CPU, so one other busy thread on a two-CPU
    machine made a 1000-station forecast 2.9x slower with two BLAS threads and
    no slower with one.  The count is process-wide while the block runs.
    Without a bundled OpenBLAS this does nothing.
    """
    threads = _openblas_threads()
    prev = threads[0]() if threads else 1
    if prev != 1:
        threads[1](1)
    try:
        yield
    finally:
        if prev != 1:
            threads[1](prev)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def segment_sum(values, index, n_rows: int, cache: dict | None = None) -> np.ndarray:
    """Sum the rows of ``values`` into ``n_rows`` rows: row ``index[k]`` gets ``values[k]``.

    Rows that no index hits stay zero.  Each output row accumulates its
    inputs in index order, so the result is deterministic and bit-identical
    to ``np.add.at``; one flat ``np.bincount`` over (row, column) cells does
    the work without materializing any (n_rows, len(index)) array.  A caller
    that sums by one index often keeps a ``cache`` of its cells per row width.
    """
    values = np.asarray(values, dtype=np.float64)
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    cache = {} if cache is None else cache
    if width not in cache:
        cache[width] = (np.asarray(index, dtype=np.int64)[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cache[width], weights=values.ravel(), minlength=n_rows * width)
    return out.reshape((n_rows,) + values.shape[1:])


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-v))`` of an array, into ``out`` if given (may be ``v``)."""
    out = np.exp(np.negative(v, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


class StepBuffers:
    """Each step's arrays of a recurrence, in (steps, rows, width) buffers made on first use.

    A fused node writes step t's arrays into ``slot(name, t, shape)``, and its
    backward their gradients into a second, short-lived set; each weight's
    gradient is then one product over ``rows(name)``.  If a node with
    ``parents`` does not record, all steps share one slot.
    """

    def __init__(self, steps: int, parents=None):
        self.steps, self.all = steps, {}
        self.keep = parents is None or (_grad_enabled and any(p.requires_grad for p in parents))

    def slot(self, name: str, t: int, shape=()) -> np.ndarray:
        if name not in self.all:
            self.all[name] = np.empty((self.steps if self.keep else 1, *shape))
        return self.all[name][t if self.keep else 0]

    def rows(self, name: str) -> np.ndarray:
        return self.all[name].reshape(-1, self.all[name].shape[-1])


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_rows")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._rows = None  # the parent's rows this node's gradient covers; None: all of it

    # -- construction -----------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def _make(cls, data, parents, backward) -> "Tensor":
        """A node with value ``data``; ``backward(g)`` returns one gradient (or None) per parent.

        Nothing is recorded when no parent requires grad or under :func:`no_grad`.
        """
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        """The value of a size-1 tensor of any shape, as a Python float."""
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._make(out_data, (self, other), backward)

    def __sub__(self, other):
        return self + self._wrap(other) * -1.0

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(g):
            return _unbroadcast(g * other.data, self.shape), _unbroadcast(g * self.data, other.shape)

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise nonlinearities -----------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g * (1.0 - out_data ** 2),))

    # -- reductions ----------------------------------------------------------

    def sum(self):
        return Tensor._make(self.data.sum(), (self,), lambda g: (np.full(self.shape, g),))

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        out_data = self.data.reshape(shape)
        return Tensor._make(out_data, (self,), lambda g: (g.reshape(self.shape),))

    def rows(self, start: int, stop: int):
        """Rows ``start:stop`` as a view; backward adds the gradient into those rows only."""
        out = Tensor._make(self.data[start:stop], (self,), lambda g: (g,))
        out._rows = slice(start, stop)
        return out

    def gather_rows(self, index: np.ndarray):
        """Select rows by integer index; duplicate indices accumulate on backward."""
        index = np.asarray(index, dtype=np.int64)
        n_rows = self.data.shape[0]
        return Tensor._make(self.data[index], (self,),
                            lambda g: (segment_sum(g, index, n_rows),))

    # -- graph traversal --------------------------------------------------------

    @single_threaded_blas()
    def backward(self, grad=None):
        """Accumulate gradients of this tensor w.r.t. every reachable leaf."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Iterative topological order; recursion would overflow on long
        # unrolled sequences.
        order: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, idx = stack.pop()
            if idx < len(node._parents):
                stack.append((node, idx + 1))
                parent = node._parents[idx]
                if id(parent) not in seen and parent.requires_grad:
                    seen.add(id(parent))
                    stack.append((parent, 0))
            else:
                order.append(node)

        # A handed-over array may be shared (``__add__`` passes its gradient
        # on as is), so the first write keeps it and the next adds into a
        # copy; a row block's first write zeroes a buffer the size of its parent.
        grads: dict[int, np.ndarray] = {}
        owned: set[int] = set()

        def accumulate(node: Tensor, g: np.ndarray, rows: slice | None) -> None:
            key, leaf = id(node), node._backward is None
            buf = node.grad if leaf else grads.get(key)
            if buf is None and rows is None:
                buf = np.array(np.broadcast_to(g, node.shape)) if leaf else g
            else:
                if buf is None:
                    buf = np.zeros(node.shape)
                elif not (leaf or key in owned):
                    buf = buf.copy()
                buf[rows or ...] += g
                owned.add(key)
            if leaf:
                node.grad = buf
            else:
                grads[key] = buf

        accumulate(self, grad, None)
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is not None and parent.requires_grad:
                    accumulate(parent, pg, node._rows)


def concat(tensors, axis: int = 1) -> Tensor:
    """Join 2-D tensors side by side, along their columns (or their rows, ``axis=0``)."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return Tensor._make(out_data, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def stack(tensors) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    tensors = [Tensor._wrap(t) for t in tensors]
    return Tensor._make(np.stack([t.data for t in tensors]), tuple(tensors), lambda g: tuple(g))


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
