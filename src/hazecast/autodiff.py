"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operations applied
to it; calling :meth:`Tensor.backward` on a scalar result accumulates exact
analytic gradients into every reachable tensor that requires them.  Gradients
accumulate across multiple backward calls (sum over a batch); reset leaves
with :func:`zero_grads` between optimizer steps.

Only the primitives the forecasting layers and their losses need are
implemented: ``+``, ``-`` and ``*`` of two tensors of one shape (``*`` also
takes a Python number, as a node with one parent), tanh, the sum and mean of
all entries, joining 2-D tensors by columns or rows, and row blocks.
Everything runs single-threaded over numpy (see
:func:`single_threaded_blas`), so identical inputs give bit-identical results.
``backward`` sums each tensor's gradients into a zeroed buffer it allocated,
so it never writes an array it was handed.  A row block (:meth:`Tensor.rows`)
is a view of a run of its parent's rows; its gradient goes into those rows of
the parent's buffer, so blocks of one parent may touch, overlap or repeat.

The tape records only what needs a gradient.  A layer records one fused node
through :meth:`Tensor._make`, with its inputs and every weight as parents
and a hand-derived backward; data that nothing learns, such as the graph
layers' edge attributes, comes in as a plain array.  What such a node keeps
alive until backward is whatever its backward closure refers to.  The layers
of :mod:`hazecast.layers` do so and keep only small arrays: ``Linear`` its
input; ``TransformerConv`` its (nodes, d) query terms and edge-input sums and
its (edges, 1) attention weights; ``ScalarGraphConv`` its edge-input sums;
``SpaceTimeEmbedding`` its scaled coordinates and calendar ids.  A recurrence
(``GruCell.unroll`` over a window's H hours, the model's decoder over its F
hours) is one node that keeps each step's arrays in :class:`StepBuffers`, or
nothing when it does not record.
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

    def _same_shape(self, other, op: str) -> "Tensor":
        other = self._wrap(other)
        if other.shape != self.shape:
            raise ValueError(f"{op} needs operands of one shape, got {self.shape} and {other.shape}")
        return other

    def __add__(self, other):
        other = self._same_shape(other, "+")
        return Tensor._make(self.data + other.data, (self, other), lambda g: (g, g))

    def __sub__(self, other):
        return self + self._same_shape(other, "-") * -1.0

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Tensor._make(self.data * other, (self,), lambda g: (g * other,))
        other = self._same_shape(other, "*")
        return Tensor._make(self.data * other.data, (self, other), lambda g: (g * other.data, g * self.data))

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

    def rows(self, start: int, stop: int):
        """Rows ``start:stop`` as a view; backward adds the gradient into those rows only."""
        out = Tensor._make(self.data[start:stop], (self,), lambda g: (g,))
        out._rows = slice(start, stop)
        return out

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

        grads: dict[int, np.ndarray] = {}

        def accumulate(node: Tensor, g: np.ndarray, rows: slice | None) -> None:
            buf = node.grad if node._backward is None else grads.get(id(node))
            if buf is None:
                buf = np.zeros(node.shape)
                if node._backward is None:
                    node.grad = buf
                else:
                    grads[id(node)] = buf
            buf[rows or ...] += g

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


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
