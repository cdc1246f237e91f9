import operator
import re

import numpy as np
import pytest

from hazecast.autodiff import Tensor, concat, single_threaded_blas, zero_grads
from hazecast.layers import Linear

from gradcheck import assert_gradients_match


def test_hand_chain_rule():
    # d/dw 0.5*(w*x - y)^2 at w=1, x=2, y=0 is (w*x - y)*x = 4
    w = Tensor(np.array(1.0), requires_grad=True)
    x = Tensor(np.array(2.0))
    y = Tensor(np.array(0.0))
    loss = (w * x - y) * (w * x - y) * 0.5
    loss.backward()
    assert w.grad == pytest.approx(4.0)


def test_constant_path_zero_gradient():
    x = Tensor(np.arange(4.0), requires_grad=True)
    loss = (x * 0.0).sum()
    loss.backward()
    assert np.all(x.grad == 0.0)


def test_reused_tensor_accumulates():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x + x * x  # dy/dx = 4x
    y.backward()
    assert x.grad == pytest.approx(12.0)


def test_backward_accumulates_across_calls():
    x = Tensor(np.array(2.0), requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert x.grad == pytest.approx(8.0)
    zero_grads([x])
    assert x.grad is None


def test_backward_writes_no_array_it_was_handed():
    rng = np.random.default_rng(3)
    x_data, w_data, seed_grad = (rng.normal(size=(3, 2)) for _ in range(3))
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    a = x * w          # three contributions: from out, from c and through b
    b = a * 2.0
    c = b + a          # hands the gradient it gets to both b and a, unchanged
    handed = []
    c_backward = c._backward
    c._backward = lambda g: handed.append((g, g.copy())) or c_backward(g)
    out = (c * 1.5 + a) + x    # the seed gradient reaches a and the leaf x as it is
    out.backward(seed := seed_grad.copy())
    assert np.array_equal(seed, seed_grad)
    assert np.array_equal(x.data, x_data) and np.array_equal(w.data, w_data)
    assert len(handed) == 1 and np.array_equal(*handed[0])
    # d out / d a = 1 + 1.5 + 1.5 * 2
    assert np.allclose(x.grad, seed_grad + 5.5 * seed_grad * w_data, rtol=1e-14)
    assert np.allclose(w.grad, 5.5 * seed_grad * x_data, rtol=1e-14)
    out.backward(seed)
    assert np.array_equal(seed, seed_grad)
    assert np.allclose(x.grad, 2 * (seed_grad + 5.5 * seed_grad * w_data), rtol=1e-14)


def test_long_chain_no_recursion_error():
    x = Tensor(np.array(1.0), requires_grad=True)
    y = x
    for _ in range(3000):
        y = y * 1.0001
    y.backward()
    assert x.grad == pytest.approx(1.0001 ** 3000)


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_forward_only_tensors_carry_no_graph():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    c = concat([a * b, b]).tanh() + concat([concat([a, b]), concat([b, a])], axis=0).rows(1, 3) - concat([a, b * 2.0])
    assert not c.requires_grad
    assert c._backward is None


@pytest.mark.parametrize("seed", range(3))
def test_elementwise_and_broadcast_gradients(seed):
    # Operands of one shape; a broadcast operand is refused.
    rng = np.random.default_rng(seed)
    a, b, c = (Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(3))

    def loss():
        return (((a + b) * c - a * b) * (a * 0.5 + c)).sum()

    assert_gradients_match(loss, {"a": a, "b": b, "c": c})
    with pytest.raises(ValueError):
        a * Tensor(rng.normal(size=(1, 3)))


@pytest.mark.parametrize("op", ["+", "-", "*"])
@pytest.mark.parametrize("other", [np.ones((1, 3)), np.ones((4, 1)), np.ones(3), np.ones((4, 3, 1)), np.array(2.0)],
                         ids=["row", "column", "vector", "3-D", "0-D"])
def test_elementwise_ops_refuse_other_shapes(op, other):
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    apply = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    message = f"{op} needs operands of one shape, got (4, 3) and {other.shape}"
    for operand in (other, Tensor(other, requires_grad=True)):
        with pytest.raises(ValueError, match=re.escape(message)):
            apply(x, operand)


@pytest.mark.parametrize("number", [2.0, 3, np.float64(-0.5)])
def test_times_a_number_is_a_one_parent_node(number):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x * number
    assert y._parents == (x,)
    assert np.array_equal(y.data, x.data * number)
    y.sum().backward()
    assert np.array_equal(x.grad, np.full((2, 3), float(number)))


def test_nonlinearity_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5,)), requires_grad=True)

    def loss():
        return (x.tanh() + (x * 3.0).tanh() * x).sum()

    assert_gradients_match(loss, {"x": x})


def test_reduction_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)))

    def loss():
        return (x * w).sum() * x.mean() + (x * x).mean()

    assert_gradients_match(loss, {"x": x})


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_of_any_size_one_tensor(shape):
    assert Tensor(np.full(shape, 2.5)).item() == 2.5


def test_item_rejects_larger_tensor():
    with pytest.raises(ValueError):
        Tensor(np.zeros(2)).item()


def test_concat_gradients():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def loss():
        joined = concat([a, b])                          # (3, 6)
        piled = concat([joined, joined * 2.0], axis=0)   # (6, 6)
        return piled.sum() + (joined * joined).sum()

    assert_gradients_match(loss, {"a": a, "b": b})


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        lin = Linear(rng, 8, 8)
        loss = lin(x).tanh().sum()
        loss.backward()
        return loss.data.copy(), lin.weight.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------- the affine map, on Linear


def test_linear_matches_matmul_plus_bias():
    rng = np.random.default_rng(22)
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
    lin, no_bias = Linear(rng, 3, 2), Linear(rng, 3, 2, bias=False)
    lin.weight.data[...] = no_bias.weight.data[...] = w
    lin.bias.data[...] = b
    out = lin(Tensor(x))
    assert np.allclose(out.data, x @ w.T + b, rtol=1e-14)
    assert out._parents[1:] == (lin.weight, lin.bias)    # one node over the input and weights
    assert np.allclose(no_bias(Tensor(x)).data, x @ w.T, rtol=1e-14)


@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_gradients(with_bias):
    rng = np.random.default_rng(23)
    lin = Linear(rng, 3, 2, bias=with_bias)
    if with_bias:
        lin.bias.data[...] = rng.normal(size=2)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    probe = rng.normal(size=(4, 2))

    def loss():
        return (lin(x).tanh() * probe).sum()

    assert_gradients_match(loss, dict(lin.params(), x=x))


def test_linear_gradients_input_without_grad():
    rng = np.random.default_rng(24)
    lin = Linear(rng, 3, 2)
    lin.bias.data[...] = rng.normal(size=2)
    x = Tensor(rng.normal(size=(4, 3)))
    probe = rng.normal(size=(4, 2))

    def loss():
        return (lin(x).tanh() * probe).sum()

    assert_gradients_match(loss, dict(lin.params()))
    assert x.grad is None


@pytest.mark.parametrize("x_shape, w_shape", [((3,), (2, 3)), ((4, 3), (2, 4)), ((1, 4, 3), (2, 3))])
def test_linear_rejects_non_2d_operands(x_shape, w_shape):
    # w_shape is the layer's (out_dim, in_dim); the middle case has the wrong column count
    lin = Linear(np.random.default_rng(0), w_shape[1], w_shape[0])
    with pytest.raises(ValueError, match="2-D"):
        lin(Tensor(np.zeros(x_shape)))


# ---------------------------------------------------------------- BLAS threads


def test_single_threaded_blas_restores_thread_count(blas_threads):
    with single_threaded_blas():
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_single_threaded_blas_restores_after_raise(blas_threads):
    with pytest.raises(RuntimeError):
        with single_threaded_blas():
            raise RuntimeError("inside the block")
    assert blas_threads() == 2


def test_backward_runs_blas_on_one_thread(blas_threads):
    seen = []

    def backward(g):
        seen.append(blas_threads())
        return (2.0 * g,)

    x = Tensor(np.ones(3), requires_grad=True)
    Tensor._make(2.0 * x.data, (x,), backward).sum().backward()
    assert seen == [1]
    assert blas_threads() == 2


@pytest.mark.parametrize("leaf", [True, False])
def test_row_blocks_add_into_their_rows(leaf):
    # Adjacent (0:2, 2:4), overlapping (1:3) and repeated (2:4 twice) blocks of
    # one parent, next to a use of the whole parent.
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    blocks = [(0, 2), (2, 4), (1, 3), (2, 4)]
    probes = [rng.normal(size=(stop - start, 3)) for start, stop in blocks]
    whole = rng.normal(size=(5, 3))

    def loss():
        parent = x if leaf else x * w
        total = (parent * whole).sum()
        for (start, stop), probe in zip(blocks, probes):
            total = total + (parent.rows(start, stop) * probe).sum()
        return total

    assert_gradients_match(loss, {"x": x, "w": w})
    expected = whole.copy()
    for (start, stop), probe in zip(blocks, probes):
        expected[start:stop] += probe
    zero_grads([x, w])
    loss().backward()
    assert np.allclose(x.grad, expected if leaf else expected * w.data, rtol=1e-14)


def test_row_block_copies_a_handed_gradient_before_adding():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    a = x * 2.0
    out = a + a.rows(0, 4)   # ``+`` hands the seed as is to a, then to the block
    seed = rng.normal(size=(4, 2))
    out.backward(handed := seed.copy())
    assert np.array_equal(handed, seed)
    assert np.array_equal(x.grad, 2.0 * (seed + seed))


def test_row_block_is_a_view_without_a_copy():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    block = x.rows(1, 3)
    assert np.shares_memory(block.data, x.data) and block.shape == (2, 3)
    assert block.requires_grad and block._parents == (x,)
