import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazekit import tensor as T
from gazekit.tensor import (
    DimensionError,
    NumericsError,
    Tape,
    Tensor,
    UsageError,
    backward,
    concat,
    finite_diff_check,
    group_split,
    matmul,
    max_axis,
    mean_,
    mul,
    sigmoid,
    softmax,
    sum_,
)


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


# ---------------------------------------------------------------------------
# elementwise

def test_mul_example():
    out = mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [3.0, 8.0])


def test_sigmoid_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_add_identity():
    x = Tensor(rand((3, 4), 1))
    out = T.add(x, Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out.data, x.data)


def test_sigmoid_extreme_inputs_are_exact_and_finite():
    out = sigmoid(Tensor([1e9, -1e9])).data
    assert out[0] == 1.0 and out[1] == 0.0


def test_broadcast_requires_extent_one():
    a = Tensor(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        T.add(a, Tensor(np.ones((2, 2))))
    with pytest.raises(DimensionError):
        T.add(a, Tensor(np.ones(3)))  # rank mismatch (non-scalar)
    # extent-1 axes and rank-0 scalars are fine
    assert T.add(a, Tensor(np.ones((1, 3)))).shape == (2, 3)
    assert T.add(a, Tensor(np.asarray(2.0))).data[0, 0] == 3.0


# ---------------------------------------------------------------------------
# matmul

def matmul_oracle(a, b):
    m, p = a.shape
    p2, q = b.shape
    out = np.zeros((m, q))
    for i in range(m):
        for j in range(q):
            acc = 0.0
            for k in range(p):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    ident = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(ident, b).data, b.data)


def test_matmul_ones_sum():
    out = matmul(Tensor([[1.0, 1.0]]), Tensor([[1.0], [1.0]]))
    assert out.data[0, 0] == 2.0


def test_matmul_vs_triple_loop():
    a = rand((3, 4), 7)
    b = rand((4, 2), 8)
    got = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=0, atol=1e-12)


def test_matmul_inner_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_batched_matches_per_sample():
    a = rand((4, 3, 5), 1)
    b = rand((4, 5, 2), 2)
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(4):
        np.testing.assert_array_equal(got[i], np.matmul(a[i], b[i]))


# ---------------------------------------------------------------------------
# softmax

def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0]), 0).data, [0.5, 0.5])


def test_softmax_forced_ratio():
    out = softmax(Tensor([0.0, np.log(2.0)]), 0).data
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]), 0).data
    np.testing.assert_allclose(out, [0.5, 0.5])
    assert np.all(np.isfinite(out))


# logit gaps beyond ~36 make the max entry round to exactly 1.0, so the
# open-interval membership is only observable at moderate magnitudes
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-15, 15), min_size=2, max_size=8), st.floats(-30, 30))
def test_softmax_rows_sum_to_one_and_shift_invariant(vals, c):
    x = np.asarray(vals)
    out = softmax(Tensor(x), 0).data
    assert abs(out.sum() - 1.0) < 1e-6
    assert np.all(out > 0) and np.all(out < 1)
    shifted = softmax(Tensor(x + c), 0).data
    np.testing.assert_allclose(shifted, out, atol=1e-12)


# ---------------------------------------------------------------------------
# concat / group_split

def test_concat_shape_propagation():
    a = Tensor(np.zeros((1, 2, 4, 4)))
    b = Tensor(np.zeros((1, 3, 4, 4)))
    assert concat([a, b], 1).shape == (1, 5, 4, 4)


def test_concat_single_identity():
    x = Tensor(rand((2, 3), 3))
    np.testing.assert_array_equal(concat([x], 0).data, x.data)


def test_concat_off_axis_mismatch():
    with pytest.raises(DimensionError):
        concat([Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 4)))], 1)


def test_group_split_counts():
    x = Tensor(rand((1, 8, 2, 2), 4))
    parts = group_split(x, 4)
    assert len(parts) == 4
    assert all(p.shape == (1, 2, 2, 2) for p in parts)


def test_group_split_identity():
    x = Tensor(rand((1, 6, 2, 2), 5))
    (only,) = group_split(x, 1)
    np.testing.assert_array_equal(only.data, x.data)


def test_group_split_indivisible():
    with pytest.raises(T.ConfigError):
        group_split(Tensor(np.zeros((1, 7, 2, 2))), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_split_concat_roundtrip_bitwise(n, seed):
    x = Tensor(rand((2, 4 * n, 3, 3), seed))
    back_together = concat(group_split(x, n), 1)
    assert np.array_equal(back_together.data, x.data)


# ---------------------------------------------------------------------------
# backward

def test_backward_sum_gives_ones():
    x = Tensor(rand((2, 2), 6), requires_grad=True)
    with Tape():
        loss = sum_(x)
        backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_backward_square_gives_two_x():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = sum_(mul(x, x))
        backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(rand((2, 2), 1), requires_grad=True)
    with Tape():
        y = mul(x, x)
        with pytest.raises(UsageError):
            backward(y)


def test_backward_twice_is_an_error():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = sum_(mul(x, x))
        backward(loss)
        with pytest.raises(UsageError):
            backward(loss)


def test_record_after_backward_is_an_error():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = sum_(x)
        backward(loss)
        with pytest.raises(UsageError):
            sum_(x)


def test_unreachable_tensors_get_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape():
        dead = mul(y, y)  # recorded, but not part of the loss
        loss = sum_(mul(x, x))
        backward(loss)
    assert dead is not None
    np.testing.assert_array_equal(y.grad, [0.0])


def test_tape_is_topologically_ordered():
    x = Tensor(rand((3,), 2), requires_grad=True)
    with Tape() as tape:
        y = sigmoid(x)
        z = mul(y, x)
        loss = sum_(z)
    seen = {id(x)}
    for inputs, out, _ in tape.entries:
        for t in inputs:
            assert id(t) in seen or not t.requires_grad
        seen.add(id(out))
    backward(loss)


def test_backward_releases_the_tape():
    # with the cyclic collector off, only reference counting can free the
    # tape and the step's activations; Tensor takes no weakrefs, so the
    # intermediate output's buffer stands for it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = Tensor(rand((3,), 4), requires_grad=True)
        with Tape() as tape:
            y = sigmoid(x)
            loss = sum_(mul(y, x))
        tape_ref, y_ref = weakref.ref(tape), weakref.ref(y.data)
        backward(loss)
        assert len(tape) == 0
        assert y.grad is not None
        del tape, y, loss
        assert tape_ref() is None
        assert y_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_grad_accumulates_across_backward_calls():
    x = Tensor([2.0], requires_grad=True)
    for _ in range(2):
        with Tape():
            loss = sum_(mul(x, x))
            backward(loss)
    np.testing.assert_array_equal(x.grad, [8.0])


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)
    assert not y.requires_grad
    with pytest.raises(UsageError):
        backward(y)


# ---------------------------------------------------------------------------
# reductions

def test_max_axis_routes_to_first_argmax():
    x = Tensor(np.array([[1.0, 5.0, 5.0, 2.0]]), requires_grad=True)
    with Tape():
        loss = sum_(max_axis(x, 1))
        backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])


def test_mean_matches_numpy():
    x = rand((2, 3, 4), 9)
    got = mean_(Tensor(x), axis=(1, 2), keepdims=True).data
    np.testing.assert_allclose(got, x.mean(axis=(1, 2), keepdims=True), atol=1e-15)


# ---------------------------------------------------------------------------
# finite differences

def test_finite_diff_sigmoid_sum():
    x = Tensor(rand((3, 3), 11), requires_grad=True)
    err = finite_diff_check(lambda t: sum_(sigmoid(t)), x)
    assert err < 1e-6


def test_finite_diff_softmax_sum_is_constant():
    x = Tensor(rand((5,), 12), requires_grad=True)
    with Tape():
        loss = sum_(softmax(x, 0))
        backward(loss)
    assert np.max(np.abs(x.grad)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_finite_diff_composite_graph(seed):
    x = Tensor(rand((2, 4), seed, 0.8), requires_grad=True)
    w = Tensor(rand((4, 3), seed + 100))

    def f(t):
        h = sigmoid(matmul(t, w))
        return sum_(mul(h, h))

    assert finite_diff_check(f, x) < 1e-5


def test_finite_diff_through_max_and_concat():
    x = Tensor(rand((2, 6), 21), requires_grad=True)

    def f(t):
        parts = [T.slice_axis(t, 1, 0, 3), T.slice_axis(t, 1, 3, 6)]
        joined = concat(parts, 1)
        return sum_(max_axis(joined, 1)) + sum_(T.absolute(t)) * 0.25

    assert finite_diff_check(f, x) < 1e-5


def test_finite_diff_requires_grad():
    x = Tensor([1.0])
    with pytest.raises(UsageError):
        finite_diff_check(lambda t: sum_(t), x)


# ---------------------------------------------------------------------------
# debug mode

def test_debug_checks_flag_non_finite():
    T.set_debug_checks(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            T.exp(Tensor([1e9]))  # overflows to inf
    finally:
        T.set_debug_checks(False)


def test_operator_sugar():
    x = Tensor([1.0, 2.0])
    y = Tensor([3.0, 4.0])
    np.testing.assert_array_equal((x + y).data, [4.0, 6.0])
    np.testing.assert_array_equal((x - y).data, [-2.0, -2.0])
    np.testing.assert_array_equal((x * 2.0).data, [2.0, 4.0])
    np.testing.assert_array_equal((1.0 - x).data, [0.0, -1.0])
    np.testing.assert_array_equal((x / y).data, [1.0 / 3.0, 0.5])
