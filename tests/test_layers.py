import numpy as np
import pytest

from gazekit import tensor as T
from gazekit.layers import (
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    channel_max,
    channel_mean,
    conv2d,
    conv_transpose2d,
    global_avg_pool,
    global_max_pool,
    init_uniform,
    linear,
)
from gazekit.tensor import DimensionError, Tape, Tensor, backward, finite_diff_check, sum_


def rng(seed=0):
    return np.random.default_rng(seed)


def make_conv(in_c, out_c, k, stride=1, pad=0, seed=0):
    return Conv2d(in_c, out_c, k, stride, pad, rng=rng(seed))


# ---------------------------------------------------------------------------
# conv2d oracle: six explicit loops over (batch, out-channel, oy, ox, in-channel, kernel)

def conv_oracle(x, w, b, stride, pad):
    bs, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, c, i * sh + u, j * sw + v] * w[o, c, u, v]
                    out[n, o, i, j] = acc + b[o]
    return out


def convt_oracle(x, w, b, stride, pad):
    """Naive transposed conv: scatter each input pixel through the kernel."""
    bs, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    oh = (h - 1) * sh - 2 * ph + kh
    ow = (wd - 1) * sw - 2 * pw + kw
    full = np.zeros((bs, cout, oh + 2 * ph, ow + 2 * pw))
    for n in range(bs):
        for c in range(cin):
            for i in range(h):
                for j in range(wd):
                    for o in range(cout):
                        for u in range(kh):
                            for v in range(kw):
                                full[n, o, i * sh + u, j * sw + v] += x[n, c, i, j] * w[c, o, u, v]
    out = full[:, :, ph : ph + oh, pw : pw + ow]
    return out + b[None, :, None, None]


def test_conv_one_by_one_scaling_kernel():
    layer = make_conv(1, 1, 1)
    layer.weight.data[:] = 2.0
    layer.bias.data[:] = 0.0
    out = conv2d(layer, Tensor(np.ones((1, 1, 2, 2))))
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 2.0))


def test_conv_window_sum():
    layer = make_conv(1, 1, 3)
    layer.weight.data[:] = 1.0
    layer.bias.data[:] = 0.0
    out = conv2d(layer, Tensor(np.ones((1, 1, 3, 3))))
    np.testing.assert_array_equal(out.data, [[[[9.0]]]])


@pytest.mark.parametrize(
    "kernel,stride,pad,hw",
    [
        (3, 1, 0, (8, 8)),
        (3, 2, 1, (8, 8)),
        (3, (2, 1), (0, 1), (8, 8)),
        # kernel == stride: the patches tile the input, or miss its last row and column
        (1, 1, 0, (8, 8)),
        (2, 2, 0, (8, 8)),
        ((3, 5), (3, 5), 0, (9, 10)),
        (3, 3, 0, (8, 8)),
    ],
    ids=["1-0", "2-1", "stride2-pad2", "1x1", "2x2s2", "3x5s3x5", "3x3s3-drops-edge"],
)
def test_conv_vs_six_loop_oracle(kernel, stride, pad, hw):
    layer = Conv2d(3, 4, kernel, stride, pad, rng=rng(3))
    layer.bias.data[:] = rng(4).normal(size=4)
    x = rng(5).normal(size=(2, 3, *hw))
    got = conv2d(layer, Tensor(x)).data
    want = conv_oracle(x, layer.weight.data, layer.bias.data, layer.stride, layer.padding)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_conv_channel_mismatch():
    layer = make_conv(3, 4, 3)
    with pytest.raises(DimensionError):
        conv2d(layer, Tensor(np.zeros((1, 2, 8, 8))))


@pytest.mark.parametrize("seed", range(10))
def test_conv_gradcheck(seed):
    # a padded stride-2 geometry and a tiled one (kernel == stride)
    for kernel, stride, pad, n in ((3, 2, 1, 5), (2, 2, 0, 4)):
        layer = Conv2d(2, 3, kernel, stride, pad, rng=rng(seed))
        x = Tensor(rng(seed + 50).normal(size=(2, 2, n, n)), requires_grad=True)

        def f(t):
            return sum_(T.sigmoid(conv2d(layer, t)))

        assert finite_diff_check(f, x) < 1e-5
        assert finite_diff_check(lambda _: sum_(T.sigmoid(conv2d(layer, x))), layer.weight) < 1e-5
        assert finite_diff_check(lambda _: sum_(T.sigmoid(conv2d(layer, x))), layer.bias) < 1e-5


# ---------------------------------------------------------------------------
# transposed convolution

def test_convt_single_pixel_spread():
    layer = ConvTranspose2d(1, 1, 2, 2, rng=rng(0))
    layer.weight.data[:] = 1.0
    layer.bias.data[:] = 0.0
    out = conv_transpose2d(layer, Tensor(np.full((1, 1, 1, 1), 3.0)))
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 3.0))


def test_convt_mirrors_conv_shape():
    down = Conv2d(3, 5, 4, 2, 1, rng=rng(1))
    up = ConvTranspose2d(5, 3, 4, 2, 1, rng=rng(2))
    x = Tensor(rng(3).normal(size=(1, 3, 8, 8)))
    y = conv2d(down, x)
    assert y.shape == (1, 5, 4, 4)
    z = conv_transpose2d(up, y)
    assert z.shape == x.shape


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0), (2, 1), ((3, 5), 0)])
def test_convt_vs_naive_scatter_oracle(stride, pad):
    layer = ConvTranspose2d(3, 2, (3, 5) if stride == (3, 5) else 3, stride, pad, rng=rng(6))
    layer.bias.data[:] = rng(7).normal(size=2)
    x = rng(8).normal(size=(2, 3, 4, 4))
    got = conv_transpose2d(layer, Tensor(x)).data
    want = convt_oracle(x, layer.weight.data, layer.bias.data, layer.stride, layer.padding)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "kernel,stride,pad,n",
    [(1, 1, 0, 5), (2, 2, 0, 6), (3, 2, 1, 5), (7, 1, 3, 5)],
    ids=["1x1", "2x2s2", "3x3s2p1", "7x7p3"],
)
def test_convt_is_adjoint_of_conv(kernel, stride, pad, n):
    # <conv(z), x> differentiated in z is exactly the transposed conv of x
    conv = Conv2d(2, 3, kernel, stride, pad, rng=rng(9))
    conv.bias.data[:] = 0.0
    x = rng(10).normal(size=(2, 3, *conv.out_extents(n, n)))
    z = Tensor(rng(11).normal(size=(2, 2, n, n)), requires_grad=True)
    with Tape():
        y = conv2d(conv, z)
        loss = sum_(T.mul(y, Tensor(x)))
        backward(loss)
    # conv weight (out,in,kh,kw) is read as convT weight (in,out,kh,kw) directly
    up = ConvTranspose2d(3, 2, kernel, stride, pad, rng=rng(12))
    up.weight.data = conv.weight.data.copy()
    up.bias.data[:] = 0.0
    want = conv_transpose2d(up, Tensor(x)).data
    np.testing.assert_allclose(z.grad, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_convt_gradcheck(seed):
    layer = ConvTranspose2d(2, 2, 2, 2, rng=rng(seed))
    x = Tensor(rng(seed + 70).normal(size=(1, 2, 3, 3)), requires_grad=True)
    assert finite_diff_check(lambda t: sum_(T.sigmoid(conv_transpose2d(layer, t))), x) < 1e-5
    assert finite_diff_check(lambda _: sum_(T.sigmoid(conv_transpose2d(layer, x))), layer.weight) < 1e-5


# ---------------------------------------------------------------------------
# pooling

def test_global_pools_small_example():
    x = Tensor(np.array([[[[1.0, 3.0], [5.0, 7.0]]]]))
    assert global_avg_pool(x).data[0, 0, 0, 0] == 4.0
    assert global_max_pool(x).data[0, 0, 0, 0] == 7.0


def test_pool_constant_input():
    x = Tensor(np.full((2, 3, 4, 4), 2.5))
    np.testing.assert_array_equal(global_avg_pool(x).data, np.full((2, 3, 1, 1), 2.5))
    np.testing.assert_array_equal(global_max_pool(x).data, np.full((2, 3, 1, 1), 2.5))


def test_channel_mean_max_example():
    x = np.zeros((1, 2, 1, 1))
    x[0, 0], x[0, 1] = 2.0, 4.0
    t = Tensor(x)
    assert channel_mean(t).data[0, 0, 0, 0] == 3.0
    assert channel_max(t).data[0, 0, 0, 0] == 4.0


def test_channel_reductions_single_channel_identity():
    x = Tensor(rng(13).normal(size=(2, 1, 3, 3)))
    np.testing.assert_array_equal(channel_mean(x).data, x.data)
    np.testing.assert_array_equal(channel_max(x).data, x.data)


def test_channel_reductions_vs_per_pixel_loop():
    x = rng(14).normal(size=(2, 5, 3, 4))
    mean_want = np.zeros((2, 1, 3, 4))
    max_want = np.zeros((2, 1, 3, 4))
    for n in range(2):
        for i in range(3):
            for j in range(4):
                mean_want[n, 0, i, j] = x[n, :, i, j].mean()
                max_want[n, 0, i, j] = x[n, :, i, j].max()
    np.testing.assert_allclose(channel_mean(Tensor(x)).data, mean_want, atol=1e-12)
    np.testing.assert_array_equal(channel_max(Tensor(x)).data, max_want)


@pytest.mark.parametrize("seed", range(10))
def test_pooling_gradcheck(seed):
    x = Tensor(rng(seed + 200).normal(size=(1, 3, 3, 3)), requires_grad=True)
    for fn in (global_avg_pool, global_max_pool, channel_mean, channel_max):
        assert finite_diff_check(lambda t: sum_(T.sigmoid(fn(t))), x) < 1e-5


# ---------------------------------------------------------------------------
# linear

def test_linear_identity():
    layer = Linear(3, 3, rng=rng(15))
    layer.weight.data = np.eye(3)
    layer.bias.data[:] = 0.0
    x = rng(16).normal(size=(2, 3))
    np.testing.assert_array_equal(linear(layer, Tensor(x)).data, x)


def test_linear_row_sums():
    layer = Linear(4, 2, rng=rng(17))
    layer.weight.data[:] = 1.0
    layer.bias.data[:] = 0.0
    x = rng(18).normal(size=(3, 4))
    np.testing.assert_allclose(linear(layer, Tensor(x)).data, np.tile(x.sum(1, keepdims=True), (1, 2)), atol=1e-12)


def test_linear_vs_matmul_oracle():
    layer = Linear(5, 3, rng=rng(19))
    layer.bias.data[:] = rng(20).normal(size=3)
    x = rng(21).normal(size=(4, 5))
    want = x @ layer.weight.data.T + layer.bias.data
    np.testing.assert_allclose(linear(layer, Tensor(x)).data, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_linear_gradcheck(seed):
    layer = Linear(4, 3, rng=rng(seed))
    x = Tensor(rng(seed + 90).normal(size=(2, 4)), requires_grad=True)
    assert finite_diff_check(lambda t: sum_(T.sigmoid(linear(layer, t))), x) < 1e-5
    assert finite_diff_check(lambda _: sum_(T.sigmoid(linear(layer, x))), layer.weight) < 1e-5
    assert finite_diff_check(lambda _: sum_(T.sigmoid(linear(layer, x))), layer.bias) < 1e-5


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic_per_seed():
    a = Conv2d(3, 4, 3, rng=rng(42))
    b = Conv2d(3, 4, 3, rng=rng(42))
    assert np.array_equal(a.weight.data, b.weight.data)
    np.testing.assert_array_equal(a.bias.data, np.zeros(4))


def test_init_bounds():
    w = init_uniform(rng(1), (64, 27), 27)
    assert np.all(np.abs(w.data) <= np.sqrt(1.0 / 27))


def test_init_mean_statistics():
    n = 10_000
    w = init_uniform(rng(2), (n,), 16).data
    bound = np.sqrt(1.0 / 16)
    sigma = bound / np.sqrt(3.0)
    assert abs(w.mean()) < 3.0 * sigma / np.sqrt(n)


def test_module_named_parameters_are_ordered_and_unique():
    class Block(Module):
        def __init__(self):
            self.a = Linear(2, 2, rng=rng(0))
            self.items = [Linear(2, 2, rng=rng(1)), Linear(2, 2, rng=rng(2))]

    names = [n for n, _ in Block().named_parameters()]
    assert names == ["a.weight", "a.bias", "items.0.weight", "items.0.bias", "items.1.weight", "items.1.bias"]
