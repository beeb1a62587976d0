import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazekit import tensor as T
from gazekit.attention import (
    CascadeAttention,
    Cbam,
    ChannelAttention,
    GaussianNonLocal,
    SpatialAttention,
    gaussian_attention_matrix,
    gaussian_similarity,
    pairwise_sqdist,
    recorded_maps,
)
from gazekit.tensor import ConfigError, DimensionError, Tensor, UsageError, concat, finite_diff_check, group_split, sum_


def rng(seed=0):
    return np.random.default_rng(seed)


def sigma_t(v=1.0, learnable=False):
    return Tensor(np.asarray(v), requires_grad=learnable)


def sat(x):
    """Push a bias so far that the following sigmoid saturates to exactly 1."""
    x.data[:] = 1e9


# ---------------------------------------------------------------------------
# channel attention

def test_channel_attention_zero_weights_gives_half():
    ca = ChannelAttention(4, rng=rng(0))
    for p in (ca.fc1.weight, ca.fc1.bias, ca.fc2.weight, ca.fc2.bias):
        p.data[:] = 0.0
    out = ca(Tensor(rng(1).normal(size=(2, 4, 3, 3))))
    np.testing.assert_array_equal(out.data, np.full((2, 4, 1, 1), 0.5))
    assert out.shape == (2, 4, 1, 1)


def test_channel_attention_constant_input_merges_paths():
    ca = ChannelAttention(3, rng=rng(2))
    x = Tensor(np.full((1, 3, 4, 4), 0.7))
    got = ca(x).data[0, :, 0, 0]
    # avg pool == max pool on a constant input, so the gate is sigmoid(2 * MLP(const))
    pooled = np.full((1, 3), 0.7)
    h = np.maximum(pooled @ ca.fc1.weight.data.T + ca.fc1.bias.data, 0.0)
    m = h @ ca.fc2.weight.data.T + ca.fc2.bias.data
    want = 1.0 / (1.0 + np.exp(-2.0 * m[0]))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_channel_attention_vs_scalar_oracle():
    ca = ChannelAttention(2, ratio=1, rng=rng(3))
    x = rng(4).normal(size=(1, 2, 2, 2))

    def mlp(vec):
        h = [max(0.0, sum(ca.fc1.weight.data[j, i] * vec[i] for i in range(2)) + ca.fc1.bias.data[j]) for j in range(2)]
        return [sum(ca.fc2.weight.data[j, i] * h[i] for i in range(2)) + ca.fc2.bias.data[j] for j in range(2)]

    avg = [x[0, c].mean() for c in range(2)]
    mx = [x[0, c].max() for c in range(2)]
    logits = [a + b for a, b in zip(mlp(avg), mlp(mx))]
    want = [1.0 / (1.0 + np.exp(-v)) for v in logits]
    got = ca(Tensor(x)).data[0, :, 0, 0]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.all(got > 0) and np.all(got < 1)


# ---------------------------------------------------------------------------
# spatial attention

def test_spatial_attention_zero_weights_gives_half():
    sa = SpatialAttention(rng=rng(5))
    sa.conv.weight.data[:] = 0.0
    sa.conv.bias.data[:] = 0.0
    out = sa(Tensor(rng(6).normal(size=(1, 8, 5, 5))))
    np.testing.assert_array_equal(out.data, np.full((1, 1, 5, 5), 0.5))


def test_spatial_attention_shape_contract():
    sa = SpatialAttention(rng=rng(7))
    assert sa(Tensor(rng(8).normal(size=(1, 8, 5, 5)))).shape == (1, 1, 5, 5)


def test_spatial_attention_vs_scalar_oracle():
    sa = SpatialAttention(rng=rng(9))
    x = rng(10).normal(size=(1, 2, 3, 3))
    mean_map = x.mean(axis=1)[0]
    max_map = x.max(axis=1)[0]
    stacked = np.stack([mean_map, max_map])  # (2, 3, 3)
    padded = np.pad(stacked, ((0, 0), (3, 3), (3, 3)))
    w = sa.conv.weight.data[0]
    want = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = sa.conv.bias.data[0]
            for c in range(2):
                for u in range(7):
                    for v in range(7):
                        acc += padded[c, i + u, j + v] * w[c, u, v]
            want[i, j] = 1.0 / (1.0 + np.exp(-acc))
    got = sa(Tensor(x)).data[0, 0]
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# CBAM

def saturate_cbam(block):
    sat(block.channel.fc2.bias)
    block.channel.fc2.weight.data[:] = 0.0
    block.spatial.conv.weight.data[:] = 0.0
    sat(block.spatial.conv.bias)


def test_cbam_identity_when_gates_saturate():
    block = Cbam(4, rng=rng(11))
    saturate_cbam(block)
    x = rng(12).normal(size=(2, 4, 3, 3))
    np.testing.assert_array_equal(block(Tensor(x)).data, x)


def test_cbam_is_a_contraction():
    block = Cbam(4, rng=rng(13))
    x = rng(14).normal(size=(2, 4, 5, 5))
    out = block(Tensor(x)).data
    assert np.all(np.abs(out) <= np.abs(x))
    assert out.shape == x.shape


def test_cbam_composes_verified_parts():
    block = Cbam(3, rng=rng(15))
    x = Tensor(rng(16).normal(size=(1, 3, 4, 4)))
    gate_c = block.channel(x)
    refined = x.data * gate_c.data
    gate_s = block.spatial(Tensor(refined))
    want = refined * gate_s.data
    np.testing.assert_allclose(block(x).data, want, atol=1e-12)


def test_cbam_reports_maps():
    block = Cbam(4, rng=rng(17))
    with recorded_maps() as maps:
        block(Tensor(rng(18).normal(size=(1, 4, 3, 3))))
    assert set(maps) == {block.channel, block.spatial}
    assert maps[block.spatial].shape == (1, 1, 3, 3)


def test_recorded_maps_do_not_nest_and_close_on_error():
    block = GaussianNonLocal(4, rng=rng(17))
    x = Tensor(rng(18).normal(size=(1, 4, 3, 3)))
    with recorded_maps():
        with pytest.raises(UsageError):
            with recorded_maps():
                pass
    with pytest.raises(DimensionError):
        with recorded_maps() as maps:
            block(Tensor(np.zeros((1, 5, 3, 3))))
    assert maps == {}
    block(x)  # recording is off again, so nothing lands in the closed dict
    assert maps == {}
    with recorded_maps() as maps:
        block(x)
    assert list(maps) == [block]


def test_cascade_records_every_block_once():
    block = CascadeAttention(8, 2, 2, rng=rng(19))
    with recorded_maps() as maps:
        block(Tensor(rng(20).normal(size=(1, 8, 4, 4))))
    want = [b for row in block.steps for s in row for b in (s.cbam.channel, s.cbam.spatial, s.nonlocal_)]
    assert list(maps) == want


# ---------------------------------------------------------------------------
# Gaussian similarity

def test_similarity_of_identical_vectors_is_one():
    q = Tensor(rng(19).normal(size=7))
    out = gaussian_similarity(q, Tensor(q.data.copy()), sigma_t())
    assert out.item() == 1.0


def test_similarity_frozen_value():
    # ||q - kv||^2 = 2 at sigma 1 gives exp(-1)
    q = Tensor([1.0, 0.0, 1.0])
    kv = Tensor([0.0, 0.0, 0.0])
    out = gaussian_similarity(q, kv, sigma_t())
    np.testing.assert_allclose(out.item(), 0.36787944117144233, rtol=1e-15)


def test_similarity_large_sigma_limit():
    q = Tensor(rng(20).normal(size=5))
    kv = Tensor(rng(21).normal(size=5))
    out = gaussian_similarity(q, kv, sigma_t(1e6))
    assert abs(out.item() - 1.0) < 1e-10


def test_similarity_rejects_bad_sigma():
    q = Tensor([1.0])
    with pytest.raises(ConfigError):
        gaussian_similarity(q, q, sigma_t(0.0))


# exponents above ~-745 keep exp() clear of float64 underflow, which is what
# the strict positivity needs
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-4, 4), min_size=2, max_size=6),
    st.lists(st.floats(-4, 4), min_size=2, max_size=6),
    st.floats(0.6, 5.0),
)
def test_similarity_symmetric_and_bounded(a, b, sig):
    n = min(len(a), len(b))
    q, kv = Tensor(np.asarray(a[:n])), Tensor(np.asarray(b[:n]))
    s1 = gaussian_similarity(q, kv, sigma_t(sig)).item()
    s2 = gaussian_similarity(kv, q, sigma_t(sig)).item()
    assert s1 == s2
    assert 0.0 < s1 <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(1.1, 4.0), st.integers(0, 1000))
def test_similarity_strictly_decreasing_in_distance(t1, factor, seed):
    g = rng(seed)
    q = g.normal(size=4)
    u = g.normal(size=4)
    u /= np.linalg.norm(u)
    t2 = t1 * factor
    near = gaussian_similarity(Tensor(q), Tensor(q + t1 * u), sigma_t()).item()
    far = gaussian_similarity(Tensor(q), Tensor(q + t2 * u), sigma_t()).item()
    assert near > far


# ---------------------------------------------------------------------------
# attention matrix

def test_attention_matrix_diagonal_ones_when_q_equals_k():
    f = Tensor(rng(22).normal(size=(1, 2, 2, 2)))
    a = gaussian_attention_matrix(f, Tensor(f.data.copy()), sigma_t()).data[0]
    np.testing.assert_array_equal(np.diag(a), np.ones(4))
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    assert np.all(a > 0) and np.all(a <= 1)


def test_attention_matrix_vs_pairwise_brute_force():
    fq = rng(23).normal(size=(1, 2, 2, 2))
    fk = rng(24).normal(size=(1, 2, 2, 2))
    sig = 0.8
    got = gaussian_attention_matrix(Tensor(fq), Tensor(fk), sigma_t(sig)).data[0]
    want = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for n in range(2):
                    dq = fq[0, :, i, j] - fk[0, :, m, n]
                    want[i * 2 + j, m * 2 + n] = np.exp(-float(dq @ dq) / (2.0 * sig * sig))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_attention_matrix_rejects_bad_sigma():
    f = Tensor(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ConfigError):
        gaussian_attention_matrix(f, f, sigma_t(-1.0))


# ---------------------------------------------------------------------------
# Gaussian non-local block

def test_nonlocal_zero_value_path_is_residual_identity():
    block = GaussianNonLocal(4, rng=rng(25))
    block.conv_v.weight.data[:] = 0.0
    block.conv_v.bias.data[:] = 0.0
    x = rng(26).normal(size=(2, 4, 3, 3))
    np.testing.assert_array_equal(block(Tensor(x)).data, x)


def test_nonlocal_softmax_rows_sum_to_one():
    block = GaussianNonLocal(4, rng=rng(27))
    with recorded_maps() as maps:
        block(Tensor(rng(28).normal(size=(2, 4, 3, 3))))
    rows = maps[block]
    np.testing.assert_allclose(rows.sum(axis=2), np.ones((2, 9)), atol=1e-6)


def test_nonlocal_large_sigma_averages_values():
    block = GaussianNonLocal(4, sigma=1e6, rng=rng(29))
    x = rng(30).normal(size=(1, 4, 2, 3))
    with recorded_maps() as maps:
        out = block(Tensor(x)).data
    rows = maps[block]
    assert np.all(np.abs(rows - 1.0 / 6.0) < 1e-3)
    # explicit mean of the value rows, computed independently
    v = np.zeros((4, 6))
    wv, bv = block.conv_v.weight.data[:, :, 0, 0], block.conv_v.bias.data
    for p, (i, j) in enumerate([(i, j) for i in range(2) for j in range(3)]):
        v[:, p] = wv @ x[0, :, i, j] + bv
    want = x[0] + v.mean(axis=1)[:, None, None]
    np.testing.assert_allclose(out[0], want, atol=1e-6)


def test_nonlocal_preserves_shape():
    block = GaussianNonLocal(6, rng=rng(31))
    x = Tensor(rng(32).normal(size=(2, 6, 4, 5)))
    assert block(x).shape == (2, 6, 4, 5)


# ---------------------------------------------------------------------------
# cascaded attention

def test_cascade_group_step_shape_contract():
    block = CascadeAttention(8, 2, 1, rng=rng(33))
    x = Tensor(rng(34).normal(size=(2, 8, 4, 4)))
    parts = group_split(x, 2)
    x0 = block.steps[0][0].conv_sub(parts[0])
    z0 = block.steps[0][0](x0, None)
    assert z0.shape == (2, 4, 4, 4)
    x1 = block.steps[0][1].conv_sub(parts[1])
    z1 = block.steps[0][1](x1, z0)
    assert z1.shape == (2, 4, 4, 4)


def test_cascade_group_step_state_protocol():
    block = CascadeAttention(8, 2, 1, rng=rng(35))
    x = Tensor(rng(36).normal(size=(1, 4, 2, 2)))
    with pytest.raises(UsageError):
        block.steps[0][0](x, x)
    with pytest.raises(UsageError):
        block.steps[0][1](x, None)


def test_cascade_group_step_linear_degenerate():
    block = CascadeAttention(8, 2, 1, rng=rng(37))
    step = block.steps[0][0]
    saturate_cbam(step.cbam)
    step.nonlocal_.conv_v.weight.data[:] = 0.0
    step.nonlocal_.conv_v.bias.data[:] = 0.0
    # averaging projection: z = (a + b) / 2 channelwise
    step.conv_tail.weight.data[:] = 0.0
    for o in range(4):
        step.conv_tail.weight.data[o, o, 0, 0] = 0.5
        step.conv_tail.weight.data[o, o + 4, 0, 0] = 0.5
    step.conv_tail.bias.data[:] = 0.0
    x_sub = Tensor(rng(38).normal(size=(2, 4, 3, 3)))
    z = step(x_sub, None)
    np.testing.assert_allclose(z.data, x_sub.data, atol=1e-12)


def test_cascade_degenerate_config_equals_single_composition():
    block = CascadeAttention(6, 1, 1, rng=rng(39))
    x = Tensor(rng(40).normal(size=(2, 6, 3, 3)))
    got = block(x).data
    step = block.steps[0][0]
    x_sub = step.conv_sub(x)
    want = step.conv_tail(concat([step.cbam(x_sub), step.nonlocal_(x_sub)], 1)).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cascade_two_group_unrolled_oracle():
    block = CascadeAttention(8, 2, 2, rng=rng(41))
    x = Tensor(rng(42).normal(size=(1, 8, 4, 4)))
    got = block(x).data

    # straight-line transcription of the grouped/cascaded recurrence
    current = x
    z_all = None
    for j in range(2):
        if j > 0:
            current = block.fusions[j - 1](concat([z_all, current], 1))
        parts = group_split(current, 2)
        z_prev = None
        zs = []
        for i in range(2):
            step = block.steps[j][i]
            x_sub = step.conv_sub(parts[i])
            t = x_sub if z_prev is None else concat([z_prev, x_sub], 1)
            z_prev = step.conv_tail(concat([step.cbam(t), step.nonlocal_(t)], 1))
            zs.append(z_prev)
        z_all = concat(zs, 1)
    np.testing.assert_allclose(got, z_all.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("channels,groups", [(8, 2), (16, 4)])
def test_cascade_preserves_shape(channels, groups):
    block = CascadeAttention(channels, groups, 2, rng=rng(43))
    x = Tensor(rng(44).normal(size=(2, channels, 4, 4)))
    assert block(x).shape == x.shape


def test_cascade_rejects_indivisible_groups():
    with pytest.raises(ConfigError):
        CascadeAttention(6, 4, 1, rng=rng(45))


# ---------------------------------------------------------------------------
# gradient checks

@pytest.mark.parametrize("seed", range(10))
def test_attention_blocks_gradcheck(seed):
    g = rng(seed + 500)
    x = Tensor(g.normal(size=(1, 4, 3, 3)) * 0.9, requires_grad=True)

    blocks = {
        "cbam": Cbam(4, rng=rng(seed)),
        "nonlocal": GaussianNonLocal(4, sigma=0.9, learnable_sigma=True, rng=rng(seed + 1)),
    }
    for name, block in blocks.items():
        assert finite_diff_check(lambda t: sum_(T.sigmoid(block(t))), x) < 1e-5, name
        for pname, p in block.named_parameters():
            err = finite_diff_check(lambda _: sum_(T.sigmoid(block(x))), p)
            assert err < 1e-5, f"{name}.{pname}: {err}"


@pytest.mark.parametrize("seed", range(3))
def test_cascade_gradcheck(seed):
    block = CascadeAttention(4, 2, 2, sigma=1.1, rng=rng(seed + 60))
    x = Tensor(rng(seed + 61).normal(size=(1, 4, 3, 3)) * 0.8, requires_grad=True)
    assert finite_diff_check(lambda t: sum_(T.sigmoid(block(t))), x) < 1e-5
    for pname, p in block.named_parameters():
        err = finite_diff_check(lambda _: sum_(T.sigmoid(block(x))), p, max_coords=6, seed=seed)
        assert err < 1e-5, f"{pname}: {err}"


def test_pairwise_sqdist_gradcheck():
    q = Tensor(rng(70).normal(size=(1, 3, 2)), requires_grad=True)
    k = Tensor(rng(71).normal(size=(1, 4, 2)), requires_grad=True)
    assert finite_diff_check(lambda t: sum_(T.sigmoid(pairwise_sqdist(t, k))), q) < 1e-5
    assert finite_diff_check(lambda t: sum_(T.sigmoid(pairwise_sqdist(q, t))), k) < 1e-5
