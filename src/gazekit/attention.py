"""Attention blocks: channel/spatial reweighting (CBAM), a non-local block
whose similarity is a Gaussian kernel over pairwise feature distances, and the
cascaded multi-round group attention that combines the two.

All blocks preserve input shape and take only their input. While a
:func:`recorded_maps` context is open, every block that computes a map
(channel gate, spatial gate, non-local attention rows) notes a copy of it in
the context's dict, keyed by the block object itself, so export tools look
maps up by block (``maps[cascade.steps[-1][0].nonlocal_]``) and nothing is
named at construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from .layers import (
    Conv2d,
    Linear,
    Module,
    channel_max,
    channel_mean,
    global_avg_pool,
    global_max_pool,
)
from .tensor import (
    ConfigError,
    DimensionError,
    Tensor,
    UsageError,
    add,
    apply_op,
    concat,
    div,
    exp,
    group_split,
    matmul,
    mul,
    neg,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sum_,
    transpose,
)


_recording: Optional[dict] = None  # the open recorded_maps() dict, if any


@contextmanager
def recorded_maps() -> Iterator[dict]:
    """Collect the maps attention blocks compute while open, as {block: array}.

    One recorder is active at a time, like a tape: nesting raises
    :class:`UsageError`. Recording stops when the context closes, also when
    its body raises.
    """
    global _recording
    if _recording is not None:
        raise UsageError("attention maps are already being recorded; recorders do not nest")
    _recording = {}
    try:
        yield _recording
    finally:
        _recording = None


def _record(block: Module, data: np.ndarray) -> None:
    if _recording is not None:
        _recording[block] = np.array(data)


# ---------------------------------------------------------------------------
# Gaussian kernel similarity

def gaussian_similarity(q: Tensor, kv: Tensor, sigma: Tensor) -> Tensor:
    """exp(-||q - kv||^2 / (2 sigma^2)) for two equal-length vectors.

    Symmetric in its arguments, equals 1 exactly when q == kv, and decays
    monotonically with distance.
    """
    if q.data.shape != kv.data.shape:
        raise DimensionError(f"similarity inputs differ in shape: {q.data.shape} vs {kv.data.shape}")
    if float(sigma.data) <= 0:
        raise ConfigError("sigma must be positive")
    d = q - kv
    sq = sum_(mul(d, d))
    return exp(neg(div(sq, scale(mul(sigma, sigma), 2.0))))


def pairwise_sqdist(q: Tensor, k: Tensor) -> Tensor:
    """Squared distances between all row pairs: (b,P,c) x (b,Q,c) -> (b,P,Q).

    Uses the ||q||^2 + ||k||^2 - 2 q.k expansion; results are clamped at zero
    because rounding in the expansion can produce tiny negative values.
    """
    qd, kd = q.data, k.data
    if qd.ndim != 3 or kd.ndim != 3 or qd.shape[0] != kd.shape[0] or qd.shape[2] != kd.shape[2]:
        raise DimensionError(f"pairwise_sqdist expects (b,P,c)/(b,Q,c), got {qd.shape} vs {kd.shape}")
    qq = (qd * qd).sum(axis=2)[:, :, None]
    kk = (kd * kd).sum(axis=2)[:, None, :]
    raw = qq + kk - 2.0 * np.matmul(qd, kd.swapaxes(1, 2))
    # rounding in the expansion leaves +/- ulp residue on identical rows;
    # force those to exactly zero so self-similarity is exactly 1
    equal_rows = np.all(qd[:, :, None, :] == kd[:, None, :, :], axis=3)
    out = np.maximum(raw, 0.0)
    out[equal_rows] = 0.0
    mask = out > 0.0

    def back(g):
        gm = g * mask
        dq = 2.0 * (gm.sum(axis=2)[:, :, None] * qd - np.matmul(gm, kd))
        dk = 2.0 * (gm.sum(axis=1)[:, :, None] * kd - np.matmul(gm.swapaxes(1, 2), qd))
        return dq, dk

    return apply_op((q, k), out, back)


def gaussian_attention_matrix(f_q: Tensor, f_k: Tensor, sigma: Tensor) -> Tensor:
    """Attention weights A[(i,j),(m,n)] = exp(-||q_ij - k_mn||^2 / 2 sigma^2).

    f_q, f_k are (b, c, h, w) feature maps sharing the channel count; the
    output is (b, h_q*w_q, h_k*w_k) with entries in (0, 1].
    """
    if float(sigma.data) <= 0:
        raise ConfigError("sigma must be positive")
    if f_q.data.shape[1] != f_k.data.shape[1]:
        raise DimensionError("query/key channel counts differ")
    b, c, hq, wq = f_q.data.shape
    hk, wk = f_k.data.shape[2], f_k.data.shape[3]
    qrows = transpose(reshape(f_q, (b, c, hq * wq)), (0, 2, 1))
    krows = transpose(reshape(f_k, (b, c, hk * wk)), (0, 2, 1))
    dist = pairwise_sqdist(qrows, krows)
    return exp(neg(div(dist, scale(mul(sigma, sigma), 2.0))))


# ---------------------------------------------------------------------------
# CBAM

class ChannelAttention(Module):
    """sigmoid(MLP(avgpool F) + MLP(maxpool F)), one weight per channel.

    The two pooling paths share the MLP. Hidden width is channels / ratio
    (at least 1)."""

    def __init__(self, channels: int, ratio: int = 4, rng: Optional[np.random.Generator] = None):
        hidden = max(1, channels // ratio)
        self.channels = channels
        self.fc1 = Linear(channels, hidden, rng=rng)
        self.fc2 = Linear(hidden, channels, rng=rng)

    def _mlp(self, pooled: Tensor) -> Tensor:
        b, c = pooled.data.shape[0], pooled.data.shape[1]
        flat = reshape(pooled, (b, c))
        return self.fc2(relu(self.fc1(flat)))

    def __call__(self, x: Tensor) -> Tensor:
        b, c = x.data.shape[0], x.data.shape[1]
        logits = add(self._mlp(global_avg_pool(x)), self._mlp(global_max_pool(x)))
        gate = reshape(sigmoid(logits), (b, c, 1, 1))
        _record(self, gate.data)
        return gate


SPATIAL_KERNEL = 7  # the CBAM paper's spatial-gate kernel


class SpatialAttention(Module):
    """sigmoid(conv7x7(cat(mean_c F, max_c F))): one weight per spatial site."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.conv = Conv2d(2, 1, SPATIAL_KERNEL, stride=1, padding=SPATIAL_KERNEL // 2, rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        stacked = concat([channel_mean(x), channel_max(x)], 1)
        gate = sigmoid(self.conv(stacked))
        _record(self, gate.data)
        return gate


class Cbam(Module):
    """Channel-then-spatial gating; output shape equals input shape."""

    def __init__(self, channels: int, ratio: int = 4, rng: Optional[np.random.Generator] = None):
        self.channel = ChannelAttention(channels, ratio, rng=rng)
        self.spatial = SpatialAttention(rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        refined = mul(x, self.channel(x))
        return mul(refined, self.spatial(refined))


# ---------------------------------------------------------------------------
# Gaussian non-local block

class GaussianNonLocal(Module):
    """Non-local attention with Gaussian-kernel similarity and residual output.

    1x1 convs produce queries/keys (channels/2 wide) and values (full width);
    softmax over key positions turns each query row into a distribution.
    """

    def __init__(
        self,
        channels: int,
        sigma: float = 1.0,
        learnable_sigma: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if sigma <= 0:
            raise ConfigError("sigma must be positive")
        inner = max(1, channels // 2)
        self.channels = channels
        self.conv_q = Conv2d(channels, inner, 1, rng=rng)
        self.conv_k = Conv2d(channels, inner, 1, rng=rng)
        self.conv_v = Conv2d(channels, channels, 1, rng=rng)
        self.sigma = Tensor(np.asarray(float(sigma)), requires_grad=learnable_sigma)

    def __call__(self, x: Tensor) -> Tensor:
        b, c, h, w = x.data.shape
        if c != self.channels:
            raise DimensionError(f"expected {self.channels} channels, got {c}")
        weights = gaussian_attention_matrix(self.conv_q(x), self.conv_k(x), self.sigma)
        rows = softmax(weights, axis=2)
        _record(self, rows.data)
        values = transpose(reshape(self.conv_v(x), (b, c, h * w)), (0, 2, 1))
        attended = transpose(matmul(rows, values), (0, 2, 1))
        return add(x, reshape(attended, (b, c, h, w)))


# ---------------------------------------------------------------------------
# cascaded group attention

class GroupStep(Module):
    """One group's slice of a round: conv_sub, CBAM + Gaussian non-local over
    the (possibly state-concatenated) input, then a tail conv back to d."""

    def __init__(self, d: int, first: bool, sigma: float, learnable_sigma: bool, ratio: int, rng):
        width = d if first else 2 * d
        self.first = first
        self.conv_sub = Conv2d(d, d, 1, rng=rng)
        self.cbam = Cbam(width, ratio, rng=rng)
        self.nonlocal_ = GaussianNonLocal(width, sigma, learnable_sigma, rng=rng)
        self.conv_tail = Conv2d(2 * width, d, 1, rng=rng)

    def __call__(self, x_sub: Tensor, z_prev: Optional[Tensor]) -> Tensor:
        """Run the group on its conv_sub output and the previous group's state."""
        if self.first != (z_prev is None):
            raise UsageError("z_prev must be given exactly for groups after the first")
        t = x_sub if z_prev is None else concat([z_prev, x_sub], 1)
        return self.conv_tail(concat([self.cbam(t), self.nonlocal_(t)], 1))


class CascadeAttention(Module):
    """Multi-round grouped attention over channel groups.

    Each round splits the input into ``groups`` channel groups; group i sees
    its conv_sub output concatenated with the previous group's state, runs
    CBAM and the Gaussian non-local block in parallel, and compresses back to
    the group width. Round outputs are concatenated and fused with the round
    input to seed the next round. Every group and round owns its own
    parameters. The final round's concatenated output (same channel count as
    the input) is the block output.
    """

    def __init__(
        self,
        channels: int,
        groups: int,
        rounds: int,
        sigma: float = 1.0,
        learnable_sigma: bool = False,
        ratio: int = 4,
        rng: Optional[np.random.Generator] = None,
    ):
        if groups < 1 or channels % groups != 0:
            raise ConfigError(f"channels {channels} not divisible by groups {groups}")
        if rounds < 1:
            raise ConfigError("rounds must be >= 1")
        d = channels // groups
        self.channels = channels
        self.groups = groups
        self.rounds = rounds
        self.steps = [
            [GroupStep(d, i == 0, sigma, learnable_sigma, ratio, rng) for i in range(groups)]
            for _ in range(rounds)
        ]
        self.fusions = [Conv2d(2 * channels, channels, 1, rng=rng) for _ in range(rounds - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.channels:
            raise DimensionError(f"expected (b,{self.channels},h,w), got {x.data.shape}")
        current = x
        z_all = None
        for j in range(self.rounds):
            if j > 0:
                current = self.fusions[j - 1](concat([z_all, current], 1))
            z = None
            zs = []
            for step, part in zip(self.steps[j], group_split(current, self.groups)):
                z = step(step.conv_sub(part), z)
                zs.append(z)
            z_all = concat(zs, 1)
        return z_all
