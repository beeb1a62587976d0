"""Parameterized layers: 2-d convolution, transposed convolution, linear maps,
and the pooling reductions used by the attention blocks.

Convolution follows the cross-correlation convention (no kernel flip) and is
implemented as im2col + batched matmul; the transposed convolution is its
exact adjoint (col2im of the weight-projected input).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    DimensionError,
    Tensor,
    apply_op,
    max_axis,
    mean_,
    reshape,
)


class Module:
    """Minimal parameter container. Submodules and parameters are discovered
    from instance attributes in definition order, which makes parameter
    naming deterministic for checkpoints and optimizers."""

    @staticmethod
    def _walk(value, name: str) -> Iterator[tuple[str, Tensor]]:
        if isinstance(value, Tensor):
            yield name, value
        elif isinstance(value, Module):
            for key, child in vars(value).items():
                yield from Module._walk(child, f"{name}.{key}" if name else key)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield from Module._walk(item, f"{name}.{i}")

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """All held tensors, trainable or not, in deterministic order."""
        yield from Module._walk(self, "")

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, t in self.named_tensors():
            if t.requires_grad:
                yield name, t

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def cast(self, dtype) -> "Module":
        """Cast every held tensor (trainable or not) to ``dtype`` in place."""
        for _, t in self.named_tensors():
            t.data = t.data.astype(dtype)
        return self


def init_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    """Weight init: U(-b, b) with b = sqrt(1/fan_in). Deterministic per rng state."""
    bound = float(np.sqrt(1.0 / fan_in))
    data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(b,c,hp,wp) -> (b, c*kh*kw, oh*ow) patch matrix of the padded input."""
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    b, c, oh, ow = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)


def _col2im(cols: np.ndarray, b, c, hp, wp, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back onto a (b,c,hp,wp) canvas."""
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += patches[:, :, i, j]
    return out


class Conv2d(Module):
    """Cross-correlation with per-output-channel bias."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0, rng: Optional[np.random.Generator] = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = _pair(kernel)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = init_uniform(rng, (out_channels, in_channels, kh, kw), in_channels * kh * kw)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def out_extents(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise DimensionError(f"conv output extents {oh}x{ow} not positive for input {h}x{w}")
        return oh, ow

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(self, x)


def conv2d(layer: Conv2d, x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d expects b x c x h x w input, got {xd.shape}")
    b, c, h, w = xd.shape
    if c != layer.in_channels:
        raise DimensionError(f"conv2d expected {layer.in_channels} input channels, got {c}")
    kh, kw = layer.kernel
    sh, sw = layer.stride
    ph, pw = layer.padding
    oh, ow = layer.out_extents(h, w)
    pointwise = (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0)

    xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else xd
    if pointwise:
        cols = xd.reshape(b, c, h * w)  # pure view
    else:
        cols = _im2col(xp, kh, kw, sh, sw)  # (b, c*kh*kw, P)
    wflat = layer.weight.data.reshape(layer.out_channels, -1)
    out = np.matmul(wflat, cols)  # (b, out_c, P), already in output layout
    out = out.reshape(b, layer.out_channels, oh, ow)
    out += layer.bias.data[None, :, None, None]

    hp, wp = xp.shape[2], xp.shape[3]

    def back(g):
        g3 = g.reshape(b, layer.out_channels, oh * ow)
        db = g.sum(axis=(0, 2, 3))
        dw = np.tensordot(g3, cols, axes=([0, 2], [0, 2])).reshape(layer.weight.data.shape)
        dcols = np.matmul(wflat.T, g3)  # (b, c*kh*kw, P)
        if pointwise:
            return dcols.reshape(b, c, h, w), dw, db
        dxp = _col2im(dcols, b, c, hp, wp, kh, kw, sh, sw, oh, ow)
        dx = dxp[:, :, ph : hp - ph, pw : wp - pw] if (ph or pw) else dxp
        return dx, dw, db

    return apply_op((x, layer.weight, layer.bias), out, back)


class ConvTranspose2d(Module):
    """Adjoint of Conv2d: output extent (in-1)*stride - 2*padding + kernel."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0, rng: Optional[np.random.Generator] = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = _pair(kernel)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = init_uniform(rng, (in_channels, out_channels, kh, kw), in_channels * kh * kw)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def out_extents(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh = (h - 1) * sh - 2 * ph + kh
        ow = (w - 1) * sw - 2 * pw + kw
        if oh <= 0 or ow <= 0:
            raise DimensionError(f"conv_transpose output extents {oh}x{ow} not positive")
        return oh, ow

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose2d(self, x)


def conv_transpose2d(layer: ConvTranspose2d, x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv_transpose2d expects b x c x h x w input, got {xd.shape}")
    b, c, h, w = xd.shape
    if c != layer.in_channels:
        raise DimensionError(f"conv_transpose2d expected {layer.in_channels} input channels, got {c}")
    kh, kw = layer.kernel
    sh, sw = layer.stride
    ph, pw = layer.padding
    oh, ow = layer.out_extents(h, w)
    hp, wp = oh + 2 * ph, ow + 2 * pw
    out_c = layer.out_channels
    # kernel == stride without padding tiles the output; scatter is a reshape
    tiled = (sh, sw, ph, pw) == (kh, kw, 0, 0)

    xf = xd.reshape(b, c, h * w)  # pure view
    wflat = layer.weight.data.reshape(c, -1)  # (c, out_c*kh*kw)
    cols = np.matmul(wflat.T, xf)  # (b, out_c*kh*kw, P_in)
    if tiled:
        out = cols.reshape(b, out_c, kh, kw, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(b, out_c, oh, ow)
    else:
        padded = _col2im(cols, b, out_c, hp, wp, kh, kw, sh, sw, h, w)
        out = padded[:, :, ph : hp - ph, pw : wp - pw] if (ph or pw) else padded
        if ph or pw:
            out = np.ascontiguousarray(out)
    out += layer.bias.data[None, :, None, None]

    def back(g):
        if tiled:
            gcols = g.reshape(b, out_c, h, kh, w, kw).transpose(0, 1, 3, 5, 2, 4).reshape(b, -1, h * w)
        else:
            gp = np.pad(g, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else g
            gcols = _im2col(gp, kh, kw, sh, sw)  # (b, out_c*kh*kw, P_in)
        dx = np.matmul(wflat, gcols).reshape(b, c, h, w)
        dw = np.tensordot(xf, gcols, axes=([0, 2], [0, 2])).reshape(layer.weight.data.shape)
        db = g.sum(axis=(0, 2, 3))
        return dx, dw, db

    return apply_op((x, layer.weight, layer.bias), out, back)


class Linear(Module):
    """Affine map on the last axis of a 2-d input."""

    def __init__(self, in_features, out_features, rng: Optional[np.random.Generator] = None):
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = init_uniform(rng, (out_features, in_features), in_features)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(self, x)


def linear(layer: Linear, x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 2 or xd.shape[1] != layer.in_features:
        raise DimensionError(f"linear expected (batch, {layer.in_features}), got {xd.shape}")
    wd = layer.weight.data
    # batched (b,1,in) @ (in,out) keeps each sample's reduction independent
    out = np.matmul(xd[:, None, :], wd.T)[:, 0, :] + layer.bias.data

    def back(g):
        dx = np.matmul(g[:, None, :], wd)[:, 0, :]
        dw = np.tensordot(g, xd, axes=([0], [0]))
        db = g.sum(axis=0)
        return dx, dw, db

    return apply_op((x, layer.weight, layer.bias), out, back)


# ---------------------------------------------------------------------------
# pooling reductions

def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (b,c,h,w) -> (b,c,1,1)."""
    if x.data.ndim != 4:
        raise DimensionError(f"global_avg_pool expects 4-d input, got {x.data.shape}")
    return mean_(x, axis=(2, 3), keepdims=True)


def global_max_pool(x: Tensor) -> Tensor:
    """Per-channel spatial max: (b,c,h,w) -> (b,c,1,1); grad goes to the first argmax."""
    b, c, h, w = x.data.shape
    flat = reshape(x, (b, c, h * w))
    return reshape(max_axis(flat, 2), (b, c, 1, 1))


def channel_mean(x: Tensor) -> Tensor:
    """Mean over channels: (b,c,h,w) -> (b,1,h,w)."""
    return mean_(x, axis=1, keepdims=True)


def channel_max(x: Tensor) -> Tensor:
    """Max over channels: (b,c,h,w) -> (b,1,h,w)."""
    return max_axis(x, 1, keepdims=True)
