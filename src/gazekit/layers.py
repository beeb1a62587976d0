"""Parameterized layers: 2-d convolution, transposed convolution, linear maps,
and the pooling reductions used by the attention blocks.

Convolution follows the cross-correlation convention (no kernel flip). Both
conv ops rest on one adjoint pair: ``_im2col`` gathers the patches of the
zero-padded input into a (b, c*kh*kw, oh*ow) matrix, and ``_col2im``
scatter-adds such a matrix back onto an image and drops the padding. conv2d
is gather then matmul, and its backward is matmul then scatter; the
transposed convolution, its exact adjoint, is matmul then scatter, and its
backward is gather then matmul. Where the kernel equals the stride without
padding the patches tile the image, and both halves of the pair are reshapes.
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


def _tiles(shape, kernel, stride, padding) -> bool:
    """Whether the patches tile the (b,c,h,w) extents: kernel == stride, no
    padding, extents divisible. Then gather and scatter are reshapes, and a
    1x1 kernel makes them views."""
    h, w = shape[2:]
    return kernel == stride and padding == (0, 0) and h % kernel[0] == 0 and w % kernel[1] == 0


def _im2col(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """(b,c,h,w) -> (b, c*kh*kw, oh*ow) patch matrix of the zero-padded input."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    b, c, h, w = x.shape
    if _tiles(x.shape, kernel, stride, padding):
        patches = x.reshape(b, c, h // kh, kh, w // kw, kw).transpose(0, 1, 3, 5, 2, 4)
    else:
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        patches = sliding_window_view(xp, kernel, axis=(2, 3))[:, :, ::sh, ::sw].transpose(0, 1, 4, 5, 2, 3)
    return patches.reshape(b, c * kh * kw, -1)


def _col2im(cols: np.ndarray, shape, kernel, stride, padding) -> np.ndarray:
    """Adjoint of _im2col: scatter-add the patch matrix onto a zero (b,c,h,w)
    canvas; what lands in the padding is dropped."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    b, c, h, w = shape
    if _tiles(shape, kernel, stride, padding):
        return cols.reshape(b, c, kh, kw, h // kh, w // kw).transpose(0, 1, 4, 2, 5, 3).reshape(shape)
    oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    out = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    patches = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += patches[:, :, i, j]
    return out[:, :, ph : ph + h, pw : pw + w]


class Conv2d(Module):
    """Cross-correlation with per-output-channel bias; weight (out, in, kh, kw)."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0, rng: Optional[np.random.Generator] = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = _pair(kernel)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = init_uniform(rng, self._weight_shape(), in_channels * kh * kw)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def _weight_shape(self) -> tuple[int, ...]:
        return (self.out_channels, self.in_channels, *self.kernel)

    def _input_shape(self, x: Tensor) -> tuple[int, ...]:
        """(b, c, h, w) of ``x``; DimensionError unless it is 4-d with in_channels channels."""
        shape = x.data.shape
        if len(shape) != 4 or shape[1] != self.in_channels:
            raise DimensionError(f"{type(self).__name__} expects (b, {self.in_channels}, h, w) input, got {shape}")
        return shape

    def out_extents(self, h: int, w: int) -> tuple[int, int]:
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise DimensionError(f"conv output extents {oh}x{ow} not positive for input {h}x{w}")
        return oh, ow

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(self, x)


def conv2d(layer: Conv2d, x: Tensor) -> Tensor:
    b, _, h, w = shape = layer._input_shape(x)
    oh, ow = layer.out_extents(h, w)
    geometry = layer.kernel, layer.stride, layer.padding
    cols = _im2col(x.data, *geometry)  # (b, c*kh*kw, oh*ow)
    wflat = layer.weight.data.reshape(layer.out_channels, -1)
    out = np.matmul(wflat, cols).reshape(b, layer.out_channels, oh, ow)
    out += layer.bias.data[None, :, None, None]

    def back(g):
        g3 = g.reshape(b, layer.out_channels, oh * ow)
        dw = np.tensordot(g3, cols, axes=([0, 2], [0, 2])).reshape(layer.weight.data.shape)
        dx = _col2im(np.matmul(wflat.T, g3), shape, *geometry)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return apply_op((x, layer.weight, layer.bias), out, back)


class ConvTranspose2d(Conv2d):
    """Adjoint of Conv2d; weight (in, out, kh, kw), output extent
    (in-1)*stride - 2*padding + kernel."""

    def _weight_shape(self) -> tuple[int, ...]:
        return (self.in_channels, self.out_channels, *self.kernel)

    def out_extents(self, h: int, w: int) -> tuple[int, int]:
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        oh, ow = (h - 1) * sh - 2 * ph + kh, (w - 1) * sw - 2 * pw + kw
        if oh <= 0 or ow <= 0:
            raise DimensionError(f"conv_transpose output extents {oh}x{ow} not positive")
        return oh, ow

    def __call__(self, x: Tensor) -> Tensor:
        return conv_transpose2d(self, x)


def conv_transpose2d(layer: ConvTranspose2d, x: Tensor) -> Tensor:
    b, c, h, w = layer._input_shape(x)
    geometry = layer.kernel, layer.stride, layer.padding
    xf = x.data.reshape(b, c, h * w)
    wflat = layer.weight.data.reshape(c, -1)  # (c, out_c*kh*kw)
    out = _col2im(np.matmul(wflat.T, xf), (b, layer.out_channels, *layer.out_extents(h, w)), *geometry)
    out += layer.bias.data[None, :, None, None]

    def back(g):
        gcols = _im2col(g, *geometry)  # (b, out_c*kh*kw, h*w)
        dx = np.matmul(wflat, gcols).reshape(b, c, h, w)
        dw = np.tensordot(xf, gcols, axes=([0, 2], [0, 2])).reshape(layer.weight.data.shape)
        return dx, dw, g.sum(axis=(0, 2, 3))

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
