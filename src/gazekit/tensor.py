"""Dense tensors with tape-based reverse-mode automatic differentiation.

Storage is a numpy array (row-major, float64 by default). Operations record
themselves on the active :class:`Tape`; :func:`backward` replays the tape in
reverse and accumulates gradients into ``Tensor.grad``. When the replay ends
the tape releases everything it recorded, so a step's activations are freed by
reference counting as soon as the caller drops its tensors. With no active tape
every op is a plain forward computation, which is what evaluation and the
finite-difference probes use.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_debug_checks = False


class DimensionError(ValueError):
    """Shapes do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """A structural parameter (group count, sigma, extents) is invalid."""


class UsageError(RuntimeError):
    """An API was called out of protocol (tape reuse, non-scalar loss, ...)."""


class NumericsError(ArithmeticError):
    """A forward op produced NaN/Inf while debug checks were enabled."""


def set_debug_checks(enabled: bool) -> None:
    """Toggle finiteness assertions after every forward op (slow, test-only)."""
    global _debug_checks
    _debug_checks = bool(enabled)


class Tensor:
    """n-dimensional array that can participate in gradient recording.

    Invariants: ``grad`` is either None or an array of the same shape as
    ``data``. ``data`` is never mutated by ops; only the optimizer writes to
    parameter data between steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"tensor data must be numeric, got dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional["Tape"] = None

    # -- fast internal constructor: trusts `data` is a numeric ndarray
    @staticmethod
    def _wrap(data: np.ndarray, requires_grad: bool) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.requires_grad = requires_grad
        t.grad = None
        t._tape = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar, delegating to the module-level ops
    def __add__(self, other):
        return shift(self, other) if isinstance(other, (int, float)) else add(self, other)

    def __radd__(self, other):
        return shift(self, other)

    def __sub__(self, other):
        return shift(self, -other) if isinstance(other, (int, float)) else sub(self, other)

    def __rsub__(self, other):
        return shift(neg(self), other)

    def __mul__(self, other):
        return scale(self, other) if isinstance(other, (int, float)) else mul(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __truediv__(self, other):
        return scale(self, 1.0 / other) if isinstance(other, (int, float)) else div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        backward(self)


class Tape:
    """Ordered record of ops for one forward pass.

    Entries are appended in execution order, so every op's inputs precede it.
    A tape supports exactly one backward pass; recording onto or replaying a
    consumed tape raises :class:`UsageError`. The tape is released when its
    backward pass ends, and ``len(tape)`` is 0 afterwards: recorded tensors
    refer to their tape, so a tape that kept its entries would form a
    reference cycle holding the whole step's graph until a cyclic collection.
    A tape and the tensors recorded on it belong to one worker; independent
    batches can run under separate tapes in separate workers since forward
    never mutates shared state.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        self.entries: list[tuple] = []  # (inputs, output, backward_fn)
        self.consumed = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise UsageError("a tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._active = None
        return False

    def __len__(self) -> int:
        return len(self.entries)


def apply_op(
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward_fn: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Wrap a forward result, recording the op if a tape is live.

    ``backward_fn`` receives the gradient at the output and returns one
    gradient array (or None) per input, in order. This is the extension point
    other modules use to define fused ops.
    """
    if _debug_checks and not np.all(np.isfinite(out_data)):
        raise NumericsError("forward op produced non-finite values")
    tape = Tape._active
    if tape is not None and any(t.requires_grad for t in inputs):
        if tape.consumed:
            raise UsageError("cannot record onto a tape that was already replayed")
        out = Tensor._wrap(out_data, True)
        out._tape = tape
        tape.entries.append((tuple(inputs), out, backward_fn))
        return out
    return Tensor._wrap(out_data, False)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every requires_grad tensor reachable from ``loss``.

    Tensors that were recorded on the tape but are not reachable from the loss
    end up with zero gradients. Gradients accumulate into any pre-existing
    ``grad`` arrays (set them to None to reset).

    The tape is released when the pass ends: its entries, with the backward
    functions and the arrays they saved, are cleared, so ``len(tape)`` is 0
    afterwards.
    """
    if loss.data.size != 1:
        raise UsageError("backward requires a scalar loss")
    tape = loss._tape
    if tape is None:
        raise UsageError("loss was not recorded on any tape (no grads to compute)")
    if tape.consumed:
        raise UsageError("tape already replayed; one backward pass per tape")
    tape.consumed = True

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    final: dict[int, np.ndarray] = {}
    touched: dict[int, Tensor] = {id(loss): loss}
    for inputs, out, fn in reversed(tape.entries):
        g = pending.pop(id(out), None)
        if g is None:
            continue
        final[id(out)] = g  # all consumers of `out` have been replayed by now
        in_grads = fn(g)
        for t, ig in zip(inputs, in_grads):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            touched[key] = t
            prev = pending.get(key)
            # out-of-place accumulation: backward fns may return views
            pending[key] = ig if prev is None else prev + ig
    final.update(pending)  # leaves are never popped

    # grads are treated as read-only downstream, so views are fine here
    for key, t in touched.items():
        g = final[key]
        if g.shape != t.data.shape:
            g = g.reshape(t.data.shape)
        t.grad = g if t.grad is None else t.grad + g
    # tensors recorded but unreachable from the loss: zero their grads
    for inputs, out, _ in tape.entries:
        for t in inputs + (out,):
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)
    # Released all at once, not entry by entry during the replay: freeing each
    # saved array as soon as it was used let the allocator hand the heap top
    # back to the OS and fault it in again a moment later, every step.
    tape.entries.clear()


# ---------------------------------------------------------------------------
# broadcasting helpers ("b" may have extent-1 axes, or be rank-0)

def _check_broadcast(a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape or b.data.ndim == 0:
        return
    if a.data.ndim != b.data.ndim:
        raise DimensionError(
            f"broadcast requires equal rank or scalar, got {a.data.shape} vs {b.data.shape}"
        )
    for ea, eb in zip(a.data.shape, b.data.shape):
        if eb != ea and eb != 1:
            raise DimensionError(f"cannot broadcast {b.data.shape} against {a.data.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    if len(shape) == 0:
        return g.sum()
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    out = a.data + b.data
    return apply_op((a, b), out, lambda g: (g, _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    out = a.data - b.data
    return apply_op((a, b), out, lambda g: (g, -_unbroadcast(g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def back(g):
        return g * bd, _unbroadcast(g * ad, bd.shape)

    return apply_op((a, b), out, back)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def back(g):
        return g / bd, _unbroadcast(-g * ad / (bd * bd), bd.shape)

    return apply_op((a, b), out, back)


def neg(a: Tensor) -> Tensor:
    return apply_op((a,), -a.data, lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op((a,), a.data * c, lambda g: (g * c,))


def shift(a: Tensor, c: float) -> Tensor:
    return apply_op((a,), a.data + float(c), lambda g: (g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return apply_op((a,), out, lambda g: (g * out,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # stable in both tails: exp() only ever sees non-positive arguments
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        return (g * out * (1.0 - out),)

    return apply_op((a,), out, back)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0

    def back(g):
        return (g * mask,)

    return apply_op((a,), out, back)


def absolute(a: Tensor) -> Tensor:
    out = np.abs(a.data)
    s = np.sign(a.data)
    return apply_op((a,), out, lambda g: (g * s,))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim > 3 or bd.ndim > 3:
        raise DimensionError(f"matmul supports rank 2 or 3 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"inner extents differ: {ad.shape} @ {bd.shape}")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise DimensionError(f"batch extents differ: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)

    def back(g):
        da = np.matmul(g, bd.swapaxes(-1, -2))
        db = np.matmul(ad.swapaxes(-1, -2), g)
        if da.ndim > ad.ndim:
            da = da.sum(axis=0)
        if db.ndim > bd.ndim:  # (b,m,p) @ (p,q): batch folds into db
            db = db.sum(axis=0)
        return da, db

    return apply_op((a, b), out, back)


def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for rank {a.data.ndim}")
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        go = g * out
        return (go - out * go.sum(axis=axis, keepdims=True),)

    return apply_op((a,), out, back)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    orig = a.data.shape
    return apply_op((a,), out, lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(a.data, axes)
    return apply_op((a,), out, lambda g: (np.transpose(g, inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of an empty list")
    rank = tensors[0].data.ndim
    if not -rank <= axis < rank:
        raise DimensionError(f"concat axis {axis} out of range for rank {rank}")
    axis = axis % rank
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != rank or any(s[i] != ref[i] for i in range(rank) if i != axis):
            raise DimensionError(f"concat shapes differ off-axis: {ref} vs {s}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return apply_op(tuple(tensors), out, back)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]
    shape = a.data.shape

    def back(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return apply_op((a,), out, back)


def group_split(a: Tensor, n: int) -> list[Tensor]:
    """Split a b x c x h x w tensor into n contiguous channel groups."""
    if a.data.ndim != 4:
        raise DimensionError(f"group_split expects a 4-d tensor, got shape {a.data.shape}")
    c = a.data.shape[1]
    if n < 1 or c % n != 0:
        raise ConfigError(f"channel count {c} not divisible by group count {n}")
    w = c // n
    return [slice_axis(a, 1, i * w, (i + 1) * w) for i in range(n)]


# ---------------------------------------------------------------------------
# reductions

def _axes_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axes_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def back(g):
        if not keepdims:
            kept = list(shape)
            for ax in axes:
                kept[ax] = 1
            g = g.reshape(kept)
        return (np.broadcast_to(g, shape),)

    return apply_op((a,), out, back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axes_tuple(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    return scale(sum_(a, axis=axes, keepdims=keepdims), 1.0 / count)


def max_axis(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    """Max along one axis; backward routes to the first argmax (lowest index)."""
    ax = axis % a.data.ndim
    out = a.data.max(axis=ax, keepdims=True)
    idx = a.data.argmax(axis=ax)  # first occurrence among ties
    shape = a.data.shape

    def back(g):
        if g.shape != out.shape:
            g = g.reshape(out.shape)
        full = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(full, np.expand_dims(idx, ax), g, axis=ax)
        return (full,)

    res = apply_op((a,), out, back)
    if not keepdims:
        res = reshape(res, out.squeeze(ax).shape)
    return res


# ---------------------------------------------------------------------------
# gradient verification

def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-4,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must be a deterministic scalar-valued function of ``x``. Probes run
    without a tape. When ``max_coords`` is given, a seeded subset of
    coordinates is checked instead of all of them.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    if not x.requires_grad:
        raise UsageError("finite_diff_check needs a requires_grad tensor")
    saved_grad = x.grad
    x.grad = None
    with Tape():
        out = f(x)
        if out.data.size != 1:
            raise UsageError("f must be scalar-valued")
        backward(out)
    analytic = x.grad.reshape(-1).copy()
    x.grad = saved_grad

    flat = x.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        coords = np.sort(np.random.default_rng(seed).choice(n, size=max_coords, replace=False))
    else:
        coords = range(n)

    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x).data.reshape(()))
        flat[i] = orig - eps
        fm = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        if err > worst:
            worst = err
    return worst
