"""Finite-difference verification suites for every differentiable component.

Each suite returns (name, max_rel_error, tolerance) triples; `run` prints one
line per check. Composite blocks check gradients w.r.t. inputs and every
parameter; the whole-model check probes a seeded subset of coordinates per
tensor to stay fast.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .attention import CascadeAttention, Cbam, GaussianNonLocal, pairwise_sqdist
from .config import tiny_model_config
from .layers import (
    Conv2d,
    ConvTranspose2d,
    Linear,
    channel_max,
    channel_mean,
    conv2d,
    conv_transpose2d,
    global_avg_pool,
    global_max_pool,
    linear,
)
from .losses import eye_recon_loss, gaze_loss, region_recon_loss, total_loss
from .model import GazeNet
from .tensor import Tensor, finite_diff_check, sigmoid, sum_

OP_TOL = 1e-5
MODEL_TOL = 1e-4


def _rng(seed):
    return np.random.default_rng(seed)


def _squash(t):
    return sum_(sigmoid(t))


def check_tensor_ops(seed: int) -> list[tuple[str, float, float]]:
    g = _rng(seed)
    x = Tensor(g.normal(size=(2, 5)) * 0.9, requires_grad=True)
    w = Tensor(g.normal(size=(5, 3)), requires_grad=True)
    results = []

    b_add = Tensor(g.normal(size=(2, 5)))
    b_mul = Tensor(g.normal(size=(2, 5)))
    b_div = Tensor(g.uniform(0.5, 2.0, size=(2, 5)))
    cases = {
        "add": lambda t: _squash(tz.add(t, b_add)),
        "mul": lambda t: _squash(tz.mul(t, b_mul)),
        "div": lambda t: _squash(tz.div(t, b_div)),
        "exp": lambda t: _squash(tz.exp(t)),
        "sigmoid": lambda t: _squash(tz.sigmoid(t)),
        "relu": lambda t: _squash(tz.relu(tz.shift(t, 0.05))),
        "abs": lambda t: _squash(tz.absolute(tz.shift(t, 0.05))),
        "softmax": lambda t: _squash(tz.softmax(t, 1)),
        "matmul": lambda t: _squash(tz.matmul(t, w)),
        "concat+slice": lambda t: _squash(
            tz.concat([tz.slice_axis(t, 1, 0, 2), tz.slice_axis(t, 1, 2, 5)], 1)
        ),
        "sum/mean": lambda t: _squash(tz.mean_(t, axis=1, keepdims=True)),
        "max": lambda t: _squash(tz.max_axis(t, 1)),
        "transpose+reshape": lambda t: _squash(tz.reshape(tz.transpose(t, (1, 0)), (5, 2))),
    }
    for name, f in cases.items():
        results.append((f"op.{name}", finite_diff_check(f, x), OP_TOL))

    q = Tensor(g.normal(size=(1, 3, 2)), requires_grad=True)
    k = Tensor(g.normal(size=(1, 4, 2)))
    results.append(("op.pairwise_sqdist", finite_diff_check(lambda t: _squash(pairwise_sqdist(t, k)), q), OP_TOL))
    return results


def check_layers(seed: int) -> list[tuple[str, float, float]]:
    g = _rng(seed)
    results = []

    conv = Conv2d(2, 3, 3, 2, 1, rng=_rng(seed))
    x = Tensor(g.normal(size=(2, 2, 5, 5)), requires_grad=True)
    results.append(("conv2d.x", finite_diff_check(lambda t: _squash(conv2d(conv, t)), x), OP_TOL))
    results.append(("conv2d.w", finite_diff_check(lambda _: _squash(conv2d(conv, x)), conv.weight), OP_TOL))
    results.append(("conv2d.b", finite_diff_check(lambda _: _squash(conv2d(conv, x)), conv.bias), OP_TOL))

    up = ConvTranspose2d(2, 2, (2, 3), (2, 3), rng=_rng(seed + 1))
    y = Tensor(g.normal(size=(1, 2, 3, 3)), requires_grad=True)
    results.append(("conv_transpose.x", finite_diff_check(lambda t: _squash(conv_transpose2d(up, t)), y), OP_TOL))
    results.append(
        ("conv_transpose.w", finite_diff_check(lambda _: _squash(conv_transpose2d(up, y)), up.weight), OP_TOL)
    )

    lin = Linear(4, 3, rng=_rng(seed + 2))
    z = Tensor(g.normal(size=(3, 4)), requires_grad=True)
    results.append(("linear.x", finite_diff_check(lambda t: _squash(linear(lin, t)), z), OP_TOL))
    results.append(("linear.w", finite_diff_check(lambda _: _squash(linear(lin, z)), lin.weight), OP_TOL))
    results.append(("linear.b", finite_diff_check(lambda _: _squash(linear(lin, z)), lin.bias), OP_TOL))

    p = Tensor(g.normal(size=(1, 3, 3, 3)), requires_grad=True)
    for name, fn in (
        ("avg_pool", global_avg_pool),
        ("max_pool", global_max_pool),
        ("channel_mean", channel_mean),
        ("channel_max", channel_max),
    ):
        results.append((f"pool.{name}", finite_diff_check(lambda t: _squash(fn(t)), p), OP_TOL))
    return results


def check_attention(seed: int, cascade_coords: int = 5) -> list[tuple[str, float, float]]:
    g = _rng(seed)
    results = []

    cbam = Cbam(4, rng=_rng(seed))
    x = Tensor(g.normal(size=(1, 4, 3, 3)) * 0.9, requires_grad=True)
    results.append(("cbam.x", finite_diff_check(lambda t: _squash(cbam(t)), x), OP_TOL))
    worst = max(
        finite_diff_check(lambda _: _squash(cbam(x)), p) for _, p in cbam.named_parameters()
    )
    results.append(("cbam.params", worst, OP_TOL))

    gnl = GaussianNonLocal(4, sigma=0.9, learnable_sigma=True, rng=_rng(seed + 1))
    results.append(("nonlocal.x", finite_diff_check(lambda t: _squash(gnl(t)), x), OP_TOL))
    worst = max(
        finite_diff_check(lambda _: _squash(gnl(x)), p) for _, p in gnl.named_parameters()
    )
    results.append(("nonlocal.params(sigma incl.)", worst, OP_TOL))

    cascade = CascadeAttention(4, 2, 2, sigma=1.1, rng=_rng(seed + 2))
    xc = Tensor(g.normal(size=(1, 4, 3, 3)) * 0.8, requires_grad=True)
    results.append(("cascade.x", finite_diff_check(lambda t: _squash(cascade(t)), xc), OP_TOL))
    worst = max(
        finite_diff_check(lambda _: _squash(cascade(xc)), p, max_coords=cascade_coords, seed=seed)
        for _, p in cascade.named_parameters()
    )
    results.append(("cascade.params", worst, OP_TOL))
    return results


def check_losses(seed: int) -> list[tuple[str, float, float]]:
    g = _rng(seed)
    results = []
    pred_l = Tensor(g.uniform(0.1, 0.9, size=(2, 3, 4, 4)), requires_grad=True)
    targ_l = Tensor(g.uniform(0.1, 0.9, size=(2, 3, 4, 4)))
    results.append(
        (
            "loss.eye_recon",
            finite_diff_check(lambda t: eye_recon_loss(t, t, targ_l, targ_l), pred_l),
            OP_TOL,
        )
    )
    regions = [Tensor(g.uniform(0.1, 0.9, size=(2, 3, 2, 4)), requires_grad=True) for _ in range(3)]
    targets = [Tensor(g.uniform(0.1, 0.9, size=(2, 3, 2, 4))) for _ in range(3)]
    results.append(
        (
            "loss.region_recon",
            finite_diff_check(lambda t: region_recon_loss((t, regions[1], regions[2]), targets), regions[0]),
            OP_TOL,
        )
    )
    pred = Tensor(g.normal(size=(4, 2)) * 0.4, requires_grad=True)
    truth = Tensor(g.normal(size=(4, 2)) * 0.4)
    results.append(("loss.gaze", finite_diff_check(lambda t: gaze_loss(t, truth), pred), OP_TOL))
    results.append(
        (
            "loss.total",
            finite_diff_check(
                lambda t: total_loss(gaze_loss(t, truth), eye_recon_loss(pred_l, pred_l, targ_l, targ_l), region_recon_loss(regions, targets), 0.7, 0.3),
                pred,
            ),
            OP_TOL,
        )
    )
    return results


def check_whole_model(seed: int, coords_per_tensor: int = 4) -> list[tuple[str, float, float]]:
    """End-to-end gradient of the full training loss on the tiny config.

    Probes use eps=1e-5: the gaze term's absolute value and the relu/max
    kinks make wider intervals occasionally straddle a slope change, which
    pollutes the difference quotient without any gradient being wrong.
    Truth angles are kept away from the untrained model's near-zero
    predictions for the same reason.
    """
    g = _rng(seed)
    model = GazeNet(tiny_model_config(), seed=seed)
    # evaluate at a generic point: zero-initialized biases leave whole relu
    # channels sitting exactly on the kink (dead upstream relus feed exact
    # zeros), where one-sided slopes spoil the difference quotient
    for name, p in model.named_parameters():
        if name.endswith("bias") or name.endswith("logits"):
            p.data = p.data + g.uniform(-0.05, 0.05, size=p.data.shape)
    face = Tensor(g.random((1, 3, 16, 16)), requires_grad=True)
    eye_l = Tensor(g.random((1, 3, 8, 8)))
    eye_r = Tensor(g.random((1, 3, 8, 8)))
    truth = Tensor(g.uniform(0.25, 0.4, size=(1, 2)) * g.choice([-1.0, 1.0], size=(1, 2)))
    r1, r2 = model.cfg.band_rows
    hf = model.cfg.face_size
    targets = (
        Tensor(g.random((1, 3, r1, hf))),
        Tensor(g.random((1, 3, r2 - r1, hf))),
        Tensor(g.random((1, 3, hf - r2, hf))),
    )

    def loss_fn(_):
        out = model(face, eye_l, eye_r)
        l1 = eye_recon_loss(out.recon_left, out.recon_right, eye_l, eye_r)
        l2 = region_recon_loss((out.recon_top, out.recon_mid, out.recon_bot), targets)
        return total_loss(gaze_loss(out.gaze, truth), l1, l2)

    worst_param = 0.0
    for _, p in model.named_parameters():
        err = finite_diff_check(loss_fn, p, eps=1e-5, max_coords=coords_per_tensor, seed=seed)
        worst_param = max(worst_param, err)
    input_err = finite_diff_check(loss_fn, face, eps=1e-5, max_coords=4 * coords_per_tensor, seed=seed)
    return [
        ("model.params", worst_param, MODEL_TOL),
        ("model.input", input_err, MODEL_TOL),
    ]


SUITES = {
    "tensor": check_tensor_ops,
    "layers": check_layers,
    "attention": check_attention,
    "losses": check_losses,
    "model": check_whole_model,
}


def run(module: str = "all", seeds=range(10), printer=print) -> bool:
    """Run suites over the given seeds; returns True when all checks pass."""
    names = list(SUITES) if module == "all" else [module]
    ok = True
    for name in names:
        suite = SUITES[name]
        worst: dict[str, tuple[float, float]] = {}
        for seed in seeds:
            for check, err, tol in suite(seed):
                prev = worst.get(check, (0.0, tol))
                worst[check] = (max(prev[0], err), tol)
        for check, (err, tol) in worst.items():
            status = "pass" if err < tol else "FAIL"
            ok &= err < tol
            printer(f"[{status}] {check:<34} max_err={err:.3e}  tol={tol:.0e}  seeds={len(list(seeds))}")
    return ok
