"""Correctness checks for the benchmark's workloads.

Each check compares what gazekit returned with a computation made here, apart
from the package, or with a property the method must have. A check raises
:class:`CheckFailed` naming what disagreed; it returns None when it holds.
"""

from __future__ import annotations

import math

import numpy as np

# Half an 8-bit step, plus float32 slack: a face is rendered in float32 and
# read back as float32, and rint(x * 255) may land either side of a tie.
PPM_BOUND = 0.5 / 255.0 + 2.0**-20
# a few steps of float32's subnormal spacing (2**-149)
SUBNORMAL_SLACK = 8 * 2.0**-149


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def gaze_unit_vectors(pitch, yaw) -> np.ndarray:
    """(n, 3) unit gaze vectors: pitch is elevation, yaw is azimuth from +z."""
    pitch = np.asarray(pitch, dtype=np.float64)
    yaw = np.asarray(yaw, dtype=np.float64)
    return np.stack(
        [np.cos(pitch) * np.sin(yaw), np.sin(pitch), np.cos(pitch) * np.cos(yaw)], axis=-1
    )


def mean_angular_error_deg(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean angle in degrees between (n, 2) pitch/yaw predictions and truths."""
    a = gaze_unit_vectors(pred[:, 0], pred[:, 1])
    b = gaze_unit_vectors(truth[:, 0], truth[:, 1])
    cos = np.clip((a * b).sum(axis=1), -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)).mean())


def check_mean_error(reported: float, pred: np.ndarray, truth: np.ndarray, tol_deg: float = 1e-9) -> None:
    """The program's mean angular error equals the one computed here."""
    own = mean_angular_error_deg(pred, truth)
    if not abs(own - reported) <= tol_deg:
        raise CheckFailed(f"reported mean error {reported!r} deg, recomputed {own!r} deg")


def check_beats_constant(error_deg: float, truth: np.ndarray, share: float = 0.5) -> None:
    """A trained model's error is at most ``share`` of a constant-zero predictor's."""
    constant = mean_angular_error_deg(np.zeros_like(truth), truth)
    if not error_deg <= share * constant:
        raise CheckFailed(f"held-out error {error_deg:.3f} deg is not below {share} x {constant:.3f} deg (constant zero)")


def check_bitwise(name: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or got.dtype != want.dtype or not np.array_equal(got, want):
        diff = np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))) if got.shape == want.shape else "n/a"
        raise CheckFailed(f"{name}: not bitwise equal (shape {got.shape} vs {want.shape}, max diff {diff})")


def check_batch_independence(predict, inputs: tuple, batch_pred: np.ndarray, indices, batch: int) -> None:
    """Samples scored one at a time give bitwise the predictions made in batches."""
    for i in indices:
        one = predict(*(x[i : i + 1] for x in inputs))
        check_bitwise(f"prediction of sample {i} alone against its batch of {batch}", one[0], batch_pred[i])


def check_params_equal(loaded: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    """Every parameter loaded from a checkpoint equals the saved one bitwise."""
    if set(loaded) != set(saved):
        raise CheckFailed(f"checkpoint parameter names differ: {sorted(set(loaded) ^ set(saved))[:5]}")
    for name, arr in saved.items():
        check_bitwise(f"checkpoint parameter {name}", loaded[name], arr)


def check_ppm_faces(read_back: list[np.ndarray], rendered: list[np.ndarray]) -> None:
    """Each face read back from its 8-bit PPM lies within half a step of the render."""
    if len(read_back) != len(rendered):
        raise CheckFailed(f"{len(read_back)} faces read back, {len(rendered)} rendered")
    for i, (got, want) in enumerate(zip(read_back, rendered)):
        if got.shape != want.shape:
            raise CheckFailed(f"face {i}: shape {got.shape} read back, {want.shape} rendered")
        worst = float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))))
        if worst > PPM_BOUND:
            raise CheckFailed(f"face {i}: read back {worst * 255:.3f}/255 from the render (bound 0.5/255)")


def check_directional_derivative(
    grads: dict[str, np.ndarray], direction: dict[str, np.ndarray], finite_diff: float, rtol: float
) -> None:
    """sum(grad . direction) matches the loss's central difference along direction."""
    analytic = math.fsum(float(np.dot(grads[n].ravel(), direction[n].ravel())) for n in direction)
    scale = max(abs(analytic), abs(finite_diff))
    if not abs(analytic - finite_diff) <= rtol * scale:
        raise CheckFailed(f"directional derivative {analytic!r} from the tape, {finite_diff!r} by central difference")


def adamw_reference(p0, g, m0, v0, lr, step, beta1, beta2, eps, weight_decay):
    """One AdamW update of a single scalar, in plain Python floats."""
    p = p0 - lr * weight_decay * p0
    m = beta1 * m0 + (1.0 - beta1) * g
    v = beta2 * v0 + (1.0 - beta2) * g * g
    p = p - lr * (m / (1.0 - beta1**step)) / (math.sqrt(v / (1.0 - beta2**step)) + eps)
    return p, m, v


def adamw_tolerance(p: float, lr: float) -> float:
    """Float32 rounding of the decayed parameter plus that of the adaptive step."""
    return 2e-6 * abs(p) + 1e-5 * lr


def check_adamw_update(before: list[tuple], after: list[tuple], lr: float, step: int, hyper: dict) -> None:
    """Sampled entries after one step match the scalar update rule.

    ``before`` holds (label, p, g, m, v) per entry, ``after`` (label, p, m, v).
    ``hyper`` holds beta1, beta2, eps and weight_decay.
    """
    b1 = hyper["beta1"]
    for (label, p0, g, m0, v0), (_, p1, m1, v1) in zip(before, after):
        p_ref, m_ref, v_ref = adamw_reference(p0, g, m0, v0, lr, step, **hyper)
        if not abs(p1 - p_ref) <= adamw_tolerance(p_ref, lr):
            raise CheckFailed(f"AdamW parameter {label}: {p1!r} after the step, reference {p_ref!r}")
        # the first moment is a sum that can cancel: bound by its terms;
        # moments of rarely moved weights sink into float32 subnormals
        m_tol = 1e-6 * (b1 * abs(m0) + (1.0 - b1) * abs(g)) + SUBNORMAL_SLACK
        if not abs(m1 - m_ref) <= m_tol or not abs(v1 - v_ref) <= 1e-6 * v_ref + SUBNORMAL_SLACK:
            raise CheckFailed(f"AdamW moments {label}: ({m1!r}, {v1!r}), reference ({m_ref!r}, {v_ref!r})")
