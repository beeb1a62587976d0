"""Optimizer, schedule, training/evaluation loops, and attention-map export.

Training is deterministic for a fixed seed: shuffles are keyed by
(seed, epoch), the optimizer is the only parameter writer, and evaluation
runs tape-free on parameter snapshots.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .attention import recorded_maps
from .config import ModelConfig, TrainConfig
from .losses import (
    angles_error_deg,
    eye_recon_loss,
    gaze_loss,
    region_recon_loss,
    total_loss,
)
from .model import CheckpointError, GazeNet, load_checkpoint, save_checkpoint
from .netpbm import write_pgm
from .synth import GazeSample
from .tensor import Tape, Tensor, UsageError, backward


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; training aborts rather than limping on."""


class AdamW:
    """Decoupled weight decay, bias-corrected moments.

    Decay multiplies parameters by (1 - lr * wd) before the adaptive update;
    the moment estimates never see the decay term.
    """

    def __init__(
        self,
        named_params: Sequence[tuple[str, Tensor]],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
    ):
        self.named_params = list(named_params)
        self.beta1, self.beta2, self.eps, self.weight_decay = beta1, beta2, eps, weight_decay
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.step_count = 0

    def step(self, lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if self.weight_decay:
                p.data = p.data - lr * self.weight_decay * p.data
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grads(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def state_records(self) -> list[tuple[str, np.ndarray]]:
        out = [(f"adam_m/{n}", a) for n, a in self.m.items()]
        out += [(f"adam_v/{n}", a) for n, a in self.v.items()]
        out.append(("state/step", np.asarray(float(self.step_count))))
        return out

    def load_state_records(self, records: dict[str, np.ndarray]) -> None:
        for name, p in self.named_params:
            self.m[name] = records[f"adam_m/{name}"].astype(p.data.dtype)
            self.v[name] = records[f"adam_v/{name}"].astype(p.data.dtype)
        self.step_count = int(records["state/step"])


def multistep_lr(epoch: int, base_lr: float, milestones: Sequence[int], gamma: float) -> float:
    """base_lr * gamma^(number of milestones <= epoch)."""
    return base_lr * gamma ** sum(1 for m in milestones if m <= epoch)


# ---------------------------------------------------------------------------
# batching

def batch_tensors(samples: Sequence[GazeSample], idxs, dtype) -> dict[str, Tensor]:
    pick = [samples[i] for i in idxs]
    stack = lambda key: Tensor(np.stack([getattr(s, key) for s in pick]).astype(dtype))
    truth = Tensor(np.asarray([[s.truth.pitch, s.truth.yaw] for s in pick], dtype=dtype))
    return {
        "face": stack("face"),
        "eye_l": stack("eye_l"),
        "eye_r": stack("eye_r"),
        "top": stack("region_top"),
        "mid": stack("region_mid"),
        "bot": stack("region_bot"),
        "truth": truth,
    }


# ---------------------------------------------------------------------------
# evaluation

def evaluate(
    predict: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    samples: Sequence[GazeSample],
    batch_size: int = 64,
) -> tuple[float, list[tuple]]:
    """Mean angular error (degrees) of a predictor over a sample list.

    ``predict`` maps (face, eye_l, eye_r) batches to (b, 2) pitch/yaw radians.
    Returns the mean and per-sample report rows
    (index, truth_pitch_deg, truth_yaw_deg, pred_pitch_deg, pred_yaw_deg, error_deg).
    """
    if not samples:
        raise UsageError("cannot evaluate on an empty sample list")
    rows = []
    errors = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        face = np.stack([s.face for s in chunk]).astype(np.float64)
        el = np.stack([s.eye_l for s in chunk]).astype(np.float64)
        er = np.stack([s.eye_r for s in chunk]).astype(np.float64)
        pred = np.asarray(predict(face, el, er), dtype=np.float64)
        truth = np.asarray([[s.truth.pitch, s.truth.yaw] for s in chunk])
        errs = angles_error_deg(pred[:, 0], pred[:, 1], truth[:, 0], truth[:, 1])
        for j, e in enumerate(errs):
            i = start + j
            rows.append(
                (
                    i,
                    math.degrees(truth[j, 0]),
                    math.degrees(truth[j, 1]),
                    math.degrees(pred[j, 0]),
                    math.degrees(pred[j, 1]),
                    float(e),
                )
            )
            errors.append(float(e))
    return float(np.mean(errors)), rows


def model_predictor(model: GazeNet) -> Callable:
    def predict(face, el, er):
        return model.predict(face.astype(model.dtype), el.astype(model.dtype), er.astype(model.dtype))

    return predict


def constant_predictor(pitch: float = 0.0, yaw: float = 0.0) -> Callable:
    def predict(face, el, er):
        return np.tile([pitch, yaw], (face.shape[0], 1))

    return predict


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainState:
    epochs_done: int
    seed: int
    optimizer: AdamW


METRICS_HEADER = "epoch,lr,Lg,L1,L2,test_angular_error_deg"


def train_loop(
    model: GazeNet,
    train_samples: Sequence[GazeSample],
    test_samples: Sequence[GazeSample],
    tcfg: TrainConfig,
    optimizer: Optional[AdamW] = None,
    start_epoch: int = 0,
    epoch_hook: Optional[Callable] = None,
    mask_identity_check: bool = False,
) -> tuple[TrainState, list[tuple]]:
    """Run epochs [start_epoch, tcfg.epochs); returns state + metric rows.

    Metric rows follow METRICS_HEADER. ``mask_identity_check`` asserts the
    kept/dropped feature split reconstructs the encoder features bitwise at
    every step (verification mode).
    """
    if not train_samples:
        raise UsageError("training set is empty")
    tcfg.validate()
    opt = optimizer or AdamW(
        list(model.named_parameters()),
        beta1=tcfg.beta1,
        beta2=tcfg.beta2,
        eps=tcfg.adam_eps,
        weight_decay=tcfg.weight_decay,
    )
    cfg = model.cfg
    n = len(train_samples)
    history: list[tuple] = []
    state = TrainState(start_epoch, tcfg.seed, opt)

    for epoch in range(start_epoch, tcfg.epochs):
        lr = multistep_lr(epoch, tcfg.base_lr, tcfg.lr_milestones, tcfg.lr_gamma)
        order = np.random.default_rng((tcfg.seed, epoch)).permutation(n)
        sums = {"lg": 0.0, "l1": 0.0, "l2": 0.0}
        for start in range(0, n, tcfg.batch_size):
            idxs = order[start : start + tcfg.batch_size]
            batch = batch_tensors(train_samples, idxs, model.dtype)
            with Tape():
                out = model(batch["face"], batch["eye_l"], batch["eye_r"])
                if mask_identity_check:
                    rebuilt = out.split.kept.data + out.split.dropped.data
                    if not np.array_equal(rebuilt, model.face_encoder(batch["face"]).data):
                        raise AssertionError("mask split no longer reconstructs features bitwise")
                l1 = eye_recon_loss(out.recon_left, out.recon_right, batch["eye_l"], batch["eye_r"])
                l2 = region_recon_loss(
                    (out.recon_top, out.recon_mid, out.recon_bot), (batch["top"], batch["mid"], batch["bot"])
                )
                lg = gaze_loss(out.gaze, batch["truth"])
                loss = total_loss(lg, l1, l2, cfg.lambda_eye, cfg.lambda_region)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} (Lg={float(lg.data)}, L1={float(l1.data)}, L2={float(l2.data)})"
                    )
                backward(loss)
            opt.step(lr)
            opt.zero_grads()
            k = len(idxs)
            sums["lg"] += float(lg.data) * k
            sums["l1"] += float(l1.data) * k
            sums["l2"] += float(l2.data) * k
        test_err, _ = evaluate(model_predictor(model), test_samples) if test_samples else (float("nan"), [])
        history.append((epoch, lr, sums["lg"] / n, sums["l1"] / n, sums["l2"] / n, test_err))
        state.epochs_done = epoch + 1
        if epoch_hook is not None:
            epoch_hook(epoch, history[-1])
    return state, history


def metrics_csv_text(history: Sequence[tuple]) -> str:
    lines = [METRICS_HEADER]
    for epoch, lr, lg, l1, l2, err in history:
        lines.append(f"{epoch},{lr!r},{lg!r},{l1!r},{l2!r},{err!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpointing (format defined alongside the model)

def save_train_checkpoint(path, model: GazeNet, optimizer: Optional[AdamW], epochs_done: int, seed: int) -> None:
    records = [(f"param/{n}", a) for n, a in model.state_arrays()]
    if optimizer is not None:
        records += optimizer.state_records()
    records.append(("state/epochs_done", np.asarray(float(epochs_done))))
    records.append(("state/seed", np.asarray(float(seed))))
    save_checkpoint(path, model.cfg, records)


def _counter(records: dict[str, np.ndarray], name: str) -> int:
    """A non-negative whole-number record; 0 when the checkpoint has none."""
    value = records.get(name, np.asarray(0.0))
    if value.shape != () or not (value >= 0 and float(value).is_integer()):
        raise CheckpointError(f"{name} must be a non-negative whole number, got {value}")
    return int(value)


def _restore(records: dict[str, np.ndarray], model: GazeNet, optimizer: Optional[AdamW]) -> dict:
    """Assign checkpoint records to the model and optimizer, all or nothing:
    every record either reads is checked before anything is assigned."""
    meta = {key: _counter(records, f"state/{key}") for key in ("epochs_done", "seed")}
    if optimizer is not None:
        for name, arr in optimizer.state_records():
            if name not in records:
                raise CheckpointError(f"checkpoint has no record {name!r}")
            if records[name].shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {name}: {records[name].shape} vs {arr.shape}")
        _counter(records, "state/step")
    # load_parameters checks all of its records before it replaces any tensor
    model.load_parameters({n[len("param/") :]: a for n, a in records.items() if n.startswith("param/")})
    if optimizer is not None:
        optimizer.load_state_records(records)
    return meta


def load_train_checkpoint(path, model: GazeNet, optimizer: Optional[AdamW] = None) -> dict:
    """Load a checkpoint of ``model.cfg`` into ``model`` (and ``optimizer``);
    returns its epochs_done and seed. On CheckpointError nothing has changed."""
    cfg, records = load_checkpoint(path)
    if cfg != model.cfg:
        raise CheckpointError("checkpoint was written for a different model config")
    return _restore(records, model, optimizer)


def load_model(path) -> GazeNet:
    """The float64 model a checkpoint describes, with its parameters loaded."""
    cfg, records = load_checkpoint(path)
    model = GazeNet(cfg, seed=0)
    _restore(records, model, None)
    return model


# ---------------------------------------------------------------------------
# attention export

def normalize_gray(arr: np.ndarray) -> np.ndarray:
    """Min-max normalize to the full 8-bit gray range; constant maps go black."""
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.clip(np.rint((arr - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)


def dump_attention(model: GazeNet, sample: GazeSample, out_dir) -> dict[str, np.ndarray]:
    """Write mask and attention heatmaps for one sample as PGM files.

    Returns the raw (pre-normalization) maps keyed by file stem. The two mask
    heatmaps sum to a constant image by construction (gate + (1 - gate) = 1).
    """
    os.makedirs(out_dir, exist_ok=True)
    batch = batch_tensors([sample], [0], model.dtype)
    with recorded_maps() as recorded:
        model(batch["face"], batch["eye_l"], batch["eye_r"])
    gate = model.splitter.gate().data[0]  # the gate does not depend on the sample
    maps: dict[str, np.ndarray] = {"mask_keep": gate.mean(axis=0), "mask_drop": (1.0 - gate).mean(axis=0)}
    for branch, cascade in (("upper", model.kept_attention), ("lower", model.dropped_attention)):
        last = cascade.steps[-1]
        for i, step in enumerate(last):
            maps[f"{branch}_group{i}_spatial"] = recorded[step.cbam.spatial][0, 0]
        maps[f"{branch}_attention_rows"] = recorded[last[0].nonlocal_][0]
    for stem, arr in maps.items():
        write_pgm(os.path.join(out_dir, f"{stem}.pgm"), normalize_gray(arr))
    return maps
