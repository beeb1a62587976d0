"""Workload set-up, timed loops and the checks run after them.

A workload drives ``gazekit.train.train_loop`` in rounds: each round is one
epoch over the next chunk of ``ROUND_STEPS`` batches of an in-memory pool,
with the optimizer carried from round to round. After the timed rounds it
repeats what follows training for a user: save a checkpoint, write the
held-out split as PPM files, and do what ``gazekit eval`` does with them.
Package calls go through module attributes (``train.train_loop``,
``synth.load_split``, ...) so a tracer can wrap them.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import replace

import numpy as np

from gazekit import synth, train
from gazekit.config import ModelConfig, TrainConfig
from gazekit.losses import eye_recon_loss, gaze_loss, region_recon_loss, total_loss
from gazekit.model import GazeNet
from gazekit.tensor import Tape, Tensor, backward

import checks

POOL = 1024  # training samples, cycled through in chunks
HELD_OUT = 256  # samples of the held-out evaluation that ends a training run
ROUND_STEPS = 16  # optimizer steps per train_loop call
# The first three rounds are left out of the step statistics. Until then the
# heap grows: the tape's buffers are allocated and faulted in, and earlier
# steps' tapes pile up until the first full collections free them. Steps at
# batch 16 and at batch 2 alike settle within three rounds.
WARMUP_STEPS = 3 * ROUND_STEPS
MIN_TIMED_STEPS = 100  # so that step_ms_p10 and step_ms_p90 each have ten steps beyond them
# At batch 2 the desk learning rate leaves some seeds at the constant
# predictor's error after a run's few hundred steps, so only runs at this
# batch or larger are held to the accuracy bound.
ACCURACY_MIN_BATCH = 16
EVAL_BATCH = 64  # gazekit eval's batch
CHECK_BATCH = 4  # samples in the gradient and mask-split checks
FD_EPS = 1e-5
# a dead unit's exact-zero pre-activation sits on a relu kink, where the
# central difference averages the two one-sided slopes the tape chooses from
FD_RTOL = 1e-4
ADAMW_SAMPLES = 64
BATCH_INDEPENDENCE_SAMPLES = 8


def peak_rss_mb() -> float:
    """Peak resident set size so far; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


class StampedAdamW(train.AdamW):
    """AdamW that notes when each update ends; consecutive stamps bound a step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: list[float] = []

    def step(self, lr: float) -> None:
        super().step(lr)
        self.stamps.append(time.perf_counter())


def make_optimizer(model: GazeNet, tcfg: TrainConfig) -> StampedAdamW:
    """The optimizer train_loop would build from ``tcfg``."""
    return StampedAdamW(
        list(model.named_parameters()),
        beta1=tcfg.beta1,
        beta2=tcfg.beta2,
        eps=tcfg.adam_eps,
        weight_decay=tcfg.weight_decay,
    )


def desk_train_samples() -> int:
    tcfg = TrainConfig()
    return int(round(tcfg.data_count * tcfg.split_ratio))


# ---------------------------------------------------------------------------
# training


class TrainRun:
    """The desk model, optimizer and schedule on an in-memory pool."""

    def __init__(self, batch: int, seed: int):
        self.cfg = ModelConfig()
        self.batch = batch
        self.geometry = synth.default_geometry(self.cfg.face_size)
        total = POOL + HELD_OUT
        self.pool, self.held_out = synth.dataset_generate(seed, total, POOL / total, self.geometry, self.cfg.eye_hw)
        self.model = GazeNet(self.cfg, seed=seed, dtype=np.float32)
        self.tcfg = TrainConfig(batch_size=batch, seed=seed)
        self.opt = make_optimizer(self.model, self.tcfg)
        self.seed = seed
        self.rounds = 0
        self.held_out_error = None

    def round(self, final: bool) -> list[float]:
        """One train_loop epoch over the next chunk; returns each step's seconds.

        The epoch number handed to train_loop is the desk run's epoch after as
        many samples, so the learning rate follows the desk schedule. The
        final round also runs train_loop's held-out evaluation.
        """
        n = ROUND_STEPS * self.batch
        start = (self.rounds * n) % POOL
        chunk = self.pool[start : start + n]
        epoch = self.desk_epoch()
        tcfg = replace(self.tcfg, epochs=epoch + 1)
        first = len(self.opt.stamps)
        begin = time.perf_counter()
        _, history = train.train_loop(
            self.model, chunk, self.held_out if final else [], tcfg, optimizer=self.opt, start_epoch=epoch
        )
        stamps = [begin] + self.opt.stamps[first:]
        self.rounds += 1
        if final:
            self.held_out_error = history[-1][5]
        return list(np.diff(stamps))

    def desk_epoch(self) -> int:
        return self.rounds * ROUND_STEPS * self.batch // desk_train_samples()

    def learning_rate(self) -> float:
        t = self.tcfg
        return train.multistep_lr(self.desk_epoch(), t.base_lr, t.lr_milestones, t.lr_gamma)

    def timed(self, seconds: float, min_steps: int) -> list[float]:
        """Rounds until ``seconds`` have passed and ``min_steps`` steps are done.

        The round expected to cross the deadline is the last one, and it ends
        with the held-out evaluation.
        """
        steps: list[float] = []
        begin = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - begin
            ending = elapsed + last >= seconds and len(steps) + ROUND_STEPS >= min_steps
            t0 = time.perf_counter()
            steps += self.round(ending)
            last = time.perf_counter() - t0
            if ending:
                return steps


def train_metrics(run: TrainRun, steps: list[float]) -> dict[str, float]:
    timed = steps[WARMUP_STEPS:]
    return {
        "samples_per_s": run.batch * len(timed) / sum(timed),
        "step_ms_p10": percentile_ms(timed, 10),
        "step_ms_p90": percentile_ms(timed, 90),
    }


def batch_of(samples, dtype) -> dict[str, Tensor]:
    return train.batch_tensors(samples, range(len(samples)), dtype)


def desk_loss(model: GazeNet, batch: dict[str, Tensor]) -> Tensor:
    """The loss train_loop minimises, on one batch."""
    out = model(batch["face"], batch["eye_l"], batch["eye_r"])
    l1 = eye_recon_loss(out.recon_left, out.recon_right, batch["eye_l"], batch["eye_r"])
    l2 = region_recon_loss((out.recon_top, out.recon_mid, out.recon_bot), (batch["top"], batch["mid"], batch["bot"]))
    return total_loss(gaze_loss(out.gaze, batch["truth"]), l1, l2, model.cfg.lambda_eye, model.cfg.lambda_region)


def stacked_inputs(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Faces and eye patches as evaluate hands them to a predictor."""
    return tuple(np.stack([getattr(s, key) for s in samples]).astype(np.float64) for key in ("face", "eye_l", "eye_r"))


def truths(samples) -> np.ndarray:
    return np.asarray([[s.truth.pitch, s.truth.yaw] for s in samples])


def predictions(model: GazeNet, samples) -> np.ndarray:
    """Pitch/yaw radians over ``samples``, in evaluate's batches."""
    predict = train.model_predictor(model)
    inputs = stacked_inputs(samples)
    return np.concatenate([predict(*(x[i : i + EVAL_BATCH] for x in inputs)) for i in range(0, len(samples), EVAL_BATCH)])


def directional_derivative(model: GazeNet, samples, seed: int) -> tuple[dict, dict, float]:
    """Tape gradients, a seeded unit direction and the central difference of
    the loss along it, on a float64 copy of ``model``."""
    copy = GazeNet(model.cfg, seed=0, dtype=np.float64)
    copy.load_parameters({name: p.data for name, p in model.named_parameters()})
    batch = batch_of(samples, np.float64)
    params = dict(copy.named_parameters())
    rng = np.random.default_rng((seed, 0x6D))
    direction = {name: rng.standard_normal(p.data.shape) for name, p in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {name: d / norm for name, d in direction.items()}
    with Tape():
        backward(desk_loss(copy, batch))
    grads = {name: p.grad for name, p in params.items()}
    base = {name: p.data.copy() for name, p in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for name, p in params.items():
            p.data = base[name] + sign * FD_EPS * direction[name]
        values.append(float(desk_loss(copy, batch).data))
    for name, p in params.items():
        p.data = base[name]
    return grads, direction, (values[0] - values[1]) / (2.0 * FD_EPS)


def adamw_step_samples(model: GazeNet, opt: train.AdamW, samples, lr: float, seed: int) -> tuple[list, list]:
    """One real update on ``samples``, with a seeded sample of entries before
    and after it: (label, p, g, m, v) before, (label, p, m, v) after."""
    with Tape():
        backward(desk_loss(model, batch_of(samples, model.dtype)))
    params = dict(model.named_parameters())
    names = sorted(params)
    rng = np.random.default_rng((seed, 0x41))
    picks = []
    for k in rng.integers(len(names), size=ADAMW_SAMPLES):
        picks.append((names[k], int(rng.integers(params[names[k]].data.size))))

    def at(arr, i):
        return 0.0 if arr is None else float(arr.reshape(-1)[i])

    before = [(f"{n}[{i}]", at(params[n].data, i), at(params[n].grad, i), at(opt.m[n], i), at(opt.v[n], i)) for n, i in picks]
    opt.step(lr)
    opt.zero_grads()
    after = [(f"{n}[{i}]", at(params[n].data, i), at(opt.m[n], i), at(opt.v[n], i)) for n, i in picks]
    return before, after


def adamw_hyper(opt: train.AdamW) -> dict:
    return dict(beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps, weight_decay=opt.weight_decay)


def check_training(run: TrainRun) -> None:
    """Accuracy, mask split, gradient and optimizer checks, in that order
    (the optimizer check moves the model)."""
    truth = truths(run.held_out)
    checks.check_mean_error(run.held_out_error, predictions(run.model, run.held_out), truth)
    if run.batch >= ACCURACY_MIN_BATCH:
        checks.check_beats_constant(run.held_out_error, truth)

    batch = batch_of(run.held_out[:CHECK_BATCH], run.model.dtype)
    out = run.model(batch["face"], batch["eye_l"], batch["eye_r"])
    checks.check_bitwise(
        "kept + dropped against the face-encoder features",
        out.split.kept.data + out.split.dropped.data,
        run.model.face_encoder(batch["face"]).data,
    )

    grads, direction, fd = directional_derivative(run.model, run.held_out[:CHECK_BATCH], run.seed)
    checks.check_directional_derivative(grads, direction, fd, FD_RTOL)

    lr = run.learning_rate()
    before, after = adamw_step_samples(run.model, run.opt, run.pool[: run.batch], lr, run.seed)
    checks.check_adamw_update(before, after, lr, run.opt.step_count, adamw_hyper(run.opt))


# ---------------------------------------------------------------------------
# evaluation


class EvalCycle:
    """What a user runs after training: ``gazekit train`` saves a checkpoint,
    the held-out split is written as PPM files, and ``gazekit eval`` loads both
    into a float64 model and evaluates at batch 64."""

    def __init__(self, run: TrainRun, workdir: str):
        checkpoint = os.path.join(workdir, "model.ckpt")
        split_dir = os.path.join(workdir, "held_out")
        train.save_train_checkpoint(checkpoint, run.model, run.opt, run.rounds, run.seed)
        synth.dump_split(split_dir, run.held_out, run.geometry)
        self.model = GazeNet(run.cfg, seed=0)  # float64, as cmd_eval builds it
        train.load_train_checkpoint(checkpoint, self.model)
        self.split = synth.load_split(split_dir, run.cfg.eye_hw)
        preds = []
        predict = train.model_predictor(self.model)

        def captured(face, eye_l, eye_r):
            preds.append(predict(face, eye_l, eye_r))
            return preds[-1]

        self.mean, _ = train.evaluate(captured, self.split, batch_size=EVAL_BATCH)
        self.predictions = np.concatenate(preds)


def check_eval(run: TrainRun, cycle: EvalCycle) -> None:
    """Mean error, batch independence, checkpoint and PPM checks on the eval
    cycle; run before check_training, whose optimizer check moves the model."""
    checks.check_mean_error(cycle.mean, cycle.predictions, truths(cycle.split))

    rng = np.random.default_rng((run.seed, 0x42))
    picks = sorted(rng.choice(len(cycle.split), size=BATCH_INDEPENDENCE_SAMPLES, replace=False))
    inputs = stacked_inputs(cycle.split)
    checks.check_batch_independence(train.model_predictor(cycle.model), inputs, cycle.predictions, picks, EVAL_BATCH)

    # float32 to float64 is exact, so the widened parameters must match bitwise
    saved = {name: p.data.astype(np.float64) for name, p in run.model.named_parameters()}
    checks.check_params_equal({name: p.data for name, p in cycle.model.named_parameters()}, saved)
    checks.check_ppm_faces([s.face for s in cycle.split], [s.face for s in run.held_out])
