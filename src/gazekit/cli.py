"""Command-line surface.

Subcommands: gen-data, train, eval, gradcheck, dump-attention, sweep.
Run `gazekit <command> --help` for per-command flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from .config import ModelConfig, TrainConfig, load_config, save_config
from .model import GazeNet
from .synth import (
    dataset_generate,
    default_geometry,
    dump_split,
    load_split,
    make_sample,
    read_manifest,
)
from .tensor import UsageError
from .train import (
    constant_predictor,
    dump_attention,
    evaluate,
    load_model,
    metrics_csv_text,
    model_predictor,
    save_train_checkpoint,
    train_loop,
)


# flag -> TrainConfig field; a command applies those of its flags that are given
_TRAIN_OVERRIDES = (
    ("epochs", "epochs"),
    ("batch", "batch_size"),
    ("seed", "seed"),
    ("lr", "base_lr"),
    ("count", "data_count"),
)


def _training_setup(args):
    """Configs with the command's training-flag overrides, and the train/test
    split read from --data or generated in memory."""
    mcfg, tcfg = load_config(args.config) if args.config else (ModelConfig(), TrainConfig())
    for flag, key in _TRAIN_OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(tcfg, key, value)
    tcfg.validate()
    if args.data:
        train = load_split(os.path.join(args.data, "train"), mcfg.eye_hw)
        test = load_split(os.path.join(args.data, "test"), mcfg.eye_hw)
    else:
        geometry = default_geometry(mcfg.face_size)
        train, test = dataset_generate(tcfg.seed, tcfg.data_count, tcfg.split_ratio, geometry, mcfg.eye_hw)
    return mcfg, tcfg, train, test


def cmd_gen_data(args) -> int:
    geometry = default_geometry(args.face_size)
    train, test = dataset_generate(args.seed, args.count, args.split_ratio, geometry, tuple(args.eye_size))
    dump_split(os.path.join(args.out, "train"), train, geometry)
    dump_split(os.path.join(args.out, "test"), test, geometry)
    print(f"wrote {len(train)} train / {len(test)} test samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    mcfg, tcfg, train, test = _training_setup(args)
    dtype = np.float64 if args.dtype == "float64" else np.float32
    model = GazeNet(mcfg, seed=tcfg.seed, dtype=dtype)
    print(f"training {model.parameter_count()} parameters on {len(train)} samples ({dtype})")

    def hook(epoch, row):
        print(f"epoch {row[0]:3d}  lr {row[1]:.2e}  Lg {row[2]:.4f}  L1 {row[3]:.4f}  L2 {row[4]:.4f}  test {row[5]:.2f} deg")

    state, history = train_loop(model, train, test, tcfg, epoch_hook=hook)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv_text(history))
    save_train_checkpoint(os.path.join(args.out, "model.ckpt"), model, state.optimizer, state.epochs_done, tcfg.seed)
    save_config(os.path.join(args.out, "config.txt"), mcfg, tcfg)
    print(f"final test angular error: {history[-1][5]:.2f} deg")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    test = load_split(os.path.join(args.data, "test"), model.cfg.eye_hw)
    mean, rows = evaluate(model_predictor(model), test)
    if args.report:
        lines = ["sample_id,truth_pitch_deg,truth_yaw_deg,pred_pitch_deg,pred_yaw_deg,angular_error_deg"]
        lines += [f"{i},{tp!r},{ty!r},{pp!r},{py!r},{e!r}" for i, tp, ty, pp, py, e in rows]
        with open(args.report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print(f"mean angular error: {mean:.2f} deg over {len(rows)} samples")
    return 0


def cmd_gradcheck(args) -> int:
    ok = gradcheck_mod.run(args.module, seeds=range(args.seeds))
    print("gradient checks passed" if ok else "gradient checks FAILED")
    return 0 if ok else 1


def cmd_dump_attention(args) -> int:
    if args.data:
        test_dir = os.path.join(args.data, "test")
        count = len(read_manifest(test_dir))
        if not 0 <= args.sample < count:
            raise UsageError(f"--sample {args.sample} is not an index of the test split ({count} samples)")
    model = load_model(args.checkpoint)
    mcfg = model.cfg
    if args.data:
        sample = load_split(test_dir, mcfg.eye_hw)[args.sample]
    else:
        sample = make_sample(args.sample, 0, default_geometry(mcfg.face_size), mcfg.eye_hw)
    maps = dump_attention(model, sample, args.out)
    print(f"wrote {len(maps)} attention maps to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    mcfg, tcfg, train, test = _training_setup(args)
    values = []
    for tok in args.values.split(","):
        values.append(int(tok) if args.param == "k_rounds" else float(tok))

    constant_err, _ = evaluate(constant_predictor(0.0, 0.0), test)
    rows = []
    for value in values:
        cfg = dataclasses.replace(mcfg, **({"rounds": value} if args.param == "k_rounds" else {"sigma": value}))
        model = GazeNet(cfg, seed=tcfg.seed, dtype=np.float32)
        untrained_err, _ = evaluate(model_predictor(model), test)
        _, history = train_loop(model, train, test, tcfg)
        trained_err = history[-1][5]
        rows.append((args.param, value, trained_err, untrained_err, constant_err))
        print(f"{args.param}={value}: trained {trained_err:.2f} deg, untrained {untrained_err:.2f}, constant {constant_err:.2f}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w") as fh:
        fh.write("param,value,test_angular_error_deg,untrained_error_deg,constant_error_deg\n")
        for name, value, a, b, c in rows:
            fh.write(f"{name},{value},{a!r},{b!r},{c!r}\n")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gazekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic labeled dataset to disk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=2500)
    p.add_argument("--out", required=True)
    p.add_argument("--split-ratio", type=float, default=0.8, dest="split_ratio")
    p.add_argument("--face-size", type=int, default=64, dest="face_size")
    p.add_argument("--eye-size", type=int, nargs=2, default=(24, 40), dest="eye_size")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model, writing metrics.csv and model.ckpt")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--data", default=None, help="directory from gen-data; omitted = generate in memory")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None, help="per-sample CSV output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification suites")
    p.add_argument("--module", choices=(*gradcheck_mod.SUITES, "all"), default="all")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="export mask/attention heatmaps for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", type=int, default=0, help="test index (with --data) or render seed")
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None)
    p.set_defaults(fn=cmd_dump_attention)

    p = sub.add_parser("sweep", help="rerun training over a small hyperparameter grid")
    p.add_argument("--param", choices=("k_rounds", "sigma"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
