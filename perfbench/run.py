"""Benchmark for gazekit: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload train_b16 --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same object goes to
``perfbench/results/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"  # numpy and gazekit are imported only after main() has set this

WORKLOADS = {"train_b16": 16, "train_b2": 2}  # training batch


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, by name, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def alternate(seconds: float, plain_round, traced_round) -> tuple[list, list]:
    """Untraced and traced rounds in turn, at least two of each, so that both
    meet the same machine load; returns the results of each kind."""
    plain, traced = [], []
    begin = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - begin < seconds:
        plain.append(plain_round())
        traced.append(traced_round())
    return plain, traced


def run_train(args, batch: int, workdir: str):
    import workloads as w
    from tracer import Tracer

    if not args.trace:
        run = w.TrainRun(batch, args.seed)
        setup_s = process_age_s()
        steps = run.timed(args.seconds, w.WARMUP_STEPS + w.MIN_TIMED_STEPS)
        metrics = {"setup_s": setup_s, **w.train_metrics(run, steps), "peak_rss_mb": w.peak_rss_mb()}
        w.check_eval(run, w.EvalCycle(run, workdir))
        w.check_training(run)
        return metrics, len(steps), None

    tracer = Tracer()
    with tracer.installed():
        run = w.TrainRun(batch, args.seed)

    def traced_round():
        with tracer.installed(run.model, run.opt):
            return run.round(False)

    plain_rounds, traced_rounds = alternate(args.seconds, lambda: run.round(False), traced_round)
    plain_rounds.append(run.round(True))
    plain, traced = sum(plain_rounds, []), sum(traced_rounds, [])
    with tracer.installed(run.model, run.opt):
        cycle = w.EvalCycle(run, workdir)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain[1:]) - 1.0)
    w.check_eval(run, cycle)
    w.check_training(run)
    return tracer.per_layer(overhead), len(plain) + len(traced), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gazekit", "__init__.py")):
        print(f"perfbench: no gazekit package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read once, when numpy loads BLAS
    sys.path.insert(0, SRC)
    import gazekit

    if os.path.dirname(os.path.abspath(gazekit.__file__)) != os.path.join(SRC, "gazekit"):
        print(f"perfbench: gazekit imported from {gazekit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    correct, problem = True, None
    try:
        metrics, attempted, tracer = run_train(args, WORKLOADS[args.workload], workdir)
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
        metrics, attempted, tracer = {}, 1, None
    finally:
        shutil.rmtree(workdir)

    units = declared_units()[args.trace]
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics measured and declared differ: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "environment": environment(), "problem": problem, **result}, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.spans_json(), fh)

    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}")
    if problem:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
