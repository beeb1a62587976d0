"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The end-to-end training run (criterion 5) executes once as a module fixture;
run with `pytest tests/test_acceptance.py -v -s` to watch progress.
"""

import math
import time

import numpy as np
import pytest

from gazekit import gradcheck as gradcheck_mod
from gazekit.attention import (
    CascadeAttention,
    Cbam,
    GaussianNonLocal,
    gaussian_attention_matrix,
    gaussian_similarity,
    recorded_maps,
)
from gazekit.cli import main as cli_main
from gazekit.config import ModelConfig, TrainConfig, tiny_model_config
from gazekit.layers import Conv2d, conv2d
from gazekit.losses import eye_recon_loss, gaze_loss, region_recon_loss
from gazekit.model import GazeNet
from gazekit.synth import dataset_generate, default_geometry
from gazekit.tensor import Tensor, concat, group_split
from gazekit.train import (
    AdamW,
    constant_predictor,
    dump_attention,
    evaluate,
    load_train_checkpoint,
    metrics_csv_text,
    model_predictor,
    save_train_checkpoint,
    train_loop,
)

RESULTS = []


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite

def test_criterion_1_gradient_suite():
    start = time.time()
    lines = []
    ok = gradcheck_mod.run("all", seeds=range(10), printer=lines.append)
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    report(1, ok, f"finite-difference suite over 10 seeds in {elapsed:.0f}s (<300s); {len(lines)} checks")


# ---------------------------------------------------------------------------
# criterion 2: equation oracles

def test_criterion_2_equation_oracles():
    worst = {}

    # CBAM vs a step-by-step scalar oracle on 1x2x2x2
    block = Cbam(2, ratio=1, rng=rng(1))
    x = rng(2).normal(size=(1, 2, 2, 2))
    ca = block.channel

    def mlp(vec):
        h = [max(0.0, sum(ca.fc1.weight.data[j, i] * vec[i] for i in range(2)) + ca.fc1.bias.data[j]) for j in range(2)]
        return [sum(ca.fc2.weight.data[j, i] * h[i] for i in range(2)) + ca.fc2.bias.data[j] for j in range(2)]

    avg = [x[0, c].mean() for c in range(2)]
    mx = [x[0, c].max() for c in range(2)]
    gate_c = [1.0 / (1.0 + math.exp(-(a + b))) for a, b in zip(mlp(avg), mlp(mx))]
    refined = x[0] * np.asarray(gate_c)[:, None, None]
    stacked = np.stack([refined.mean(axis=0), refined.max(axis=0)])
    padded = np.pad(stacked, ((0, 0), (3, 3), (3, 3)))
    w7 = block.spatial.conv.weight.data[0]
    out_want = np.zeros_like(refined)
    for i in range(2):
        for j in range(2):
            acc = block.spatial.conv.bias.data[0]
            for c in range(2):
                for u in range(7):
                    for v in range(7):
                        acc += padded[c, i + u, j + v] * w7[c, u, v]
            out_want[:, i, j] = refined[:, i, j] / (1.0 + math.exp(-acc))
    got = block(Tensor(x)).data[0]
    worst["cbam"] = np.max(np.abs(got - out_want))

    # Gaussian attention matrix: expansion vs pairwise brute force
    fq = rng(3).normal(size=(1, 2, 2, 2))
    fk = rng(4).normal(size=(1, 2, 2, 2))
    sig = 0.9
    got_a = gaussian_attention_matrix(Tensor(fq), Tensor(fk), Tensor(np.asarray(sig))).data[0]
    want_a = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for n in range(2):
                    d = fq[0, :, i, j] - fk[0, :, m, n]
                    want_a[i * 2 + j, m * 2 + n] = math.exp(-float(d @ d) / (2 * sig * sig))
    worst["gauss_matrix"] = np.max(np.abs(got_a - want_a))

    # conv2d vs the naive six-loop oracle
    layer = Conv2d(3, 4, 3, 2, 1, rng=rng(5))
    layer.bias.data[:] = rng(6).normal(size=4)
    xc = rng(7).normal(size=(2, 3, 8, 8))
    got_c = conv2d(layer, Tensor(xc)).data
    want_c = np.zeros_like(got_c)
    xp = np.pad(xc, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for nb in range(2):
        for o in range(4):
            for i in range(4):
                for j in range(4):
                    acc = layer.bias.data[o]
                    for c in range(3):
                        for u in range(3):
                            for v in range(3):
                                acc += xp[nb, c, 2 * i + u, 2 * j + v] * layer.weight.data[o, c, u, v]
                    want_c[nb, o, i, j] = acc
    worst["conv2d"] = np.max(np.abs(got_c - want_c))

    # losses vs scalar loops
    g = rng(8)
    rl, tl = g.random((2, 3, 2, 2)), g.random((2, 3, 2, 2))
    rr, tr = g.random((2, 3, 2, 2)), g.random((2, 3, 2, 2))
    got_l1 = eye_recon_loss(Tensor(rl), Tensor(rr), Tensor(tl), Tensor(tr)).item()
    want_l1 = sum((a - b) ** 2 for a, b in zip(rl.flat, tl.flat)) / rl.size
    want_l1 += sum((a - b) ** 2 for a, b in zip(rr.flat, tr.flat)) / rr.size
    regions = [g.random((1, 3, 2, 2)) for _ in range(3)]
    targets = [g.random((1, 3, 2, 2)) for _ in range(3)]
    got_l2 = region_recon_loss([Tensor(r) for r in regions], [Tensor(t) for t in targets]).item()
    want_l2 = sum(sum((a - b) ** 2 for a, b in zip(r.flat, t.flat)) / r.size for r, t in zip(regions, targets))
    pred, truth = g.normal(size=(3, 2)), g.normal(size=(3, 2))
    got_lg = gaze_loss(Tensor(pred), Tensor(truth)).item()
    want_lg = sum(abs(pred[i, 0] - truth[i, 0]) + abs(pred[i, 1] - truth[i, 1]) for i in range(3)) / 3.0
    worst["losses"] = max(abs(got_l1 - want_l1), abs(got_l2 - want_l2), abs(got_lg - want_lg))

    # AdamW vs a plain-float scalar reference, 100 steps
    grads = rng(9).normal(size=100)
    p = Tensor(np.asarray(0.8), requires_grad=True)
    opt = AdamW([("w", p)], weight_decay=0.01)
    w, m, v = 0.8, 0.0, 0.0
    lr = 0.02
    for t, gval in enumerate(grads, start=1):
        p.grad = np.asarray(gval)
        opt.step(lr)
        w = w - lr * 0.01 * w
        m = 0.9 * m + 0.1 * gval
        v = 0.999 * v + 0.001 * gval * gval
        w = w - lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    worst["adamw"] = abs(float(p.data) - w)

    tols = {"cbam": 1e-10, "gauss_matrix": 1e-10, "conv2d": 1e-10, "losses": 1e-12, "adamw": 1e-12}
    ok = all(worst[k] < tols[k] for k in tols)
    detail = ", ".join(f"{k}={worst[k]:.1e}(<{tols[k]:.0e})" for k in tols)
    report(2, ok, detail)


# ---------------------------------------------------------------------------
# criterion 3: analytic limits

def test_criterion_3_analytic_limits():
    # sigma -> 1e6 flattens every softmax row to uniform within 1e-3
    block = GaussianNonLocal(4, sigma=1e6, rng=rng(11))
    with recorded_maps() as maps:
        block(Tensor(rng(12).normal(size=(2, 4, 3, 3))))
    rows = maps[block]
    uniform_dev = float(np.max(np.abs(rows - 1.0 / 9.0)))

    # self-similarity is exactly one
    q = Tensor(rng(13).normal(size=6))
    self_sim = gaussian_similarity(q, Tensor(q.data.copy()), Tensor(np.asarray(1.0))).item()

    # mask identity holds bitwise at every step of a 3-epoch run
    geo = default_geometry(16)
    train, test = dataset_generate(3, 16, 0.75, geo, (8, 8))
    model = GazeNet(tiny_model_config(), seed=3)
    tcfg = TrainConfig(epochs=3, batch_size=4, base_lr=1e-3, lr_milestones=(2,), seed=3)
    train_loop(model, train, test, tcfg, mask_identity_check=True)  # raises on violation

    ok = uniform_dev < 1e-3 and self_sim == 1.0
    report(3, ok, f"softmax uniformity dev {uniform_dev:.1e} (<1e-3); G(q,q)={self_sim}; mask identity bitwise over 3 epochs")


# ---------------------------------------------------------------------------
# criterion 4: degenerate-config equivalence

def test_criterion_4_degenerate_cascade():
    block = CascadeAttention(8, 1, 1, sigma=1.0, rng=rng(14))
    x = Tensor(rng(15).normal(size=(2, 8, 4, 4)))
    got = block(x).data
    step = block.steps[0][0]
    x_sub = step.conv_sub(x)
    want = step.conv_tail(concat([step.cbam(x_sub), step.nonlocal_(x_sub)], 1)).data
    err = float(np.max(np.abs(got - want)))
    report(4, err < 1e-12, f"n=1,k_rounds=1 vs single CBAM+Gaussian-non-local composition: max diff {err:.1e} (<1e-12)")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end learning (shared fixture)

@pytest.fixture(scope="module")
def desk_run():
    t0 = time.time()
    mcfg = ModelConfig()  # 64x64 faces, sigma 1.0, groups 4, rounds 4
    tcfg = TrainConfig(epochs=20, batch_size=16, seed=7, data_count=2500, split_ratio=0.8)
    geometry = default_geometry(64)
    train, test = dataset_generate(7, 2500, 0.8, geometry, mcfg.eye_hw)
    model = GazeNet(mcfg, seed=7, dtype=np.float32)
    untrained_err, _ = evaluate(model_predictor(model), test)
    constant_err, _ = evaluate(constant_predictor(0.0, 0.0), test)
    state, history = train_loop(model, train, test, tcfg)
    elapsed = time.time() - t0
    return {
        "model": model,
        "state": state,
        "history": history,
        "untrained": untrained_err,
        "constant": constant_err,
        "elapsed": elapsed,
        "test": test,
        "train_samples": train,
        "mcfg": mcfg,
        "tcfg": tcfg,
    }


def test_criterion_5_end_to_end_learning(desk_run):
    hist = desk_run["history"]
    final_err = hist[-1][5]
    l1_first, l2_first = hist[0][3], hist[0][4]
    l1_last, l2_last = hist[-1][3], hist[-1][4]
    untrained, constant = desk_run["untrained"], desk_run["constant"]
    elapsed = desk_run["elapsed"]
    conds = {
        "final<10deg": final_err < 10.0,
        "final<50%untrained": final_err < 0.5 * untrained,
        "final<constant": final_err < constant,
        "L1halved": l1_last <= 0.5 * l1_first,
        "L2halved": l2_last <= 0.5 * l2_first,
        "runtime<15min": elapsed < 900.0,
    }
    detail = (
        f"2000/500 seed 7, 20 epochs: final {final_err:.2f} deg vs untrained {untrained:.2f} / constant {constant:.2f}; "
        f"L1 {l1_first:.4f}->{l1_last:.4f}, L2 {l2_first:.4f}->{l2_last:.4f}; {elapsed:.0f}s"
    )
    report(5, all(conds.values()), detail + "; " + ", ".join(k for k, v in conds.items() if not v))


# ---------------------------------------------------------------------------
# criterion 6: sweep direction check

def test_criterion_6_sweep(tmp_path):
    t0 = time.time()
    outs = {}
    for param, values in (("k_rounds", "2,4"), ("sigma", "0.5,1.0,2.0")):
        out = tmp_path / f"sweep_{param}"
        rc = cli_main(
            [
                "sweep",
                "--param", param,
                "--values", values,
                "--out", str(out),
                "--count", "600",
                "--epochs", "4",
                "--batch", "16",
                "--seed", "7",
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,test_angular_error_deg,untrained_error_deg,constant_error_deg"
        outs[param] = [ln.split(",") for ln in lines[1:]]
    ok = True
    floors = []
    for param, rows in outs.items():
        for name, value, trained, untrained, const in rows:
            trained, untrained, const = float(trained), float(untrained), float(const)
            ok &= trained < untrained and trained < const
            floors.append(f"{name}={value}:{trained:.2f}deg")
    report(6, ok, f"5 configurations trained at toy scale in {time.time()-t0:.0f}s, all beat baselines: {'; '.join(floors)}")


# ---------------------------------------------------------------------------
# criterion 7: determinism and persistence

def test_criterion_7_determinism_and_persistence(tmp_path):
    geo = default_geometry(16)
    train, test = dataset_generate(11, 16, 0.75, geo, (8, 8))
    tcfg = TrainConfig(epochs=3, batch_size=4, base_lr=1e-3, lr_milestones=(2,), seed=11)

    csvs = []
    for _ in range(2):
        model = GazeNet(tiny_model_config(), seed=11)
        _, hist = train_loop(model, train, test, tcfg)
        csvs.append(metrics_csv_text(hist))
    bitwise_csv = csvs[0] == csvs[1]

    # uninterrupted vs save/load-resumed
    straight = GazeNet(tiny_model_config(), seed=11)
    _, hist_full = train_loop(straight, train, test, tcfg)

    part = GazeNet(tiny_model_config(), seed=11)
    opt = AdamW(list(part.named_parameters()), tcfg.beta1, tcfg.beta2, tcfg.adam_eps, tcfg.weight_decay)
    two = TrainConfig(epochs=2, batch_size=4, base_lr=1e-3, lr_milestones=(2,), seed=11)
    state, hist_a = train_loop(part, train, test, two, optimizer=opt)
    ckpt = tmp_path / "resume.ckpt"
    save_train_checkpoint(ckpt, part, opt, state.epochs_done, 11)

    resumed = GazeNet(tiny_model_config(), seed=55)
    opt2 = AdamW(list(resumed.named_parameters()), tcfg.beta1, tcfg.beta2, tcfg.adam_eps, tcfg.weight_decay)
    load_train_checkpoint(ckpt, resumed, opt2)
    roundtrip_bitwise = all(
        np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(part.named_parameters(), resumed.named_parameters())
    )
    _, hist_b = train_loop(resumed, train, test, tcfg, optimizer=opt2, start_epoch=2)
    resume_dev = max(
        abs(a - b) for row_f, row_m in zip(hist_full, hist_a + hist_b) for a, b in zip(row_f, row_m)
    )
    ok = bitwise_csv and roundtrip_bitwise and resume_dev <= 1e-12
    report(7, ok, f"metric CSVs bitwise-identical: {bitwise_csv}; checkpoint bitwise: {roundtrip_bitwise}; resume deviation {resume_dev:.1e} (<=1e-12)")


# ---------------------------------------------------------------------------
# criterion 8: attention export

def test_criterion_8_attention_export(tmp_path):
    geo = default_geometry(16)
    train, _ = dataset_generate(13, 2, 1.0, geo, (8, 8))
    model = GazeNet(tiny_model_config(), seed=13)
    maps = dump_attention(model, train[0], tmp_path)
    total = maps["mask_keep"] + maps["mask_drop"]
    dev = float(np.max(np.abs(total - total.flat[0])))
    files = sorted(p.name for p in tmp_path.glob("*.pgm"))
    expected = {"mask_keep.pgm", "mask_drop.pgm"}
    ok = dev < 1e-12 and expected.issubset(set(files)) and len(files) >= 6
    report(8, ok, f"{len(files)} heatmaps written; keep+drop mask sum constant within {dev:.1e}")


def test_zzz_print_summary():
    print()
    for line in RESULTS:
        print(line)
