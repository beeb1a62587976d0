"""Self-tests of the benchmark: each correctness check passes on gazekit's
real outputs and fails when handed a wrong one, and the tracer reports every
per-layer metric that BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from gazekit import layers, synth, train  # noqa: E402
from gazekit.config import TrainConfig, tiny_model_config  # noqa: E402
from gazekit.model import GazeNet  # noqa: E402
from tracer import Tracer  # noqa: E402

CFG = tiny_model_config()
GEOMETRY = synth.default_geometry(CFG.face_size)


@pytest.fixture(scope="module")
def samples():
    return synth.dataset_generate(4, 24, 1.0, GEOMETRY, CFG.eye_hw)[0]


@pytest.fixture
def model():
    """A tiny model moved off its initialisation, whose zero biases would put
    dead units exactly on relu kinks."""
    net = GazeNet(CFG, seed=5, dtype=np.float32)
    rng = np.random.default_rng(0)
    for p in net.parameters():
        p.data = (p.data + rng.normal(0.0, 1e-2, p.data.shape)).astype(np.float32)
    return net


def test_mean_error_check_rejects_perturbed_prediction(samples):
    truth = w.truths(samples)
    pred = truth + np.random.default_rng(0).normal(0.0, 0.05, truth.shape)
    table = iter(np.split(pred, [8, 16]))
    reported, _ = train.evaluate(lambda face, el, er: next(table), samples, batch_size=8)
    checks.check_mean_error(reported, pred, truth)
    moved = pred.copy()
    moved[3, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_mean_error(reported, moved, truth)


def test_accuracy_check_rejects_constant_predictor(samples):
    truth = w.truths(samples)
    checks.check_beats_constant(checks.mean_angular_error_deg(truth * 0.5, truth), truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_beats_constant(checks.mean_angular_error_deg(np.zeros_like(truth), truth), truth)


def test_gradient_check_rejects_flipped_sign(model, samples):
    grads, direction, fd = w.directional_derivative(model, samples[: w.CHECK_BATCH], seed=3)
    checks.check_directional_derivative(grads, direction, fd, w.FD_RTOL)
    name = max(direction, key=lambda n: np.abs(grads[n] * direction[n]).max())
    flipped = dict(grads)
    flipped[name] = grads[name].copy().reshape(-1)
    k = int(np.argmax(np.abs(flipped[name] * direction[name].reshape(-1))))
    flipped[name][k] = -flipped[name][k]
    flipped[name] = flipped[name].reshape(grads[name].shape)
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_derivative(flipped, direction, fd, w.FD_RTOL)


def test_optimizer_check_rejects_changed_update(model, samples):
    opt = w.make_optimizer(model, TrainConfig())
    lr = 2e-3
    w.adamw_step_samples(model, opt, samples[:4], lr, seed=1)  # moments are nonzero from here on
    before, after = w.adamw_step_samples(model, opt, samples[4:8], lr, seed=1)
    checks.check_adamw_update(before, after, lr, opt.step_count, w.adamw_hyper(opt))
    label, p1, m1, v1 = after[7]
    changed = list(after)
    changed[7] = (label, p1 + 2 * checks.adamw_tolerance(p1, lr), m1, v1)
    with pytest.raises(checks.CheckFailed):
        checks.check_adamw_update(before, changed, lr, opt.step_count, w.adamw_hyper(opt))


def test_ppm_check_rejects_moved_byte(samples, tmp_path):
    synth.dump_split(tmp_path, samples, GEOMETRY)
    rendered = [s.face for s in samples]
    checks.check_ppm_faces([s.face for s in synth.load_split(tmp_path, CFG.eye_hw)], rendered)
    path = tmp_path / "00002.ppm"
    blob = bytearray(path.read_bytes())
    blob[-5] = blob[-5] + 2 if blob[-5] < 200 else blob[-5] - 2
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed):
        checks.check_ppm_faces([s.face for s in synth.load_split(tmp_path, CFG.eye_hw)], rendered)


def test_batch_independence_check_rejects_batch_dependent_prediction(model, samples):
    inputs = w.stacked_inputs(samples)
    predict = train.model_predictor(model)
    checks.check_batch_independence(predict, inputs, predict(*inputs), [0, 5, 17], len(samples))

    def coupled(face, el, er):
        return predict(face, el, er) + 1e-3 * face.mean()

    with pytest.raises(checks.CheckFailed):
        checks.check_batch_independence(coupled, inputs, coupled(*inputs), [0, 5, 17], len(samples))


def test_checkpoint_check_rejects_changed_parameter(model, tmp_path):
    saved = {n: p.data.copy() for n, p in model.named_parameters()}
    train.save_train_checkpoint(tmp_path / "m.ckpt", model, None, 0, 0)
    loaded = GazeNet(CFG, seed=0, dtype=np.float32)
    train.load_train_checkpoint(tmp_path / "m.ckpt", loaded)
    params = {n: p.data for n, p in loaded.named_parameters()}
    checks.check_params_equal(params, saved)
    name = next(iter(params))
    params[name] = np.nextafter(params[name], np.float32(np.inf))
    with pytest.raises(checks.CheckFailed):
        checks.check_params_equal(params, saved)


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_reports_every_per_layer_metric_and_restores(model, samples, tmp_path):
    tracer = Tracer()
    opt = w.make_optimizer(model, TrainConfig())
    conv2d, cls = layers.conv2d, type(model.kept_attention)
    with tracer.installed(model, opt):
        synth.dataset_generate(5, 2, 1.0, GEOMETRY, CFG.eye_hw)
        tcfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        train.train_loop(model, samples[:16], samples[16:], tcfg, optimizer=opt)
        train.save_train_checkpoint(tmp_path / "m.ckpt", model, opt, 1, 0)
        train.load_train_checkpoint(tmp_path / "m.ckpt", model)
        synth.dump_split(tmp_path / "split", samples[:4], GEOMETRY)
        synth.load_split(tmp_path / "split", CFG.eye_hw)
    assert layers.conv2d is conv2d and type(model.kept_attention) is cls
    metrics = tracer.per_layer(overhead_pct=0.0)
    assert set(metrics) == set(run.declared_units()[1])
    assert all(np.isfinite(v) and v >= 0 for v in metrics.values())
    modules = sum(v for k, v in metrics.items() if k.endswith(".tape_entries") and not k.startswith("tensor."))
    assert metrics["tensor.tape_entries"] > modules > 0
