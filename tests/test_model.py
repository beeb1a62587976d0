import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazekit.config import ModelConfig, tiny_model_config
from gazekit.model import (
    CheckpointError,
    GazeNet,
    MaskSplitter,
    load_checkpoint,
    mask_drop,
    mask_keep,
    save_checkpoint,
)
from gazekit.train import AdamW, load_model, load_train_checkpoint, save_train_checkpoint
from gazekit.tensor import DimensionError, Tape, Tensor, backward, finite_diff_check, sum_
from gazekit import tensor as T


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_net(seed=0):
    return GazeNet(tiny_model_config(), seed=seed)


def tiny_inputs(batch=2, seed=3):
    g = rng(seed)
    return (
        Tensor(g.random((batch, 3, 16, 16))),
        Tensor(g.random((batch, 3, 8, 8))),
        Tensor(g.random((batch, 3, 8, 8))),
    )


# ---------------------------------------------------------------------------
# mask split

def test_mask_split_starts_at_half():
    sp = MaskSplitter(4, 3)
    f = Tensor(rng(1).normal(size=(2, 4, 3, 3)))
    gate, kept, dropped = sp(f)
    np.testing.assert_array_equal(gate.data, np.full((1, 4, 3, 3), 0.5))
    np.testing.assert_array_equal(kept.data, 0.5 * f.data)
    np.testing.assert_array_equal(dropped.data, 0.5 * f.data)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_mask_split_identity_is_bitwise(seed):
    g = rng(seed)
    f = Tensor(g.normal(size=(2, 3, 4, 4)) * 10.0 ** g.integers(-6, 6))
    gate = Tensor(1.0 / (1.0 + np.exp(-g.normal(size=(1, 3, 4, 4)) * 4)))
    kept = mask_keep(f, gate)
    dropped = mask_drop(f, gate)
    assert np.array_equal(kept.data + dropped.data, f.data)


def test_mask_split_values_track_gate():
    g = rng(7)
    f = Tensor(g.normal(size=(1, 2, 2, 2)))
    gate = Tensor(g.uniform(0.01, 0.99, size=(1, 2, 2, 2)))
    kept = mask_keep(f, gate).data
    dropped = mask_drop(f, gate).data
    np.testing.assert_allclose(kept, gate.data * f.data, rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(dropped, (1 - gate.data) * f.data, rtol=1e-14, atol=1e-16)


def test_mask_saturation_routes_exactly():
    sp = MaskSplitter(2, 2)
    sp.logits.data[0] = 1e9  # channel 0 fully kept
    sp.logits.data[1] = -1e9  # channel 1 fully dropped
    f = Tensor(rng(8).normal(size=(3, 2, 2, 2)))
    _, kept, dropped = sp(f)
    np.testing.assert_array_equal(kept.data[:, 0], f.data[:, 0])
    np.testing.assert_array_equal(kept.data[:, 1], np.zeros_like(f.data[:, 1]))
    np.testing.assert_array_equal(dropped.data[:, 1], f.data[:, 1])
    np.testing.assert_array_equal(dropped.data[:, 0], np.zeros_like(f.data[:, 0]))


@pytest.mark.parametrize("seed", range(10))
def test_mask_split_gradcheck(seed):
    g = rng(seed + 40)
    f = Tensor(g.normal(size=(2, 2, 3, 3)), requires_grad=True)
    gate_logits = Tensor(g.normal(size=(1, 2, 3, 3)), requires_grad=True)

    def run(_):
        gate = T.sigmoid(gate_logits)
        return sum_(T.sigmoid(mask_keep(f, gate))) + sum_(T.sigmoid(mask_drop(f, gate))) * 0.5

    assert finite_diff_check(run, f) < 1e-5
    assert finite_diff_check(run, gate_logits) < 1e-5


# ---------------------------------------------------------------------------
# encoders and heads

def test_eye_encoder_swap_permutes_halves():
    net = tiny_net()
    _, el, er = tiny_inputs()
    a = net.eye_encoder(el, er).data
    b = net.eye_encoder(er, el).data
    half = a.shape[1] // 2
    np.testing.assert_array_equal(a[:, :half], b[:, half:])
    np.testing.assert_array_equal(a[:, half:], b[:, :half])


def test_eye_encoder_deterministic_on_zero_input():
    net = tiny_net()
    z = Tensor(np.zeros((1, 3, 8, 8)))
    a = net.eye_encoder(z, z).data
    b = net.eye_encoder(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((1, 3, 8, 8)))).data
    assert np.array_equal(a, b)
    assert a.shape == (1, 2 * net.eye_encoder.per_eye)


def test_face_encoder_shape_desk_ladder():
    net = GazeNet(ModelConfig(), seed=0)
    face = Tensor(rng(1).random((1, 3, 64, 64)))
    feats = net.face_encoder(face)
    assert feats.shape == (1, 64, 4, 4)
    assert np.all(np.isfinite(feats.data))


def test_pose_branch_output_dim():
    net = tiny_net()
    face, _, _ = tiny_inputs()
    assert net.pose_branch(face).shape == (2, 32)


def test_gaze_head_zero_final_layer_predicts_origin():
    net = tiny_net()
    net.gaze_head.fc2.weight.data[:] = 0.0
    net.gaze_head.fc2.bias.data[:] = 0.0
    out = net(*tiny_inputs())
    np.testing.assert_array_equal(out.gaze.data, np.zeros((2, 2)))


def test_gaze_head_input_width():
    net = tiny_net()
    cfg = tiny_model_config()
    assert net.gaze_head.in_features == cfg.channels + net.eye_encoder.out_features + cfg.pose_dim


# ---------------------------------------------------------------------------
# decoders

def test_decoder_shapes_and_ranges():
    net = tiny_net()
    out = net(*tiny_inputs())
    assert out.recon_left.shape == (2, 3, 8, 8)
    assert out.recon_right.shape == (2, 3, 8, 8)
    assert out.recon_top.shape == (2, 3, 5, 16)
    assert out.recon_mid.shape == (2, 3, 3, 16)
    assert out.recon_bot.shape == (2, 3, 8, 16)
    for t in (out.recon_left, out.recon_top, out.recon_mid, out.recon_bot):
        assert np.all(t.data > 0.0) and np.all(t.data < 1.0)


def test_desk_decoder_shapes():
    net = GazeNet(ModelConfig(), seed=2)
    g = rng(5)
    out = net(Tensor(g.random((1, 3, 64, 64))), Tensor(g.random((1, 3, 24, 40))), Tensor(g.random((1, 3, 24, 40))))
    assert out.recon_left.shape == (1, 3, 24, 40)
    assert out.recon_top.shape == (1, 3, 19, 64)
    assert out.recon_mid.shape == (1, 3, 12, 64)
    assert out.recon_bot.shape == (1, 3, 33, 64)


# ---------------------------------------------------------------------------
# full forward

def test_forward_rejects_wrong_extents():
    net = tiny_net()
    face, el, er = tiny_inputs()
    with pytest.raises(DimensionError):
        net(Tensor(np.zeros((2, 3, 17, 16))), el, er)
    with pytest.raises(DimensionError):
        net(face, Tensor(np.zeros((2, 3, 9, 8))), er)


def test_forward_batch_independence_bitwise():
    net = tiny_net(seed=4)
    face, el, er = tiny_inputs(batch=4, seed=9)
    full = net(face, el, er)
    for i in range(4):
        single = net(
            Tensor(face.data[i : i + 1]), Tensor(el.data[i : i + 1]), Tensor(er.data[i : i + 1])
        )
        for key in ("gaze", "recon_left", "recon_top", "recon_mid", "recon_bot"):
            got_full = getattr(full, key).data[i]
            got_single = getattr(single, key).data[0]
            assert np.array_equal(got_full, got_single), key


def test_forward_deterministic():
    net = tiny_net(seed=6)
    face, el, er = tiny_inputs(seed=11)
    a = net(face, el, er).gaze.data
    b = net(face, el, er).gaze.data
    assert np.array_equal(a, b)


def test_same_seed_same_parameters():
    a = tiny_net(seed=9)
    b = tiny_net(seed=9)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_mask_identity_holds_through_forward():
    net = tiny_net(seed=13)
    face, el, er = tiny_inputs(seed=14)
    out = net(face, el, er)
    feats = net.face_encoder(face)
    assert np.array_equal(out.split.kept.data + out.split.dropped.data, feats.data)


def test_float32_model_runs_and_stays_float32():
    net = GazeNet(tiny_model_config(), seed=0, dtype=np.float32)
    g = rng(21)
    out = net(
        Tensor(g.random((1, 3, 16, 16)).astype(np.float32)),
        Tensor(g.random((1, 3, 8, 8)).astype(np.float32)),
        Tensor(g.random((1, 3, 8, 8)).astype(np.float32)),
    )
    assert out.gaze.data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_predict_equals_forward_gaze_bitwise(dtype):
    net = GazeNet(tiny_model_config(), seed=5, dtype=dtype)
    face, el, er = (Tensor(t.data.astype(dtype)) for t in tiny_inputs(batch=3, seed=16))
    got = net.predict(face.data, el.data, er.data)
    want = net(face, el, er).gaze.data
    assert got.dtype == dtype
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# checkpoint format

def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    records = [(f"param/{n}", a) for n, a in net.state_arrays()]
    save_checkpoint(path, net.cfg, records)
    _, back = load_checkpoint(path)
    for name, arr in records:
        assert np.array_equal(back[name], arr)

    # forward equality after reload into a differently-seeded model
    other = tiny_net(seed=99)
    other.load_parameters({n[len("param/") :]: a for n, a in back.items()})
    face, el, er = tiny_inputs(seed=15)
    assert np.array_equal(net(face, el, er).gaze.data, other(face, el, er).gaze.data)


def test_checkpoint_truncation_detected(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [(f"param/{n}", a) for n, a in net.state_arrays()])
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage_detected(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [(f"param/{n}", a) for n, a in net.state_arrays()])
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_config_guard(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [(f"param/{n}", a) for n, a in net.state_arrays()])
    other_cfg = tiny_model_config()
    other_cfg.groups = 1
    with pytest.raises(CheckpointError):
        load_train_checkpoint(path, GazeNet(other_cfg))


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [("param/x", np.zeros(2))])
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _checkpoint_with_names(tmp_path, names, edit):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [(n, np.zeros(2)) for n in names])
    blob = path.read_bytes()
    old, new = edit
    assert blob.count(old) == 1 and len(old) == len(new)
    path.write_bytes(blob.replace(old, new))
    return path


def test_checkpoint_rejects_non_utf8_record_name(tmp_path):
    path = _checkpoint_with_names(tmp_path, ["param/a"], (b"param/a", b"param/\xff"))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_checkpoint(path)


def test_checkpoint_rejects_duplicate_record_name(tmp_path):
    path = _checkpoint_with_names(tmp_path, ["param/a", "param/b"], (b"param/b", b"param/a"))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_checkpoint_rejects_format_1(tmp_path):
    net = tiny_net(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, [("param/x", np.zeros(2))])
    blob = bytearray(path.read_bytes())
    blob[8] = 1  # format 1 held a config digest where format 2 holds the config text
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, message",
    [((b"groups = 2", b"groups = \xff"), "utf-8"), ((b"groups = 2", b"groups = x"), "groups")],
)
def test_checkpoint_rejects_unreadable_model_config(tmp_path, edit, message):
    path = _checkpoint_with_names(tmp_path, ["param/a"], edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_carries_its_model_config(tmp_path):
    cfg = tiny_model_config()
    cfg.rounds, cfg.sigma = 3, 0.75
    net = GazeNet(cfg, seed=7, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_train_checkpoint(path, net, None, 0, 0)
    assert load_checkpoint(path)[0] == cfg
    loaded = load_model(path)
    assert loaded.cfg == cfg and loaded.dtype == np.float64
    for (name, a), (_, b) in zip(net.state_arrays(), loaded.state_arrays()):
        assert np.array_equal(a, b), name


def _train_state(net, opt):
    return [a.copy() for _, a in net.state_arrays()] + [a.copy() for _, a in opt.state_records()]


def _same_state(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _tiny_train_objects(seed):
    net = tiny_net(seed=seed)
    return net, AdamW(list(net.named_parameters()))


@pytest.mark.parametrize(
    "victim, bad",
    [
        ("last parameter", np.zeros(3)),
        ("first moment", np.zeros(3)),
        ("first moment", None),
        ("state/step", np.asarray(np.inf)),
        ("state/step", np.asarray(-1.0)),
        ("state/epochs_done", np.asarray(np.nan)),
        ("state/seed", np.asarray(0.5)),
    ],
    ids=["param-shape", "moment-shape", "moment-missing", "step-inf", "step-negative", "epochs-nan", "seed-fraction"],
)
def test_load_train_checkpoint_checks_every_record_before_assigning(tmp_path, victim, bad):
    net, opt = _tiny_train_objects(7)
    params = [n for n, _ in net.state_arrays()]
    name = {"last parameter": f"param/{params[-1]}", "first moment": f"adam_m/{params[0]}"}.get(victim, victim)
    records = dict([(f"param/{n}", a) for n, a in net.state_arrays()] + opt.state_records())
    if bad is None:
        del records[name]
    else:
        records[name] = bad
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.cfg, list(records.items()))
    other, other_opt = _tiny_train_objects(1)
    before = _train_state(other, other_opt)
    with pytest.raises(CheckpointError):
        load_train_checkpoint(path, other, other_opt)
    assert _same_state(_train_state(other, other_opt), before)


def test_checkpoint_rejects_shape_numpy_cannot_hold(tmp_path):
    # rank 70 reads 69 more extents from the zero payload: an empty array of 70 dimensions
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model_config(), [("param/a", np.zeros(100))])
    path.write_bytes(path.read_bytes().replace(b"param/a\x01", b"param/a\x46"))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def train_checkpoint(tmp_path_factory):
    """A tiny model's checkpoint with optimizer moments and a step count."""
    net, opt = _tiny_train_objects(7)
    g = rng(4)
    for _, p in net.named_parameters():
        p.grad = g.standard_normal(p.data.shape)
    opt.step(1e-3)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_train_checkpoint(path, net, opt, 3, 5)
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_train_checkpoint_loads_or_raises_checkpoint_error(train_checkpoint, data):
    blob = train_checkpoint.read_bytes()
    # Most of the file is float payload. Positions near the start cover the
    # header, the config and the first records' names and shapes; positions
    # near the end cover the counters. The special bytes make infinities,
    # NaNs, sign flips and zero or huge extents.
    n = len(blob)
    at = data.draw(st.one_of(st.integers(0, 2000), st.integers(n - 200, n - 1), st.integers(0, n - 1)), label="at")
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:at]
    else:
        byte = data.draw(
            st.one_of(st.sampled_from([0x00, 0x01, 0x46, 0x7F, 0x80, 0xFF]), st.integers(0, 255))
            .filter(lambda b: b != blob[at]),
            label="byte",
        )
        blob = blob[:at] + bytes([byte]) + blob[at + 1 :]
    path = train_checkpoint.with_name("damaged.ckpt")
    path.write_bytes(blob)
    net, opt = _tiny_train_objects(1)
    before = _train_state(net, opt)
    try:
        load_train_checkpoint(path, net, opt)
    except CheckpointError:
        assert _same_state(_train_state(net, opt), before)
