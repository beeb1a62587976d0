import dataclasses
import os

import numpy as np
import pytest

from gazekit.cli import main
from gazekit.config import (
    ModelConfig,
    TrainConfig,
    load_config,
    model_digest,
    parse_config_text,
    save_config,
    tiny_model_config,
    write_config_text,
)
from gazekit.model import GazeNet
from gazekit.synth import default_geometry, dump_split, load_split, dataset_generate
from gazekit.tensor import ConfigError
from gazekit.train import train_loop


# ---------------------------------------------------------------------------
# config file format

def test_config_roundtrip(tmp_path):
    mcfg = tiny_model_config()
    tcfg = TrainConfig(epochs=3, base_lr=5e-4, lr_milestones=(1, 2), seed=9)
    path = tmp_path / "run.cfg"
    save_config(path, mcfg, tcfg)
    m2, t2 = load_config(path)
    assert m2 == mcfg and t2 == tcfg


def test_config_text_is_flat_key_value():
    text = write_config_text(ModelConfig(), TrainConfig())
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0] == "config_version = 1"
    assert all("=" in ln for ln in lines)
    assert "encoder_channels = 16,32,64,64" in lines


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config_text("config_version = 1\nbogus_key = 3\n")


def test_config_rejects_wrong_version():
    with pytest.raises(ConfigError):
        parse_config_text("config_version = 2\n")


def test_config_comments_and_spacing():
    m, t = parse_config_text("config_version = 1\n# comment\nepochs = 7  # trailing\n")
    assert t.epochs == 7


def test_config_validation_catches_bad_groups():
    with pytest.raises(ConfigError):
        parse_config_text("config_version = 1\ngroups = 5\n")


def test_config_validation_catches_band_rows_off_the_geometry():
    # the default band rows belong to face_size 64; at 32 the eye band is 10..16
    cfg = ModelConfig(face_size=32, encoder_channels=(16, 32, 64), region_decoder_channels=(16, 8, 8))
    with pytest.raises(ConfigError, match=r"\(19, 31\).*\(10, 16\)"):
        cfg.validate()
    fixed = dataclasses.replace(cfg, band_top=10, band_bottom=16)
    train, test = dataset_generate(0, 4, 0.5, default_geometry(32), fixed.eye_hw)
    train_loop(GazeNet(fixed), train, test, TrainConfig(epochs=1, batch_size=2))


def test_digest_changes_with_architecture():
    a = model_digest(ModelConfig())
    b = model_digest(ModelConfig(groups=2))
    assert a != b and len(a) == 32


def test_published_protocol_remains_selectable(tmp_path):
    from gazekit.config import paper_scale_train_config

    tcfg = paper_scale_train_config()
    assert (tcfg.epochs, tcfg.base_lr, tuple(tcfg.lr_milestones), tcfg.lr_gamma) == (40, 1e-4, (10, 25), 0.1)
    path = tmp_path / "pub.cfg"
    save_config(path, ModelConfig(), tcfg)
    _, back = load_config(path)
    assert back == tcfg


# ---------------------------------------------------------------------------
# dataset dump/load interface

def test_dump_load_split_roundtrip(tmp_path):
    geo = default_geometry(64)
    train, _ = dataset_generate(3, 4, 1.0, geo, (24, 40))
    dump_split(tmp_path / "train", train, geo)
    assert (tmp_path / "train" / "manifest.csv").exists()
    back = load_split(tmp_path / "train", (24, 40))
    assert len(back) == 4
    for orig, loaded in zip(train, back):
        # truths round-trip exactly (repr-formatted degrees)
        assert abs(orig.truth.pitch - loaded.truth.pitch) < 1e-15
        assert abs(orig.truth.yaw - loaded.truth.yaw) < 1e-15
        # faces round-trip through 8-bit quantization
        assert np.max(np.abs(orig.face - loaded.face)) <= 0.5 / 255.0 + 1e-6
        assert loaded.eye_l.shape == (3, 24, 40)


# ---------------------------------------------------------------------------
# end-to-end CLI runs (tiny scale)

@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    mcfg = tiny_model_config()
    tcfg = TrainConfig(epochs=2, batch_size=4, base_lr=1e-3, lr_milestones=(1,), seed=5, data_count=12, split_ratio=0.5)
    save_config(path, mcfg, tcfg)
    return str(path)


@pytest.fixture(scope="module")
def tiny_data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    rc = main(
        [
            "gen-data",
            "--seed", "5",
            "--count", "12",
            "--out", str(out),
            "--split-ratio", "0.5",
            "--face-size", "16",
            "--eye-size", "8", "8",
        ]
    )
    assert rc == 0
    return str(out)


def test_cli_gen_data_layout(tiny_data_dir):
    assert os.path.exists(os.path.join(tiny_data_dir, "train", "manifest.csv"))
    assert os.path.exists(os.path.join(tiny_data_dir, "test", "00000.ppm"))


def test_cli_train_eval_dump_sweep(tiny_cfg_file, tiny_data_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    rc = main(
        [
            "train",
            "--config", tiny_cfg_file,
            "--data", tiny_data_dir,
            "--out", str(run_dir),
        ]
    )
    assert rc == 0
    metrics = (run_dir / "metrics.csv").read_text()
    assert metrics.splitlines()[0] == "epoch,lr,Lg,L1,L2,test_angular_error_deg"
    assert (run_dir / "model.ckpt").exists()

    report = tmp_path / "report.csv"
    rc = main(
        [
            "eval",
            "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", tiny_data_dir,
            "--config", tiny_cfg_file,
            "--report", str(report),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean angular error:" in out
    lines = report.read_text().splitlines()
    assert lines[0].startswith("sample_id,truth_pitch_deg")
    assert len(lines) == 7  # header + 6 test samples

    maps_dir = tmp_path / "maps"
    rc = main(
        [
            "dump-attention",
            "--checkpoint", str(run_dir / "model.ckpt"),
            "--config", tiny_cfg_file,
            "--data", tiny_data_dir,
            "--sample", "1",
            "--out", str(maps_dir),
        ]
    )
    assert rc == 0
    assert (maps_dir / "mask_keep.pgm").exists()
    assert (maps_dir / "upper_group0_spatial.pgm").exists()

    sweep_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--param", "sigma",
            "--values", "0.5,1.0",
            "--config", tiny_cfg_file,
            "--data", tiny_data_dir,
            "--epochs", "1",
            "--out", str(sweep_dir),
        ]
    )
    assert rc == 0
    sweep_lines = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "param,value,test_angular_error_deg,untrained_error_deg,constant_error_deg"
    assert len(sweep_lines) == 3


def test_cli_train_deterministic_metrics(tiny_cfg_file, tiny_data_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        main(["train", "--config", tiny_cfg_file, "--data", tiny_data_dir, "--out", str(run_dir)])
        outs.append((run_dir / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_gradcheck_smoke(capsys):
    rc = main(["gradcheck", "--module", "losses", "--seeds", "2"])
    assert rc == 0
    assert "[pass]" in capsys.readouterr().out
