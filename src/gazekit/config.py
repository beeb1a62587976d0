"""Run configuration: architecture and training hyperparameters, plus the
flat key = value text format used by the CLI.

Schema (version 1): one ``key = value`` pair per line, ``#`` comments,
lists comma-separated.

    config_version      int, must be 1
    face_size           square face extent (pixels)
    eye_height, eye_width
    encoder_channels    conv ladder of the face encoder; last entry is the
                        feature channel count c; ladder length fixes the
                        feature grid (face_size / 2^len)
    eye_channels        conv ladder of the per-eye encoder
    groups, rounds      cascade attention shape (channels divisible by groups)
    sigma               Gaussian similarity width (> 0)
    learnable_sigma     0/1 (or false/true)
    mlp_ratio           channel-attention bottleneck ratio
    pose_channels       head-pose conv ladder (three stride-2 stages)
    pose_dim            head-pose feature width
    gaze_hidden         gaze head hidden width
    eye_decoder_channels, region_decoder_channels
    lambda_eye, lambda_region  loss weights
    epochs, batch_size, base_lr, lr_milestones, lr_gamma,
    beta1, beta2, adam_eps, weight_decay, seed, data_count, split_ratio

Extents, widths, counts and ladder entries are positive integers, seed is a
non-negative integer and split_ratio lies in (0, 1]. The region decoder's
eye-band rows are not a key: they follow from face_size through the scene
geometry (:attr:`ModelConfig.band_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .synth import default_geometry
from .tensor import ConfigError

CONFIG_VERSION = 1


def _check_counts(cfg, exempt=()) -> None:
    """ConfigError naming the key unless every int field is >= 1 and every int
    ladder is non-empty with entries >= 1; fields in ``exempt`` are skipped."""
    for f in fields(cfg):
        if f.name in exempt:
            continue
        value = getattr(cfg, f.name)
        if f.type == "int" and value < 1:
            raise ConfigError(f"{f.name} must be >= 1, got {value}")
        if f.type.startswith("tuple[int") and (not value or min(value) < 1):
            raise ConfigError(f"{f.name} must be non-empty with entries >= 1, got {value}")


@dataclass
class ModelConfig:
    face_size: int = 64
    eye_height: int = 24
    eye_width: int = 40
    encoder_channels: tuple[int, ...] = (16, 32, 64, 64)
    eye_channels: tuple[int, ...] = (16, 32, 32)
    groups: int = 4
    rounds: int = 4
    sigma: float = 1.0
    learnable_sigma: bool = False
    mlp_ratio: int = 4
    pose_channels: tuple[int, ...] = (8, 16, 32)
    pose_dim: int = 32
    gaze_hidden: int = 128
    eye_decoder_channels: tuple[int, ...] = (32, 16)
    region_decoder_channels: tuple[int, ...] = (32, 16, 8, 8)
    lambda_eye: float = 1.0
    lambda_region: float = 1.0

    @property
    def channels(self) -> int:
        return self.encoder_channels[-1]

    @property
    def feature_size(self) -> int:
        return self.face_size // (2 ** len(self.encoder_channels))

    @property
    def eye_hw(self) -> tuple[int, int]:
        return self.eye_height, self.eye_width

    @property
    def band_rows(self) -> tuple[int, int]:
        """Eye-band row bounds that split the face into the decoder's regions."""
        return default_geometry(self.face_size).band_rows

    def validate(self) -> None:
        _check_counts(self)
        c, h = self.channels, self.feature_size
        if self.face_size != h * 2 ** len(self.encoder_channels):
            raise ConfigError("face_size must be feature_size * 2^(encoder stages)")
        if h < 1:
            raise ConfigError("encoder ladder reduces the face below 1 pixel")
        if c % self.groups != 0:
            raise ConfigError(f"channels {c} not divisible by groups {self.groups}")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.face_size % 8 != 0:
            raise ConfigError("pose branch needs face_size divisible by 8")
        if self.eye_height % (2 * h) != 0 or self.eye_width % (2 * h) != 0:
            raise ConfigError(
                f"eye extents {self.eye_height}x{self.eye_width} must be multiples of {2 * h} for the eye decoder"
            )
        if len(self.region_decoder_channels) != len(self.encoder_channels):
            raise ConfigError("region decoder needs one stage per encoder stage")
        if len(self.eye_decoder_channels) != 2:
            raise ConfigError("eye decoder has exactly two stages")
        if len(self.pose_channels) != 3:
            raise ConfigError("pose branch has exactly three stages")
        if min(self.lambda_eye, self.lambda_region) < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    base_lr: float = 2e-3
    lr_milestones: tuple[int, ...] = (8, 15)
    lr_gamma: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-2
    seed: int = 0
    data_count: int = 2500
    split_ratio: float = 0.8

    def validate(self) -> None:
        _check_counts(self, exempt=("seed", "lr_milestones"))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.split_ratio <= 1:
            raise ConfigError(f"split_ratio must lie in (0, 1], got {self.split_ratio}")
        if self.base_lr <= 0 or not 0 < self.lr_gamma <= 1:
            raise ConfigError("base_lr must be positive and lr_gamma in (0, 1]")
        if not 0.5 <= self.beta1 < 1 or not 0.5 <= self.beta2 < 1:
            raise ConfigError("betas must lie in [0.5, 1)")
        if self.weight_decay < 0 or self.adam_eps <= 0:
            raise ConfigError("weight_decay >= 0 and adam_eps > 0 required")


def paper_scale_train_config() -> TrainConfig:
    """The published protocol: 40 epochs, lr 1e-4, milestones [10, 25]."""
    return TrainConfig(epochs=40, batch_size=48, base_lr=1e-4, lr_milestones=(10, 25))


def tiny_model_config() -> ModelConfig:
    """Smallest exercisable model (features 8 x 4 x 4), used by gradient checks."""
    return ModelConfig(
        face_size=16,
        eye_height=8,
        eye_width=8,
        encoder_channels=(6, 8),
        eye_channels=(4, 6),
        groups=2,
        rounds=2,
        gaze_hidden=16,
        eye_decoder_channels=(6, 6),
        region_decoder_channels=(6, 4),
    )


# ---------------------------------------------------------------------------
# flat text serialization

def _format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


_BOOLS = {"0": False, "false": False, "False": False, "1": True, "true": True, "True": True}


def _parse_value(key: str, t: str, text: str):
    """``text`` read as a value of field type ``t``; ConfigError names ``key``."""
    try:
        if t == "int":
            return int(text)
        if t == "float":
            return float(text)
        if t == "bool":
            return _BOOLS[text]
        if t.startswith("tuple[int"):
            return tuple(int(x) for x in text.split(",") if x.strip())
    except (ValueError, KeyError):
        raise ConfigError(f"config key {key}: {text!r} is not a valid {t}") from None
    raise ConfigError(f"unhandled config field type {t} for {key}")


def _parse_into(cls, raw: dict[str, str]):
    return cls(**{f.name: _parse_value(f.name, f.type, raw[f.name]) for f in fields(cls) if f.name in raw})


def write_config_text(*configs) -> str:
    """The versioned ``key = value`` text of the given configs' fields."""
    lines = [f"config_version = {CONFIG_VERSION}"]
    for obj in configs:
        for f in fields(obj):
            lines.append(f"{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> tuple[ModelConfig, TrainConfig]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip()] = value.strip()
    version = _parse_value("config_version", "int", raw.pop("config_version", "-1"))
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version} (expected {CONFIG_VERSION})")
    known = {f.name for f in fields(ModelConfig)} | {f.name for f in fields(TrainConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    model = _parse_into(ModelConfig, raw)
    train = _parse_into(TrainConfig, raw)
    model.validate()
    train.validate()
    return model, train


def save_config(path, model: ModelConfig, train: TrainConfig) -> None:
    with open(path, "w") as fh:
        fh.write(write_config_text(model, train))


def load_config(path) -> tuple[ModelConfig, TrainConfig]:
    with open(path) as fh:
        return parse_config_text(fh.read())

