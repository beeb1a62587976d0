"""Full gaze-estimation architecture.

A face encoder produces a feature block that a learned continuous mask splits
into a kept (gaze-relevant) and a dropped (gaze-irrelevant) stream. Each
stream runs through its own cascaded attention block; the kept stream decodes
to the two eye patches and feeds the gaze head (together with eye-encoder
features and a head-pose vector), the dropped stream decodes to the non-eye
face regions.

The mask split is arranged so kept + dropped reconstructs the input features
bit-for-bit: whichever side has the larger gate is computed as a rounded
product and the other side as the exact difference (Sterbenz), so the sum has
no rounding error.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .attention import CascadeAttention
from .config import ModelConfig, parse_config_text, write_config_text
from .layers import Conv2d, ConvTranspose2d, Linear, Module, global_avg_pool
from .tensor import (
    ConfigError,
    DimensionError,
    Tensor,
    apply_op,
    concat,
    relu,
    reshape,
    sigmoid,
    slice_axis,
)


class CheckpointError(RuntimeError):
    """Checkpoint file is truncated, corrupt, or built for another config."""


# ---------------------------------------------------------------------------
# continuous-mask feature split

def mask_keep(features: Tensor, gate: Tensor) -> Tensor:
    """kept = gate * features, with the complement arranged to sum exactly."""
    fd, kd = features.data, gate.data
    hi = kd >= 0.5
    out = np.where(hi, kd * fd, fd - (1.0 - kd) * fd)

    def back(g):
        return g * kd, (g * fd).sum(axis=0, keepdims=True)

    return apply_op((features, gate), out, back)


def mask_drop(features: Tensor, gate: Tensor) -> Tensor:
    """dropped = (1 - gate) * features; mask_keep + mask_drop == features bitwise."""
    fd, kd = features.data, gate.data
    hi = kd >= 0.5
    out = np.where(hi, fd - kd * fd, (1.0 - kd) * fd)

    def back(g):
        return g * (1.0 - kd), -(g * fd).sum(axis=0, keepdims=True)

    return apply_op((features, gate), out, back)


class MaskSplitter(Module):
    """Free logits of the feature shape; sigmoid gives the gate in (0, 1).

    Logits start at zero, so both streams initially receive half the signal.
    """

    def __init__(self, channels: int, size: int):
        self.logits = Tensor(np.zeros((channels, size, size)), requires_grad=True)

    def gate(self) -> Tensor:
        c, h, w = self.logits.data.shape
        return sigmoid(reshape(self.logits, (1, c, h, w)))

    def __call__(self, features: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        g = self.gate()
        return g, mask_keep(features, g), mask_drop(features, g)


@dataclass
class MaskedFeatures:
    gate: Tensor  # (1, c, h, w) in (0, 1)
    kept: Tensor  # (b, c, h, w)
    dropped: Tensor  # (b, c, h, w)


# ---------------------------------------------------------------------------
# encoders

class ConvStack(Module):
    """Stride-2 3x3 conv + relu per stage."""

    def __init__(self, in_channels: int, ladder, rng):
        self.stages = []
        c = in_channels
        for out_c in ladder:
            self.stages.append(Conv2d(c, out_c, 3, stride=2, padding=1, rng=rng))
            c = out_c

    def __call__(self, x: Tensor) -> Tensor:
        for stage in self.stages:
            x = relu(stage(x))
        return x


class EyeEncoder(Module):
    """Shared-weight conv stack per eye; flattened features concatenated
    left-then-right."""

    def __init__(self, cfg: ModelConfig, rng):
        self.stack = ConvStack(3, cfg.eye_channels, rng)
        h, w = cfg.eye_hw
        for _ in cfg.eye_channels:
            h = (h - 1) // 2 + 1
            w = (w - 1) // 2 + 1
        self.per_eye = cfg.eye_channels[-1] * h * w

    @property
    def out_features(self) -> int:
        return 2 * self.per_eye

    def __call__(self, eye_l: Tensor, eye_r: Tensor) -> Tensor:
        b = eye_l.data.shape[0]
        fl = reshape(self.stack(eye_l), (b, self.per_eye))
        fr = reshape(self.stack(eye_r), (b, self.per_eye))
        return concat([fl, fr], 1)


class PoseBranch(Module):
    """Three stride-2 convs, global average pool, linear head. Trained only
    through the gaze loss (no pose labels exist)."""

    def __init__(self, cfg: ModelConfig, rng):
        self.stack = ConvStack(3, cfg.pose_channels, rng)
        self.head = Linear(cfg.pose_channels[-1], cfg.pose_dim, rng=rng)

    def __call__(self, face: Tensor) -> Tensor:
        feats = self.stack(face)
        b, c = feats.data.shape[0], feats.data.shape[1]
        return self.head(reshape(global_avg_pool(feats), (b, c)))


# ---------------------------------------------------------------------------
# decoders

class EyeDecoder(Module):
    """Shared up-sampling trunk, one sigmoid conv head per eye."""

    def __init__(self, cfg: ModelConfig, rng):
        c, h = cfg.channels, cfg.feature_size
        c0, c1 = cfg.eye_decoder_channels
        fy = cfg.eye_height // (2 * h)
        fx = cfg.eye_width // (2 * h)
        self.up1 = ConvTranspose2d(c, c0, 2, 2, rng=rng)
        self.up2 = ConvTranspose2d(c0, c1, (fy, fx), (fy, fx), rng=rng)
        self.head_l = Conv2d(c1, 3, 3, padding=1, rng=rng)
        self.head_r = Conv2d(c1, 3, 3, padding=1, rng=rng)

    def __call__(self, features: Tensor) -> tuple[Tensor, Tensor]:
        trunk = relu(self.up2(relu(self.up1(features))))
        return sigmoid(self.head_l(trunk)), sigmoid(self.head_r(trunk))


class RegionDecoder(Module):
    """Up-sampling trunk back to face resolution; three sigmoid conv heads,
    each applied to its own band of trunk rows."""

    def __init__(self, cfg: ModelConfig, rng):
        self.rows = (*cfg.band_rows, cfg.face_size)
        c = cfg.channels
        self.stages = []
        for out_c in cfg.region_decoder_channels:
            self.stages.append(ConvTranspose2d(c, out_c, 2, 2, rng=rng))
            c = out_c
        self.heads = [Conv2d(c, 3, 3, padding=1, rng=rng) for _ in range(3)]

    def __call__(self, features: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        x = features
        for stage in self.stages:
            x = relu(stage(x))
        r1, r2, hf = self.rows
        bands = (slice_axis(x, 2, 0, r1), slice_axis(x, 2, r1, r2), slice_axis(x, 2, r2, hf))
        top, mid, bot = (sigmoid(head(band)) for head, band in zip(self.heads, bands))
        return top, mid, bot


class GazeHead(Module):
    """Pooled kept-stream features + eye features + pose vector -> (pitch, yaw)."""

    def __init__(self, cfg: ModelConfig, eye_features: int, rng):
        self.in_features = cfg.channels + eye_features + cfg.pose_dim
        self.fc1 = Linear(self.in_features, cfg.gaze_hidden, rng=rng)
        self.fc2 = Linear(cfg.gaze_hidden, 2, rng=rng)

    def __call__(self, pooled: Tensor, eye_feats: Tensor, pose: Tensor) -> Tensor:
        joined = concat([pooled, eye_feats, pose], 1)
        return self.fc2(relu(self.fc1(joined)))


# ---------------------------------------------------------------------------
# full model

@dataclass
class ForwardOutput:
    gaze: Tensor  # (b, 2) radians
    recon_left: Tensor
    recon_right: Tensor
    recon_top: Tensor
    recon_mid: Tensor
    recon_bot: Tensor
    split: MaskedFeatures


class GazeNet(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float64):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.eye_encoder = EyeEncoder(cfg, rng)
        self.face_encoder = ConvStack(3, cfg.encoder_channels, rng)
        self.splitter = MaskSplitter(cfg.channels, cfg.feature_size)
        self.kept_attention = CascadeAttention(
            cfg.channels, cfg.groups, cfg.rounds, cfg.sigma, cfg.learnable_sigma, cfg.mlp_ratio, rng
        )
        self.dropped_attention = CascadeAttention(
            cfg.channels, cfg.groups, cfg.rounds, cfg.sigma, cfg.learnable_sigma, cfg.mlp_ratio, rng
        )
        self.eye_decoder = EyeDecoder(cfg, rng)
        self.region_decoder = RegionDecoder(cfg, rng)
        self.pose_branch = PoseBranch(cfg, rng)
        self.gaze_head = GazeHead(cfg, self.eye_encoder.out_features, rng)
        if self.dtype != np.float64:
            self.cast(self.dtype)

    def _check_inputs(self, face, eye_l, eye_r):
        fs, (eh, ew) = self.cfg.face_size, self.cfg.eye_hw
        if face.data.ndim != 4 or face.data.shape[1:] != (3, fs, fs):
            raise DimensionError(f"face must be (b,3,{fs},{fs}), got {face.data.shape}")
        for eye in (eye_l, eye_r):
            if eye.data.shape[1:] != (3, eh, ew) or eye.data.shape[0] != face.data.shape[0]:
                raise DimensionError(f"eyes must be (b,3,{eh},{ew}), got {eye.data.shape}")

    def _encode(self, face: Tensor, eye_l: Tensor, eye_r: Tensor) -> tuple[Tensor, MaskedFeatures]:
        """Eye features and the mask split of the face features."""
        self._check_inputs(face, eye_l, eye_r)
        eye_feats = self.eye_encoder(eye_l, eye_r)
        gate, kept, dropped = self.splitter(self.face_encoder(face))
        return eye_feats, MaskedFeatures(gate, kept, dropped)

    def _gaze(self, face: Tensor, eye_feats: Tensor, up: Tensor) -> Tensor:
        """Gaze angles from the attended kept stream, eye features and pose."""
        pose = self.pose_branch(face)
        pooled = reshape(global_avg_pool(up), (face.data.shape[0], self.cfg.channels))
        return self.gaze_head(pooled, eye_feats, pose)

    def forward(self, face: Tensor, eye_l: Tensor, eye_r: Tensor) -> ForwardOutput:
        eye_feats, split = self._encode(face, eye_l, eye_r)
        up = self.kept_attention(split.kept)
        low = self.dropped_attention(split.dropped)
        recon_l, recon_r = self.eye_decoder(up)
        top, mid, bot = self.region_decoder(low)
        gaze = self._gaze(face, eye_feats, up)
        return ForwardOutput(gaze, recon_l, recon_r, top, mid, bot, split)

    __call__ = forward

    def predict(self, face_batch: np.ndarray, eye_l_batch: np.ndarray, eye_r_batch: np.ndarray) -> np.ndarray:
        """(b, 2) gaze angles in radians, outside any tape. Only the gaze path
        runs; the dropped cascade and both decoders feed only the
        reconstruction losses, so they are skipped."""
        face = Tensor(face_batch)
        eye_feats, split = self._encode(face, Tensor(eye_l_batch), Tensor(eye_r_batch))
        return self._gaze(face, eye_feats, self.kept_attention(split.kept)).data

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p.data) for name, p in self.named_parameters()]

    def load_parameters(self, mapping: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(mapping)
        extra = set(mapping) - set(own)
        if missing or extra:
            raise CheckpointError(f"parameter name mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, tensor in own.items():  # every shape is checked before any tensor is replaced
            if mapping[name].shape != tensor.data.shape:
                raise CheckpointError(f"shape mismatch for {name}: {mapping[name].shape} vs {tensor.data.shape}")
        for name, tensor in own.items():
            tensor.data = mapping[name].astype(tensor.data.dtype, copy=True)


# ---------------------------------------------------------------------------
# checkpoint format
#
#   magic (8 bytes)  "GZKCKPT\0"
#   version          uint32 LE
#   config_len       uint32 LE
#   model config     config_len bytes of utf-8 ``key = value`` text, the
#                    model fields as config.write_config_text writes them
#   record count     uint32 LE
#   records:         name_len uint16 LE, name utf-8, rank uint8,
#                    rank * extent uint32 LE, payload float64 LE
#
# The same record stream carries parameters ("param/<name>"), optimizer
# moments ("adam_m/...", "adam_v/...") and scalar counters ("state/<name>").
# Loaders build the model from the embedded config or refuse a model built
# from another one; version 1 held only a sha256 of the config.

CKPT_MAGIC = b"GZKCKPT\x00"
CKPT_VERSION = 2


def save_checkpoint(path, cfg: ModelConfig, records: list[tuple[str, np.ndarray]]) -> None:
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    config_text = write_config_text(cfg).encode()
    buf.write(struct.pack("<I", len(config_text)))
    buf.write(config_text)
    buf.write(struct.pack("<I", len(records)))
    for name, arr in records:
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # 0-d arrays are always contiguous
        encoded = name.encode()
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", arr.ndim))
        for e in arr.shape:
            buf.write(struct.pack("<I", e))
        buf.write(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """The model config a checkpoint was written for and its records by name."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("checkpoint truncated")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(CKPT_MAGIC))) != CKPT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {CKPT_VERSION})")
    (config_len,) = struct.unpack("<I", take(4))
    try:
        cfg, _ = parse_config_text(bytes(take(config_len)).decode())
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"unreadable model config: {exc}") from None
    (count,) = struct.unpack("<I", take(4))
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode()
        except UnicodeDecodeError:
            raise CheckpointError("record name is not valid utf-8") from None
        if name in records:
            raise CheckpointError(f"duplicate record {name!r}")
        (rank,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        payload = take(8 * n)
        try:
            records[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError:  # numpy refuses the rank or the extents
            raise CheckpointError(f"record {name!r} has an unsupported shape {shape}") from None
    if pos != len(view):
        raise CheckpointError("trailing bytes after the last record")
    return cfg, records
