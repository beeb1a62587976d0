"""Procedural gaze-scene generator.

Renders a stylized face (elliptical head, two sclerae, gaze-driven pupils,
nose/mouth strokes) on a gray background. Pupil centers are offset from the
eye centers by (kx * tan(yaw), -ky * tan(pitch)), which is the learnable
signal; brightness, a small in-plane roll, and seeded additive noise provide
nuisance variation. Everything is deterministic in (seed, parameters).

Eye patches are crops at fixed, known boxes; the face splits into top / mid /
bottom row bands around the eye band, with the eye boxes zero-masked out of
the middle band.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .losses import GazeAngles
from .tensor import ConfigError

MAX_ANGLE_DEG = 25.0


@dataclass(frozen=True)
class SceneGeometry:
    face_hw: tuple[int, int] = (64, 64)
    head_center: tuple[float, float] = (32.0, 33.0)  # (x, y)
    head_radii: tuple[float, float] = (25.0, 28.0)
    eye_centers: tuple[tuple[float, float], tuple[float, float]] = ((21.0, 25.0), (43.0, 25.0))
    sclera_radii: tuple[float, float] = (8.0, 5.5)
    pupil_radius: float = 1.8
    # pixel offset per tan(angle), sized so the whole anti-aliased pupil disc
    # stays inside the sclera (and the eye box) at +/-25 deg
    pupil_gain: tuple[float, float] = (11.15, 6.86)
    eye_boxes: tuple[tuple[int, int, int, int], tuple[int, int, int, int]] = (
        (11, 19, 31, 31),  # (x0, y0, x1, y1), half-open
        (33, 19, 53, 31),
    )
    noise_amp: float = 0.02

    @property
    def band_rows(self) -> tuple[int, int]:
        """Eye-band row bounds (r1, r2) derived from the eye boxes."""
        r1 = min(b[1] for b in self.eye_boxes)
        r2 = max(b[3] for b in self.eye_boxes)
        return r1, r2


def default_geometry(face_size: int = 64) -> SceneGeometry:
    """Scale the 64x64 reference geometry to a square face of another size."""
    if face_size == 64:
        return SceneGeometry()
    s = face_size / 64.0
    ref = SceneGeometry()

    def sc(v):
        return tuple(x * s for x in v)

    boxes = tuple(tuple(int(round(c * s)) for c in box) for box in ref.eye_boxes)
    return SceneGeometry(
        face_hw=(face_size, face_size),
        head_center=sc(ref.head_center),
        head_radii=sc(ref.head_radii),
        eye_centers=(sc(ref.eye_centers[0]), sc(ref.eye_centers[1])),
        sclera_radii=sc(ref.sclera_radii),
        pupil_radius=ref.pupil_radius * s,
        pupil_gain=sc(ref.pupil_gain),
        eye_boxes=boxes,
        noise_amp=ref.noise_amp,
    )


@dataclass(frozen=True)
class SampleMeta:
    seed: int
    brightness: float
    roll: float


@dataclass
class GazeSample:
    face: np.ndarray  # (3, H, W) in [0, 1]
    eye_l: np.ndarray
    eye_r: np.ndarray
    region_top: np.ndarray
    region_mid: np.ndarray
    region_bot: np.ndarray
    truth: GazeAngles
    meta: SampleMeta


_BG = np.array([0.35, 0.35, 0.35])
_SKIN = np.array([0.80, 0.62, 0.50])
_SCLERA = np.array([0.95, 0.95, 0.95])
_PUPIL = np.array([0.05, 0.05, 0.08])
_NOSE = np.array([0.55, 0.40, 0.32])
_MOUTH = np.array([0.60, 0.25, 0.25])


def _paint(img: np.ndarray, coverage: np.ndarray, color: np.ndarray) -> None:
    img *= 1.0 - coverage[None]
    img += color[:, None, None] * coverage[None]


def _ellipse_cov(x, y, cx, cy, rx, ry):
    d = np.sqrt(((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2)
    softness = min(rx, ry)
    return np.clip(0.5 + (1.0 - d) * softness, 0.0, 1.0)


def _disc_cov(x, y, cx, cy, r):
    dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
    return np.clip(r + 0.5 - dist, 0.0, 1.0)


def _stroke_cov(x, y, x0, x1, y0, y1, thickness):
    """Soft axis-aligned capsule between the rectangle [x0,x1] x [y0,y1]."""
    dx = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
    dist = np.sqrt(dx * dx + dy * dy)
    return np.clip(thickness + 0.5 - dist, 0.0, 1.0)


def render_scene(
    seed: int,
    truth: GazeAngles,
    brightness: float,
    roll: float,
    geometry: SceneGeometry | None = None,
    noise_amp: float | None = None,
) -> np.ndarray:
    """Render one face as a (3, H, W) float array in [0, 1].

    ``noise_amp=0.0`` gives a clean render (useful for geometric oracles);
    by default the geometry's seeded noise amplitude applies.
    """
    geo = geometry if geometry is not None else SceneGeometry()
    if abs(math.degrees(truth.pitch)) > MAX_ANGLE_DEG + 1e-9 or abs(math.degrees(truth.yaw)) > MAX_ANGLE_DEG + 1e-9:
        raise ConfigError(f"gaze angles outside +/-{MAX_ANGLE_DEG} degrees")
    h, w = geo.face_hw
    ys, xs = np.mgrid[0:h, 0:w].astype(float)

    # evaluate all shapes in the rolled head frame; eye boxes stay image-aligned
    cx0, cy0 = (w - 1) / 2.0, (h - 1) / 2.0
    c, s = math.cos(roll), math.sin(roll)
    x = c * (xs - cx0) + s * (ys - cy0) + cx0
    y = -s * (xs - cx0) + c * (ys - cy0) + cy0

    img = np.empty((3, h, w))
    img[:] = _BG[:, None, None]
    hcx, hcy = geo.head_center
    _paint(img, _ellipse_cov(x, y, hcx, hcy, *geo.head_radii), _SKIN)

    rx, ry = geo.sclera_radii
    kx, ky = geo.pupil_gain
    dx = kx * math.tan(truth.yaw)
    dy = -ky * math.tan(truth.pitch)
    for ecx, ecy in geo.eye_centers:
        _paint(img, _ellipse_cov(x, y, ecx, ecy, rx, ry), _SCLERA)
        # gain limits keep the disc inside the sclera, so no clipping is needed
        # and the pupil centroid stays an unbiased gaze signal
        _paint(img, _disc_cov(x, y, ecx + dx, ecy + dy, geo.pupil_radius), _PUPIL)

    _paint(img, _stroke_cov(x, y, hcx, hcx, hcy - 2.0, hcy + 9.0, 0.9), _NOSE)
    _paint(img, _stroke_cov(x, y, hcx - 6.0, hcx + 6.0, hcy + 15.0, hcy + 15.0, 1.1), _MOUTH)

    img *= brightness
    amp = geo.noise_amp if noise_amp is None else noise_amp
    if amp > 0.0:
        rng = np.random.default_rng((seed, 0x6E))
        img += rng.uniform(-amp, amp, size=img.shape)
    return np.clip(img, 0.0, 1.0)


# ---------------------------------------------------------------------------
# crops and regions

def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-aligned bilinear resize of a (c, h, w) image."""
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    sy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    sx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    sy = np.clip(sy, 0.0, h - 1.0)
    sx = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[None, :, None]
    wx = (sx - x0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def crop_eyes(face: np.ndarray, geometry: SceneGeometry, eye_hw: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Cut the two eye boxes out of the face; bilinear-resize when the box
    extents differ from the requested eye extents."""
    out = []
    for x0, y0, x1, y1 in geometry.eye_boxes:
        crop = face[:, y0:y1, x0:x1]
        if crop.shape[1:] != tuple(eye_hw):
            crop = bilinear_resize(crop, *eye_hw)
        else:
            crop = crop.copy()
        out.append(crop)
    return out[0], out[1]


def region_split(face: np.ndarray, geometry: SceneGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split into top/mid/bottom row bands; eye boxes are zeroed in the mid band."""
    r1, r2 = geometry.band_rows
    top = face[:, :r1, :].copy()
    mid = face[:, r1:r2, :].copy()
    bot = face[:, r2:, :].copy()
    for x0, y0, x1, y1 in geometry.eye_boxes:
        mid[:, y0 - r1 : y1 - r1, x0:x1] = 0.0
    return top, mid, bot


def reassemble_face(top, mid, bot, eye_l, eye_r, geometry: SceneGeometry) -> np.ndarray:
    """Inverse of region_split + crop_eyes when eye extents match the boxes."""
    face = np.concatenate([top, mid, bot], axis=1)
    for (x0, y0, x1, y1), eye in zip(geometry.eye_boxes, (eye_l, eye_r)):
        face[:, y0:y1, x0:x1] = eye
    return face


# ---------------------------------------------------------------------------
# dataset

def make_sample(
    base_seed: int,
    index: int,
    geometry: SceneGeometry,
    eye_hw: tuple[int, int],
    dtype=np.float32,
) -> GazeSample:
    if base_seed < 0 or index < 0:
        raise ConfigError(f"render seed and index must be non-negative, got seed {base_seed}, index {index}")
    sample_seed = base_seed * 1_000_003 + index
    rng = np.random.default_rng(sample_seed)
    limit = math.radians(MAX_ANGLE_DEG)
    pitch, yaw = rng.uniform(-limit, limit, size=2)
    brightness = rng.uniform(0.7, 1.3)
    roll = rng.uniform(-0.03, 0.03)
    truth = GazeAngles(float(pitch), float(yaw))
    face = render_scene(sample_seed, truth, brightness, roll, geometry).astype(dtype)
    eye_l, eye_r = crop_eyes(face, geometry, eye_hw)
    top, mid, bot = region_split(face, geometry)
    return GazeSample(
        face=face,
        eye_l=eye_l.astype(dtype),
        eye_r=eye_r.astype(dtype),
        region_top=top,
        region_mid=mid,
        region_bot=bot,
        truth=truth,
        meta=SampleMeta(sample_seed, float(brightness), float(roll)),
    )


def dataset_generate(
    seed: int,
    count: int,
    split_ratio: float = 0.8,
    geometry: SceneGeometry | None = None,
    eye_hw: tuple[int, int] = (24, 40),
) -> tuple[list[GazeSample], list[GazeSample]]:
    """Deterministic train/test lists with disjoint per-sample seeds."""
    if count < 1 or not 0.0 < split_ratio <= 1.0:
        raise ConfigError("count must be positive and split_ratio in (0, 1]")
    geo = geometry if geometry is not None else SceneGeometry()
    n_train = int(round(count * split_ratio))
    samples = [make_sample(seed, i, geo, eye_hw) for i in range(count)]
    return samples[:n_train], samples[n_train:]


# ---------------------------------------------------------------------------
# on-disk form: one PPM per face plus a CSV manifest per split

MANIFEST_HEADER = (
    "sample_id,pitch_deg,yaw_deg,"
    "eye_l_x0,eye_l_y0,eye_l_x1,eye_l_y1,eye_r_x0,eye_r_y0,eye_r_x1,eye_r_y1"
)


def dump_split(directory, samples: list[GazeSample], geometry: SceneGeometry) -> None:
    """Write faces as 8-bit PPMs and a manifest with truths and eye boxes."""
    from .netpbm import write_ppm

    os.makedirs(directory, exist_ok=True)
    lines = [MANIFEST_HEADER]
    lb, rb = geometry.eye_boxes
    for i, s in enumerate(samples):
        write_ppm(os.path.join(directory, f"{i:05d}.ppm"), s.face)
        pitch_deg = math.degrees(s.truth.pitch)
        yaw_deg = math.degrees(s.truth.yaw)
        lines.append(f"{i},{pitch_deg!r},{yaw_deg!r},{','.join(map(str, lb))},{','.join(map(str, rb))}")
    with open(os.path.join(directory, "manifest.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(directory) -> list[str]:
    """The sample rows of a dumped split's manifest, one per sample."""
    with open(os.path.join(directory, "manifest.csv")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ValueError(f"unrecognized manifest header in {directory}")
    return lines[1:]


def load_split(directory, eye_hw: tuple[int, int]) -> list[GazeSample]:
    """Rebuild samples from a dumped split; eyes and regions are re-derived
    from the stored face and the manifest's eye boxes."""
    from .netpbm import read_ppm

    samples = []
    for line in read_manifest(directory):
        parts = line.split(",")
        idx = int(parts[0])
        pitch = math.radians(float(parts[1]))
        yaw = math.radians(float(parts[2]))
        boxes = tuple(map(int, parts[3:11]))
        face = read_ppm(os.path.join(directory, f"{idx:05d}.ppm")).astype(np.float32)
        geo = SceneGeometry(
            face_hw=(face.shape[1], face.shape[2]),
            eye_boxes=(boxes[:4], boxes[4:]),
        )
        eye_l, eye_r = crop_eyes(face, geo, eye_hw)
        top, mid, bot = region_split(face, geo)
        samples.append(
            GazeSample(
                face=face,
                eye_l=eye_l.astype(np.float32),
                eye_r=eye_r.astype(np.float32),
                region_top=top,
                region_mid=mid,
                region_bot=bot,
                truth=GazeAngles(pitch, yaw),
                meta=SampleMeta(idx, 1.0, 0.0),
            )
        )
    return samples


# ---------------------------------------------------------------------------
# geometric oracle: recover angles from pupil centroids

def pupil_centroid_angles(face: np.ndarray, geometry: SceneGeometry) -> tuple[float, float]:
    """Estimate (pitch, yaw) radians from the dark-pixel centroid in each eye
    box. A non-learned witness that the rendered task is solvable."""
    kx, ky = geometry.pupil_gain
    pitches, yaws = [], []
    lum = face.mean(axis=0)
    for (x0, y0, x1, y1), (ecx, ecy) in zip(geometry.eye_boxes, geometry.eye_centers):
        win = lum[y0:y1, x0:x1]
        wgt = np.clip(0.45 - win, 0.0, None)
        total = wgt.sum()
        if total <= 0:
            raise ValueError("no pupil-dark pixels found in eye box")
        ys, xs = np.mgrid[y0:y1, x0:x1]
        cx = float((wgt * xs).sum() / total)
        cy = float((wgt * ys).sum() / total)
        yaws.append(math.atan((cx - ecx) / kx))
        pitches.append(math.atan(-(cy - ecy) / ky))
    return float(np.mean(pitches)), float(np.mean(yaws))
