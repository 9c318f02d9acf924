"""Class-balancing image augmentation with bounded affine transforms.

Transforms follow y = A x in coordinates relative to the image center
(pixel-center convention): an output pixel y takes the value sampled at
x = A^-1 y in the source, bilinearly interpolated with black fill.
Rotation is hard-capped at +/-10 degrees and shear at +/-1.  Balancing
equalizes per-class sample counts to T = round(mean pre-augmentation
count): below-T classes gain augmented copies of randomly chosen
originals, above-T classes are subsampled to T.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, csv_rows, read_text, write_csv
from .images import read_image, write_image
from .rng import Rng

ROTATION_HARD_CAP_DEG = 10.0
SHEAR_HARD_CAP = 1.0  # a 45-degree slant; far larger shears leave A's determinant to rounding


@dataclass(frozen=True)
class AugmentationBounds:
    max_rotation_deg: float = 10.0
    flip_probability: float = 0.5
    max_shear: float = 0.1
    color_scale: tuple[float, float] = (0.9, 1.1)
    color_offset: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self):
        if not 0.0 <= self.max_rotation_deg <= ROTATION_HARD_CAP_DEG:
            raise ConfigError(
                f"max_rotation_deg must lie in [0, {ROTATION_HARD_CAP_DEG}]")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ConfigError("flip_probability must lie in [0, 1]")
        if not 0.0 <= self.max_shear <= SHEAR_HARD_CAP:
            raise ConfigError(f"max_shear must lie in [0, {SHEAR_HARD_CAP}]")
        for name in ("color_scale", "color_offset"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} range is inverted")


@dataclass(frozen=True)
class TransformParams:
    """The sampled parameters; enough to rebuild the exact transform."""

    angle_deg: float
    shear: float
    flip: bool
    color_scale: float = 1.0
    color_offset: float = 0.0

    def matrix(self) -> np.ndarray:
        """A: flip, then shear, then rotation, composed into one 2x2 matrix."""
        th = math.radians(self.angle_deg)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        shear = np.array([[1.0, self.shear], [0.0, 1.0]])
        flip = np.diag([-1.0, 1.0]) if self.flip else np.eye(2)
        return rot @ shear @ flip


def sample_transform(rng: Rng, bounds: AugmentationBounds) -> TransformParams:
    """Draw one parameter set.

    Draw order (fixed for reproducibility): rotation angle, shear, flip
    uniform, color scale, color offset.
    """
    angle = rng.uniform(-bounds.max_rotation_deg, bounds.max_rotation_deg)
    shear = rng.uniform(-bounds.max_shear, bounds.max_shear)
    flip = rng.uniform() < bounds.flip_probability
    scale = rng.uniform(*bounds.color_scale)
    offset = rng.uniform(*bounds.color_offset)
    assert abs(angle) <= ROTATION_HARD_CAP_DEG
    return TransformParams(angle, shear, flip, scale, offset)


def apply_params(img: np.ndarray, params: TransformParams) -> np.ndarray:
    """Warp an image by ``params.matrix()`` and apply its color jitter;
    output has the source dimensions, black fill outside.

    Each bilinear tap is one ``take`` of pixel rows from the image viewed
    as (h * w, channels), at ``clip(y) * w + clip(x)``; every output
    element sees the same IEEE operations in the same order as a 2-D
    gather from the image converted to float, since a pixel converts to
    the same float before or after the gather.
    """
    img = np.asarray(img)
    h, w = img.shape[:2]
    A = params.matrix()
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]  # +/-1: rotation, shear, flip
    inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det

    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    gx = (np.arange(w) - cx)[None, :]
    gy = (np.arange(h) - cy)[:, None]
    sx = inv[0, 0] * gx + inv[0, 1] * gy + cx
    sy = inv[1, 0] * gx + inv[1, 1] * gy + cy

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0

    pixels = img.reshape(h * w, -1)

    def at(yy, xx):
        inside = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
        vals = pixels.take(np.clip(yy, 0, h - 1) * w + np.clip(xx, 0, w - 1), axis=0)
        return vals * inside[..., None]

    wx, wy = fx[..., None], fy[..., None]
    out = (at(y0, x0) * (1 - wx) * (1 - wy)
           + at(y0, x0 + 1) * wx * (1 - wy)
           + at(y0 + 1, x0) * (1 - wx) * wy
           + at(y0 + 1, x0 + 1) * wx * wy)

    out = out * params.color_scale + params.color_offset
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out.reshape(img.shape)


# ---------------------------------------------------------------------------
# manifests and balancing


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    class_label: str
    # provenance, present only on augmented records
    source_path: Optional[str] = None
    params: Optional[TransformParams] = None

    @property
    def augmented(self) -> bool:
        return self.source_path is not None


@dataclass
class DatasetManifest:
    records: list[ManifestRecord]

    def class_counts(self) -> dict:
        counts: dict = {}
        for rec in self.records:
            counts[rec.class_label] = counts.get(rec.class_label, 0) + 1
        return counts


def read_manifest_csv(path) -> DatasetManifest:
    records = []
    seen = set()
    for ln, row in csv_rows(path, read_text(path)):
        if not row:
            continue
        if ln == 1 and [c.strip().lower() for c in row] == ["path", "class"]:
            continue
        if len(row) != 2:
            raise DataError(f"{path} row {ln}: expected 'path,class'")
        p, label = row[0].strip(), row[1].strip()
        if not p or not label:
            raise DataError(f"{path} row {ln}: empty path or class")
        if p in seen:
            raise DataError(f"{path} row {ln}: duplicate path {p!r}")
        seen.add(p)
        records.append(ManifestRecord(p, label))
    return DatasetManifest(records)


def write_manifest_csv(path, manifest: DatasetManifest) -> None:
    write_csv(path, [["path", "class"],
                     *([rec.path, rec.class_label] for rec in manifest.records)])


def balance_target(counts: dict) -> int:
    """T = round(mean per-class count), half away from zero."""
    return int(math.floor(sum(counts.values()) / len(counts) + 0.5))


def _aug_path(source: str, serial: int, out_dir: Optional[str]) -> str:
    directory, name = os.path.split(source)
    stem, ext = os.path.splitext(name)
    return os.path.join(out_dir if out_dir is not None else directory,
                        f"{stem}__aug{serial:03d}{ext}")


def balance(manifest: DatasetManifest, bounds: AugmentationBounds, rng: Rng,
            out_dir: Optional[str] = None) -> DatasetManifest:
    """Plan a balanced dataset; image generation happens in materialize().

    Classes are processed in sorted label order.  For a below-target class
    each new sample draws one source index then one transform parameter
    set; above-target classes draw one without-replacement subsample.
    Retained originals keep their manifest order; augmented records are
    appended after them.
    """
    if not manifest.records:
        raise DataError("cannot balance an empty manifest")
    counts = manifest.class_counts()
    target = balance_target(counts)

    by_class: dict = {}
    for rec in manifest.records:
        by_class.setdefault(rec.class_label, []).append(rec)

    keep: dict = {}
    fresh: list[ManifestRecord] = []
    serials: dict = {}
    for label in sorted(by_class):
        recs = by_class[label]
        if len(recs) > target:
            chosen = sorted(rng.sample_without_replacement(len(recs), target))
            keep[label] = {id(recs[i]) for i in chosen}
        else:
            keep[label] = {id(r) for r in recs}
            for _ in range(target - len(recs)):
                src = recs[rng.randint(len(recs))]
                params = sample_transform(rng, bounds)
                serial = serials.get(src.path, 0)
                serials[src.path] = serial + 1
                fresh.append(ManifestRecord(
                    _aug_path(src.path, serial, out_dir), label,
                    source_path=src.path, params=params))

    kept = [rec for rec in manifest.records if id(rec) in keep[rec.class_label]]
    out = DatasetManifest(kept + fresh)
    paths = [r.path for r in out.records]
    if len(set(paths)) != len(paths):
        raise DataError("augmented file names collide with existing paths")
    return out


def balance_report(before: DatasetManifest, after: DatasetManifest) -> dict:
    """Per-class {before, after, generated, dropped} counts."""
    pre = before.class_counts()
    post = after.class_counts()
    report = {}
    for label in sorted(set(pre) | set(post)):
        generated = sum(1 for r in after.records
                        if r.class_label == label and r.augmented)
        retained = post.get(label, 0) - generated
        report[label] = {
            "before": pre.get(label, 0),
            "after": post.get(label, 0),
            "generated": generated,
            "dropped": pre.get(label, 0) - retained,
        }
    return report


def materialize(manifest: DatasetManifest) -> int:
    """Render every augmented record to disk; returns images written."""
    written = 0
    for rec in manifest.records:
        if not rec.augmented:
            continue
        img = read_image(rec.source_path)
        write_image(rec.path, apply_params(img, rec.params))
        written += 1
    return written
