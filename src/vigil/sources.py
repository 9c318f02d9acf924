"""Detection streams: dump-file parsing and the synthetic scene simulator.

A detection source is an iterator of (FrameMeta, list[Detection]) pairs,
grouped by frame, with strictly increasing frame ids.  Streams come either
from a JSONL detection dump written by an external detector, or from the
seeded simulator below, which stands in for one.

Dump format, one JSON object per line:

    {"frame": int, "ts_ms": int, "class": str,
     "x1": num, "y1": num, "x2": num, "y2": num, "conf": num}

Lines must be non-decreasing in "frame"; lines sharing a frame id form one
frame group, whose timestamp is its first line's "ts_ms" (later lines' values
are ignored).  Frame timestamps must be non-decreasing: a frame whose "ts_ms"
is below the previous frame's is a format error, since dwell times would go
negative.  Ground-truth dumps use the same format with conf = 1.0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .config import fields_of, list_of, parse, read_config, record
from .errors import ConfigError, DumpFormatError, open_input
from .geometry import BoundingBox, Detection, FrameMeta
from .rng import Rng

FrameGroup = tuple[FrameMeta, list[Detection]]

DUMP_FIELDS = ("frame", "ts_ms", "class", "x1", "y1", "x2", "y2", "conf")

# confidence model for simulated detections
FP_CONF_LO, FP_CONF_HI = 0.3, 0.9
_TRUE_CONF_FLOOR = 0.5
_TRUE_CONF_SCALE = 20.0  # conf = max(0.5, 1 - |jitter| / 20)


# ---------------------------------------------------------------------------
# dump I/O


def _parse_record(line_no: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DumpFormatError(line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(rec, dict):
        raise DumpFormatError(line_no, "record is not a JSON object")
    missing = [k for k in DUMP_FIELDS if k not in rec]
    if missing:
        raise DumpFormatError(line_no, f"missing fields: {', '.join(missing)}")
    extra = [k for k in rec if k not in DUMP_FIELDS]
    if extra:
        raise DumpFormatError(line_no, f"unknown fields: {', '.join(extra)}")
    for key in ("frame", "ts_ms"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool):
            raise DumpFormatError(line_no, f'"{key}" must be an integer')
    if not isinstance(rec["class"], str):
        raise DumpFormatError(line_no, '"class" must be a string')
    for key in ("x1", "y1", "x2", "y2", "conf"):
        if isinstance(rec[key], bool) or not isinstance(rec[key], (int, float)):
            raise DumpFormatError(line_no, f'"{key}" must be a number')
        if not math.isfinite(rec[key]):
            raise DumpFormatError(line_no, f'"{key}" must be finite')
    return rec


def read_dump(path, *, width: int = 1920, height: int = 1080,
              source_id: Optional[str] = None) -> Iterator[FrameGroup]:
    """Stream frame groups from a detection dump.

    The dump format carries no frame geometry, so `width`/`height` set the
    FrameMeta extent; `source_id` defaults to the file's stem.
    """
    if source_id is None:
        source_id = os.path.splitext(os.path.basename(str(path)))[0]

    def gen():
        meta = None
        group: list[Detection] = []
        last_frame = None
        with open_input(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                rec = _parse_record(line_no, line)
                fid = rec["frame"]
                if last_frame is not None and fid < last_frame:
                    raise DumpFormatError(
                        line_no, f'"frame" {fid} decreases (previous {last_frame})')
                if fid < 0:
                    raise DumpFormatError(line_no, f'"frame" must be >= 0, got {fid}')
                ts = rec["ts_ms"]
                if meta is not None and fid != meta.frame_id and ts < meta.timestamp_ms:
                    raise DumpFormatError(
                        line_no, f'"ts_ms" {ts} decreases (previous frame {meta.timestamp_ms})')
                try:
                    det = Detection(
                        frame=FrameMeta(source_id, fid, ts, width, height)
                        if meta is None or fid != meta.frame_id else meta,
                        bbox=BoundingBox(float(rec["x1"]), float(rec["y1"]),
                                         float(rec["x2"]), float(rec["y2"])),
                        class_label=rec["class"],
                        confidence=float(rec["conf"]),
                    )
                except ValueError as exc:
                    raise DumpFormatError(line_no, str(exc)) from exc
                if meta is not None and fid != meta.frame_id:
                    yield meta, group
                    group = []
                meta = det.frame
                group.append(det)
                last_frame = fid
        if meta is not None:
            yield meta, group

    return gen()


def write_dump(path, stream: Iterator[FrameGroup]) -> int:
    """Write frame groups back out in dump format; returns lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for meta, dets in stream:
            for det in dets:
                rec = {
                    "frame": meta.frame_id,
                    "ts_ms": meta.timestamp_ms,
                    "class": det.class_label,
                    "x1": det.bbox.x1,
                    "y1": det.bbox.y1,
                    "x2": det.bbox.x2,
                    "y2": det.bbox.y2,
                    "conf": det.confidence,
                }
                fh.write(json.dumps(rec) + "\n")
                n += 1
    return n


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class ObjectSpec:
    """One simulated object: a constant-velocity box that bounces off walls."""

    class_label: str
    center: tuple[float, float]
    velocity: tuple[float, float]
    size: tuple[float, float]
    entry_frame: int = 0
    exit_frame: Optional[int] = None

    def __post_init__(self):
        if not self.class_label:
            raise ConfigError("object class_label must be non-empty")
        w, h = self.size
        if w <= 0 or h <= 0:
            raise ConfigError(f"object size must be positive, got {self.size}")
        if self.entry_frame < 0:
            raise ConfigError("entry_frame must be >= 0")
        if self.exit_frame is not None and self.exit_frame <= self.entry_frame:
            raise ConfigError("exit_frame must be greater than entry_frame")


@dataclass(frozen=True)
class SyntheticSceneConfig:
    width: int
    height: int
    fps: float
    duration_frames: int
    objects: tuple[ObjectSpec, ...] = ()
    jitter_sigma: float = 0.0
    miss_probability: float = 0.0
    false_positives_per_frame: float = 0.0
    seed: int = 0
    source_id: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("frame dimensions must be positive")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.duration_frames < 0:
            raise ConfigError("duration_frames must be >= 0")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ConfigError("miss_probability must lie in [0, 1]")
        if self.false_positives_per_frame < 0:
            raise ConfigError("false_positives_per_frame must be >= 0")
        for i, spec in enumerate(self.objects):
            w, h = spec.size
            if w > self.width or h > self.height:
                raise ConfigError(f"object {i} does not fit inside the frame")
            cx, cy = spec.center
            if not (w / 2 <= cx <= self.width - w / 2
                    and h / 2 <= cy <= self.height - h / 2):
                raise ConfigError(f"object {i} must start fully inside the frame")


_SCENE = fields_of(SyntheticSceneConfig, objects=list_of(record(ObjectSpec)))


def scene_config_from_dict(doc, where: str = "scene") -> SyntheticSceneConfig:
    """Build a config from a parsed JSON document (field names match)."""
    return SyntheticSceneConfig(**parse(doc, _SCENE, where))


def load_scene_config(path) -> SyntheticSceneConfig:
    return scene_config_from_dict(read_config(path, "scene"))


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    """Advance one step and bounce elastically off [lo, hi]."""
    pos += vel
    if hi <= lo:  # box spans the whole frame on this axis
        return lo, vel
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2.0 * lo - pos
        else:
            pos = 2.0 * hi - pos
        vel = -vel
    return pos, vel


@dataclass
class SyntheticScene:
    """Fully materialized simulation output.

    ground_truth and noisy are per-frame detection lists; noisy_object_ids
    aligns with noisy and holds the source object index for true detections
    and None for injected false positives.
    """

    config: SyntheticSceneConfig
    frames: list[FrameMeta]
    ground_truth: list[list[Detection]]
    noisy: list[list[Detection]]
    noisy_object_ids: list[list[Optional[int]]] = field(default_factory=list)


def simulate(config: SyntheticSceneConfig) -> SyntheticScene:
    """Run the scene simulator.

    Deterministic in (config, seed).  Random draws occur in a fixed order
    per frame: for each active object (spec order) two normals for center
    jitter then one uniform for the miss test; then one Poisson draw for
    the false-positive count; then per false positive one index draw for
    the class, four uniforms for the box corners, and one for confidence.
    """
    rng = Rng(config.seed)
    W, H = float(config.width), float(config.height)
    labels = sorted({spec.class_label for spec in config.objects}) or ["object"]

    # per-object mutable motion state
    state = [{"cx": s.center[0], "cy": s.center[1],
              "vx": s.velocity[0], "vy": s.velocity[1]} for s in config.objects]

    frames: list[FrameMeta] = []
    ground_truth: list[list[Detection]] = []
    noisy: list[list[Detection]] = []
    noisy_ids: list[list[Optional[int]]] = []

    for f in range(config.duration_frames):
        ts = int(round(f * 1000.0 / config.fps))
        meta = FrameMeta(config.source_id, f, ts, config.width, config.height)
        gt_frame: list[Detection] = []
        noisy_frame: list[Detection] = []
        ids_frame: list[Optional[int]] = []

        active: list[tuple[int, BoundingBox]] = []
        for i, spec in enumerate(config.objects):
            last = config.duration_frames if spec.exit_frame is None else spec.exit_frame
            if not (spec.entry_frame <= f < last):
                continue
            st = state[i]
            if f > spec.entry_frame:
                w2, h2 = spec.size[0] / 2.0, spec.size[1] / 2.0
                st["cx"], st["vx"] = _reflect(st["cx"], st["vx"], w2, W - w2)
                st["cy"], st["vy"] = _reflect(st["cy"], st["vy"], h2, H - h2)
            w2, h2 = spec.size[0] / 2.0, spec.size[1] / 2.0
            box = BoundingBox(st["cx"] - w2, st["cy"] - h2, st["cx"] + w2, st["cy"] + h2)
            gt_frame.append(Detection(meta, box, spec.class_label, 1.0))
            active.append((i, box))

        for i, box in active:
            dx = rng.normal(0.0, config.jitter_sigma)
            dy = rng.normal(0.0, config.jitter_sigma)
            missed = rng.uniform() < config.miss_probability
            if missed:
                continue
            jittered = BoundingBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)
            conf = max(_TRUE_CONF_FLOOR,
                       1.0 - math.hypot(dx, dy) / _TRUE_CONF_SCALE)
            label = config.objects[i].class_label
            noisy_frame.append(Detection(meta, jittered, label, conf))
            ids_frame.append(i)

        for _ in range(rng.poisson(config.false_positives_per_frame)):
            label = labels[rng.randint(len(labels))]
            xa, xb = rng.uniform(0.0, W), rng.uniform(0.0, W)
            ya, yb = rng.uniform(0.0, H), rng.uniform(0.0, H)
            box = BoundingBox(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
            conf = rng.uniform(FP_CONF_LO, FP_CONF_HI)
            noisy_frame.append(Detection(meta, box, label, conf))
            ids_frame.append(None)

        frames.append(meta)
        ground_truth.append(gt_frame)
        noisy.append(noisy_frame)
        noisy_ids.append(ids_frame)

    return SyntheticScene(config, frames, ground_truth, noisy, noisy_ids)

