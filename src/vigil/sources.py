"""Detection streams: dump-file parsing and the synthetic scene simulator.

A dump is read as an iterator of (FrameMeta, FrameDetections) pairs, one
per frame, with strictly increasing frame ids.  The FrameMeta is the frame's
id and timestamp, all a dump carries (no frame size, no source name); the
batch holds the frame's boxes (k, 4), labels and confidences as arrays,
which the tracker steps on as they are.  The seeded simulator below, which
stands in for a detector, yields each frame as plain rows (simulate_rows);
simulate keeps the frames as (FrameMeta, list[Detection]) instead, and
write_dump writes frames of that kind as a dump.

Dump format, one JSON object per line:

    {"frame": int, "ts_ms": int, "class": str,
     "x1": num, "y1": num, "x2": num, "y2": num, "conf": num}

Lines must be non-decreasing in "frame"; lines sharing a frame id form one
frame group, whose timestamp is its first line's "ts_ms" (later lines' values
are ignored).  Frame timestamps must be non-decreasing: a frame whose "ts_ms"
is below the previous frame's is a format error, since dwell times would go
negative.  Ground-truth dumps use the same format with conf = 1.0.  A
format error names the file and the line.

dump_lines formats a frame's rows from one template, which `vigil synth`
writes straight from the simulator's rows and write_dump from Detections;
read_dump parses lines of exactly that shape from a pattern next to it.
Every other line, and every line that fails a check, goes through
json.loads, so any valid JSON layout reads the same, only slower.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .config import fields_of, finite, list_of, parse, read_config, record
from .errors import ConfigError, DataError, DumpFormatError, decode_json, open_input
from .geometry import (BoundingBox, Detection, FrameDetections, FrameMeta, confidence_in_range,
                       corners_ordered)
from .rng import Rng

# what read_dump yields: a frame and its detections as arrays
FrameGroup = tuple[FrameMeta, FrameDetections]

DUMP_FIELDS = ("frame", "ts_ms", "class", "x1", "y1", "x2", "y2", "conf")

# confidence model for simulated detections
FP_CONF_LO, FP_CONF_HI = 0.3, 0.9
_TRUE_CONF_FLOOR = 0.5
_TRUE_CONF_SCALE = 20.0  # conf = max(0.5, 1 - |jitter| / 20)


# ---------------------------------------------------------------------------
# dump I/O


def dump_lines(meta: FrameMeta, rows, labels: dict) -> str:
    """The dump lines of one frame: for each row ``(label, x1, y1, x2, y2,
    conf)``, ``json.dumps`` of its record and a newline, from a fixed
    template (keys in DUMP_FIELDS order) that starts from one head per frame.

    A row that Detection rejects (an empty label, corners out of order, a
    confidence outside [0, 1]) raises Detection's ValueError.  json.dumps
    writes an int and a finite float as their repr, so only the label needs
    encoding; *labels* caches each label's JSON.  A record holding any other
    value (inf, nan, an int coordinate, a subclass of int, float or str such
    as numpy's scalars) goes through json.dumps.
    """
    frame, ts = meta.frame_id, meta.timestamp_ms
    ints = type(frame) is type(ts) is int
    head = f'{{"frame": {frame}, "ts_ms": {ts}, "class": ' if ints else ""
    lines = []
    for label, x1, y1, x2, y2, conf in rows:
        if not (label and corners_ordered(x1, y1, x2, y2) and confidence_in_range(conf)):
            Detection(meta, BoundingBox(x1, y1, x2, y2), label, conf)  # raises the message
        if (ints and type(label) is str
                and type(x1) is type(y1) is type(x2) is type(y2) is type(conf) is float
                and math.isfinite(x1 + y1 + x2 + y2 + conf)):
            encoded = labels.get(label)
            if encoded is None:
                encoded = labels[label] = json.dumps(label)
            lines.append(f'{head}{encoded}, "x1": {x1!r}, "y1": {y1!r}, "x2": {x2!r}, '
                         f'"y2": {y2!r}, "conf": {conf!r}}}\n')
        else:
            lines.append(json.dumps({"frame": frame, "ts_ms": ts, "class": label, "x1": x1,
                                     "y1": y1, "x2": x2, "y2": y2, "conf": conf}) + "\n")
    return "".join(lines)


# A JSON number.  float() of the token is the float of what json.loads
# gives: float() parses a token with a fraction or exponent in both, and an
# integer token's float() equals float(int(token)), both correctly rounded,
# except for "-0", the int 0, which float() makes -0.0.  The pattern leaves
# "-0" out.
_NUMBER = r"(-?(?:[1-9][0-9]*|0(?=[.eE]))(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|0)"

# dump_lines's shape with a label free of escapes and control characters, so
# the label is the text between the quotes.  Frame ids and timestamps of
# more than 18 digits take the slow path, so int() here never meets its
# digit limit.
_DUMP_LINE = re.compile(
    r'\{"frame": (0|[1-9][0-9]{0,17}), "ts_ms": (-?(?:0|[1-9][0-9]{0,17})), '
    r'"class": "([^"\\\x00-\x1f]+)", '
    rf'"x1": {_NUMBER}, "y1": {_NUMBER}, "x2": {_NUMBER}, "y2": {_NUMBER}, '
    rf'"conf": {_NUMBER}\}}\n?')


def _parse_record(path, line_no: int, line: str) -> dict:
    rec = decode_json(line,
                      lambda reason: DumpFormatError(path, line_no, f"invalid JSON: {reason}"))
    if not isinstance(rec, dict):
        raise DumpFormatError(path, line_no, "record is not a JSON object")
    missing = [k for k in DUMP_FIELDS if k not in rec]
    if missing:
        raise DumpFormatError(path, line_no, f"missing fields: {', '.join(missing)}")
    extra = [k for k in rec if k not in DUMP_FIELDS]
    if extra:
        raise DumpFormatError(path, line_no, f"unknown fields: {', '.join(extra)}")
    for key in ("frame", "ts_ms"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool):
            raise DumpFormatError(path, line_no, f'"{key}" must be an integer')
    if not isinstance(rec["class"], str):
        raise DumpFormatError(path, line_no, '"class" must be a string')
    for key in ("x1", "y1", "x2", "y2", "conf"):
        if isinstance(rec[key], bool) or not isinstance(rec[key], (int, float)):
            raise DumpFormatError(path, line_no, f'"{key}" must be a number')
        if not finite(rec[key]):
            raise DumpFormatError(path, line_no, f'"{key}" must be finite')
    return rec


def read_dump(path) -> Iterator[FrameGroup]:
    """Stream frame groups from a detection dump.

    A line in dump_lines's shape with finite values is parsed from the
    pattern's groups; every other line goes through json.loads and
    _parse_record.  Both then take the same frame checks and the same
    Detection rules, so the frames and errors are those of the slow path
    alone.  A format error names *path* and the line.
    """
    meta = None
    boxes: list = []
    labels: list = []
    confs: list = []
    with open_input(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                m = _DUMP_LINE.fullmatch(raw)
                if m is not None:
                    fid, ts, label, x1, y1, x2, y2, conf = m.groups()
                    box = (float(x1), float(y1), float(x2), float(y2))
                    conf = float(conf)
                    if math.isfinite(sum(box) + conf):
                        fid, ts = int(fid), int(ts)
                    else:
                        m = None  # _parse_record reports the value
                if m is None:
                    line = raw.strip()
                    if not line:
                        continue
                    rec = _parse_record(path, line_no, line)
                    fid, ts, label = rec["frame"], rec["ts_ms"], rec["class"]
                    box = (float(rec["x1"]), float(rec["y1"]), float(rec["x2"]),
                           float(rec["y2"]))
                    conf = float(rec["conf"])
                new_frame = meta is None or fid != meta.frame_id
                if new_frame:  # a line of the current frame passed these already
                    if meta is None:  # a later frame below 0 decreases
                        if fid < 0:
                            raise DumpFormatError(path, line_no,
                                                  f'"frame" must be >= 0, got {fid}')
                    elif fid < meta.frame_id:
                        raise DumpFormatError(path, line_no, f'"frame" {fid} decreases '
                                                             f'(previous {meta.frame_id})')
                    elif ts < meta.timestamp_ms:
                        raise DumpFormatError(path, line_no, f'"ts_ms" {ts} decreases (previous '
                                                             f'frame {meta.timestamp_ms})')
                frame = FrameMeta(fid, ts) if new_frame else meta
                if not (label and corners_ordered(*box) and confidence_in_range(conf)):
                    try:  # a value Detection rejects: it raises the message
                        Detection(frame, BoundingBox(*box), label, conf)
                    except ValueError as exc:
                        raise DumpFormatError(path, line_no, str(exc)) from exc
                if new_frame and meta is not None:
                    yield meta, _batch(boxes, labels, confs)
                    boxes, labels, confs = [], [], []
                meta = frame
                boxes.append(box)
                labels.append(label)
                confs.append(conf)
        except UnicodeDecodeError as exc:
            # the loop decodes the file in chunks, so the line is not known
            raise DataError(f"{path}: not UTF-8: {exc.reason}") from exc
    if meta is not None:
        yield meta, _batch(boxes, labels, confs)


def _batch(boxes: list, labels: list, confs: list) -> FrameDetections:
    return FrameDetections(np.array(boxes, dtype=float), labels,
                           np.array(confs, dtype=float))


def write_dump(path, stream: Iterator[tuple[FrameMeta, list[Detection]]]) -> int:
    """Write (FrameMeta, Detection list) frames out in dump format; returns
    lines written."""
    n = 0
    labels: dict = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for meta, dets in stream:
            rows = [(det.class_label, *det.bbox.as_tuple(), det.confidence) for det in dets]
            fh.write(dump_lines(meta, rows, labels))
            n += len(rows)
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
    source_id: str = "synthetic"  # reaches no output; kept for configs (ROADMAP item 6)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("frame dimensions must be positive")
        for name in ("width", "height"):  # the fit checks and simulate use floats
            if not finite(getattr(self, name)):
                raise ConfigError(f"{name} is too large for a float")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.duration_frames < 0:
            raise ConfigError("duration_frames must be >= 0")
        try:  # the last frame's timestamp, as simulate computes it
            int(round(max(self.duration_frames - 1, 0) * 1000.0 / self.fps))
        except OverflowError:
            raise ConfigError("fps is too small for duration_frames: "
                              "the last frame's timestamp overflows") from None
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
            # _reflect then bounces at most once per step
            for axis, v, span in (("x", spec.velocity[0], (self.width - w / 2) - w / 2),
                                  ("y", spec.velocity[1], (self.height - h / 2) - h / 2)):
                if span > 0 and abs(v) > span:
                    raise ConfigError(f"object {i} velocity on {axis} must not exceed "
                                      f"its free span of {span:g} px")


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


def simulate_rows(config: SyntheticSceneConfig) -> Iterator[tuple]:
    """Run the scene simulator, one frame at a time: yield each frame as
    ``(meta, truth_rows, detected_rows, object_ids)``, a row being
    ``(label, x1, y1, x2, y2, conf)`` (conf 1.0 for a true row) and
    object_ids giving each detected row's object index (None for a false
    positive).

    Deterministic in (config, seed).  Random draws occur in a fixed order
    per frame: for each active object (spec order) two normals for center
    jitter then one uniform for the miss test; then one Poisson draw for
    the false-positive count; then per false positive one index draw for
    the class, four uniforms for the box corners, and one for confidence.
    """
    rng = Rng(config.seed)
    normal, uniform = rng.normal, rng.uniform
    W, H = float(config.width), float(config.height)
    labels = sorted({spec.class_label for spec in config.objects}) or ["object"]
    sigma, miss = config.jitter_sigma, config.miss_probability
    # per object, its constants (index, label, entry and last frame, half
    # sizes, upper bounce limits) and its motion state [cx, cy, vx, vy]
    objects = []
    for i, spec in enumerate(config.objects):
        w2, h2 = spec.size[0] / 2.0, spec.size[1] / 2.0
        last = config.duration_frames if spec.exit_frame is None else spec.exit_frame
        objects.append((i, spec.class_label, spec.entry_frame, last, w2, h2, W - w2, H - h2,
                        [*spec.center, *spec.velocity]))

    for f in range(config.duration_frames):
        truth: list[tuple] = []
        detected: list[tuple] = []
        ids: list[Optional[int]] = []
        for i, label, entry, last, w2, h2, x_hi, y_hi, st in objects:
            if not (entry <= f < last):
                continue
            if f > entry:
                st[0], st[2] = _reflect(st[0], st[2], w2, x_hi)
                st[1], st[3] = _reflect(st[1], st[3], h2, y_hi)
            x1, y1, x2, y2 = st[0] - w2, st[1] - h2, st[0] + w2, st[1] + h2
            truth.append((label, x1, y1, x2, y2, 1.0))
            dx = normal(0.0, sigma)
            dy = normal(0.0, sigma)
            if uniform() < miss:
                continue
            conf = max(_TRUE_CONF_FLOOR, 1.0 - math.hypot(dx, dy) / _TRUE_CONF_SCALE)
            detected.append((label, x1 + dx, y1 + dy, x2 + dx, y2 + dy, conf))
            ids.append(i)

        for _ in range(rng.poisson(config.false_positives_per_frame)):
            label = labels[rng.randint(len(labels))]
            xa, xb = uniform(0.0, W), uniform(0.0, W)
            ya, yb = uniform(0.0, H), uniform(0.0, H)
            detected.append((label, min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb),
                             uniform(FP_CONF_LO, FP_CONF_HI)))
            ids.append(None)

        yield FrameMeta(f, int(round(f * 1000.0 / config.fps))), truth, detected, ids


def _detections(meta: FrameMeta, rows: list[tuple]) -> list[Detection]:
    return [Detection(meta, BoundingBox(x1, y1, x2, y2), label, conf)
            for label, x1, y1, x2, y2, conf in rows]


def simulate(config: SyntheticSceneConfig) -> SyntheticScene:
    """Run the scene simulator (simulate_rows) and keep every frame, its
    rows as Detections."""
    scene = SyntheticScene(config, [], [], [], [])
    for meta, truth, detected, ids in simulate_rows(config):
        scene.frames.append(meta)
        scene.ground_truth.append(_detections(meta, truth))
        scene.noisy.append(_detections(meta, detected))
        scene.noisy_object_ids.append(ids)
    return scene
