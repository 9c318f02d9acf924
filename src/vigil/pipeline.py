"""End-to-end run orchestration: detection source -> tracker -> stats and rules.

A run is described by a single JSON document:

    {
      "source": {"kind": "synthetic", "scene": {...}},        # or "scene_file"
      "tracker": {"iou_min": 0.3, "max_age": 1, "min_hits": 3},
      "grid": {"cell_size": 10},
      "rules_file": "rules.json",                             # or inline "rules"
      "stages": {"stats": true, "rules": true},
      "seed": 0
    }

The dump source variant is {"kind": "dump", "path": "...", "width": W,
"height": H}.  All artifacts are written by :func:`run` into a single output
directory and are byte-identical across repeated runs with the same config
and seed (nothing derived from wall-clock time is recorded).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from ._version import __version__
from .config import (
    REQUIRED,
    boolean,
    finite,
    integer,
    json_object,
    parse,
    pathname,
    read_config,
    record,
    string,
)
from .errors import ConfigError, make_out_dir, write_json
from .geometry import FrameMeta
from .rng import derive_seed
from .rules import (
    RuleEngine,
    TcpAlertSink,
    ZoneSet,
    alert_record,
    load_rules,
    place,
    rules_from_doc,
)
from .sources import (
    SyntheticSceneConfig,
    load_scene_config,
    read_dump,
    scene_config_from_dict,
    simulate,
)
from .stats import GridSpec, SceneStats
from .tracker import SortTracker, Track, TrackerConfig, TrackStatus, track_record

# Label mixed into the pipeline seed to obtain the synthetic-scene seed, so a
# run-level seed never collides with a scene seed used elsewhere.
SCENE_SEED_LABEL = "synthetic-scene"


@dataclass
class PipelineConfig:
    """Validated run description (see module docstring for the JSON shape)."""

    source_kind: str = "synthetic"
    dump_path: Optional[str] = None
    frame_width: int = 1920
    frame_height: int = 1080
    scene: Optional[SyntheticSceneConfig] = None
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    rules: tuple = ()
    run_stats: bool = True
    run_rules: bool = True
    seed: int = 0
    alert_sink: Optional[tuple] = None          # (host, port) or None
    out_dir: Optional[str] = None               # default from config doc
    doc: dict = field(default_factory=dict)     # original document, echoed into the manifest


def _sink_address(host: str, port: int) -> tuple:
    if not 0 < port < 65536:  # the socket layer would take the port modulo 65536
        raise ConfigError("alert_sink.port must lie in [1, 65535]")
    try:  # the resolver's IDNA step, which would raise at the first alert
        host.encode("idna")
    except UnicodeError as exc:
        raise ConfigError(f"alert_sink.host {host!r} is not a valid host name: {exc}") from None
    return host, port


_SOURCES = {
    "dump": {"kind": (string, REQUIRED), "path": (pathname, REQUIRED),
             "width": (integer, 1920), "height": (integer, 1080)},
    "synthetic": {"kind": (string, REQUIRED), "scene": (scene_config_from_dict, None),
                  "scene_file": (pathname, None)},
}
_RUN = {
    "source": (json_object, REQUIRED),
    "tracker": (record(TrackerConfig), {}),
    "grid": (record(GridSpec), {}),
    "rules_file": (pathname, None),
    "rules": (rules_from_doc, None),
    "stages": (record(dict, {"stats": (boolean, True), "rules": (boolean, True)}), {}),
    "seed": (integer, 0),
    "alert_sink": (record(_sink_address, {"host": (string, REQUIRED),
                                          "port": (integer, REQUIRED)}), None),
    "out_dir": (pathname, None),
}


def _parse_source(doc: dict, base_dir, cfg: PipelineConfig) -> None:
    if doc.get("kind") not in ("dump", "synthetic"):
        raise ConfigError("run config.source.kind must be 'dump' or 'synthetic'")
    source = parse(doc, _SOURCES[doc["kind"]], "run config.source", base_dir)
    cfg.source_kind = source["kind"]
    if cfg.source_kind == "dump":
        cfg.dump_path = source["path"]
        cfg.frame_width, cfg.frame_height = source["width"], source["height"]
        if cfg.frame_width <= 0 or cfg.frame_height <= 0:
            raise ConfigError("source width/height must be positive")
        for name in ("width", "height"):
            if not finite(source[name]):
                raise ConfigError(f"run config.source.{name} is too large for a float")
        return
    if (source["scene"] is None) == (source["scene_file"] is None):
        raise ConfigError("synthetic source requires exactly one of 'scene' or 'scene_file'")
    cfg.scene = source["scene"]
    if cfg.scene is None:
        cfg.scene = load_scene_config(source["scene_file"])
    cfg.frame_width = cfg.scene.width
    cfg.frame_height = cfg.scene.height


def pipeline_config_from_dict(doc: dict, base_dir: Optional[str] = None) -> PipelineConfig:
    """Validate a run document.  Relative paths resolve against *base_dir*."""
    run_doc = parse(doc, _RUN, "run config", base_dir)
    cfg = PipelineConfig(tracker=run_doc["tracker"], grid=run_doc["grid"],
                         run_stats=run_doc["stages"]["stats"],
                         run_rules=run_doc["stages"]["rules"], seed=run_doc["seed"],
                         alert_sink=run_doc["alert_sink"], out_dir=run_doc["out_dir"],
                         doc=doc)
    _parse_source(run_doc["source"], base_dir, cfg)
    if run_doc["rules_file"] is not None and run_doc["rules"] is not None:
        raise ConfigError("give either 'rules_file' or inline 'rules', not both")
    if run_doc["rules_file"] is not None:
        cfg.rules = tuple(load_rules(run_doc["rules_file"]))
    elif run_doc["rules"] is not None:
        cfg.rules = tuple(run_doc["rules"])
    return cfg


def load_pipeline_config(path) -> PipelineConfig:
    return pipeline_config_from_dict(read_config(path, "config"),
                                     base_dir=os.path.dirname(os.fspath(path)))


def _frame_stream(cfg: PipelineConfig):
    """The run's frames plus the derived scene seed (or None).

    A dump yields (FrameMeta, FrameDetections) pairs, the frame's detections
    as arrays, which SortTracker.step takes as they are; the simulator
    yields (FrameMeta, [Detection]) pairs, which step turns into a batch.
    """
    if cfg.source_kind == "dump":
        return read_dump(cfg.dump_path), None
    scene_seed = derive_seed(cfg.seed, SCENE_SEED_LABEL)
    scene = simulate(dataclasses.replace(cfg.scene, seed=scene_seed))
    return zip(scene.frames, scene.noisy), scene_seed


TRACKS_FILE = "tracks.jsonl"
ALERTS_FILE = "alerts.jsonl"
HEATMAP_CSV = "heatmap.csv"
HEATMAP_PGM = "heatmap.pgm"
FLOWMAP_CSV = "flowmap.csv"
DWELL_JSON = "dwell.json"
COUNTS_JSON = "counts.json"
MANIFEST_JSON = "run-manifest.json"


# keyed by the member's plain ``_value_`` str: hashing the member itself runs
# Enum.__hash__, a Python-level call per row
_STATUS_JSON = {status._value_: json.dumps(status.value) for status in TrackStatus}


def track_lines(frame: FrameMeta, tracks: list[Track], labels: dict) -> str:
    """``"".join(json.dumps(track_record(frame, t)) + "\n" for t in tracks)``,
    from one head per frame and a fixed template per row.

    json.dumps writes ints and finite floats with their repr, so only the
    strings need encoding; *labels* caches each class label's JSON.  repr
    writes inf / nan where json.dumps writes Infinity / NaN, so a row with
    a non-finite coordinate goes through json.dumps.
    """
    head = f'{{"frame": {frame.frame_id}, "track_id": '
    lines = []
    for track in tracks:
        x1, y1, x2, y2 = track.corners
        if not math.isfinite(x1 + y1 + x2 + y2):
            lines.append(json.dumps(track_record(frame, track)) + "\n")
            continue
        label = labels.get(track.class_label)
        if label is None:
            label = labels[track.class_label] = json.dumps(track.class_label)
        lines.append(f'{head}{track.track_id}, "class": {label}, "x1": {x1!r}, '
                     f'"y1": {y1!r}, "x2": {x2!r}, "y2": {y2!r}, '
                     f'"status": {_STATUS_JSON[track.status._value_]}}}\n')
    return "".join(lines)


class FrameLoop:
    """A run's frame loop over *cfg*'s tracker, rules, grid and stages: it
    owns the ``tracker``, the ``engine`` and ``stats`` (None when their stage
    is off) and the ``zones`` both read, and places each frame's confirmed
    tracks once, handing that :func:`place` record to both with the
    previous frame's as *before*: the one record it keeps, since SortTracker
    returns a confirmed track on every step until it is deleted and never
    reissues an id."""

    def __init__(self, cfg: PipelineConfig):
        self.tracker = SortTracker(cfg.tracker)
        self.engine = RuleEngine(list(cfg.rules)) if cfg.run_rules else None
        self.zones = self.engine.prepared_zones if self.engine is not None else ZoneSet(())
        self.stats = (SceneStats(cfg.frame_width, cfg.frame_height, grid=cfg.grid,
                                 zones=self.zones) if cfg.run_stats else None)
        self._before: dict = {}  # the previous frame's place() record

    def step(self, meta: FrameMeta, detections) -> tuple[list[Track], list]:
        """The frame's confirmed tracks and alerts."""
        confirmed = self.tracker.step(meta, detections)
        if self.engine is None and self.stats is None:
            return confirmed, []
        placed = place(self.zones, confirmed)
        before, self._before = self._before, placed
        events = self.engine.evaluate(meta, placed, before) if self.engine is not None else []
        if self.stats is not None:
            self.stats.ingest(meta, placed, before)
        return confirmed, events


def run(cfg: PipelineConfig, out_dir: Optional[str] = None) -> dict:
    """Execute a configured run and write artifacts into *out_dir*.

    Returns the run manifest (also written as run-manifest.json).  The
    manifest echoes the original config document so a run can be reproduced
    from its own output directory.
    """
    out_dir = make_out_dir(out_dir or cfg.out_dir or "out")

    stream, scene_seed = _frame_stream(cfg)
    loop = FrameLoop(cfg)
    engine, stats = loop.engine, loop.stats
    sink = TcpAlertSink(*cfg.alert_sink) if cfg.alert_sink else None

    artifacts = [TRACKS_FILE]
    if engine is not None:
        artifacts.append(ALERTS_FILE)
    if stats is not None:
        artifacts += [HEATMAP_CSV, HEATMAP_PGM, FLOWMAP_CSV, DWELL_JSON, COUNTS_JSON]
    artifacts.append(MANIFEST_JSON)

    labels: dict = {}
    n_frames = 0
    n_rows = 0
    n_alerts = 0
    tracks_fh = open(os.path.join(out_dir, TRACKS_FILE), "w", encoding="utf-8", newline="\n")
    alerts_fh = None
    if engine is not None:
        alerts_fh = open(os.path.join(out_dir, ALERTS_FILE), "w", encoding="utf-8", newline="\n")
    try:
        for meta, detections in stream:
            confirmed, events = loop.step(meta, detections)
            tracks_fh.write(track_lines(meta, confirmed, labels))
            n_rows += len(confirmed)
            for event in events:
                alerts_fh.write(json.dumps(alert_record(event)) + "\n")
                if sink is not None:
                    sink.send(event)
            n_alerts += len(events)
            n_frames += 1
    finally:
        tracks_fh.close()
        if alerts_fh is not None:
            alerts_fh.close()
        if sink is not None:
            sink.close()

    if stats is not None:
        stats.write_heatmap_csv(os.path.join(out_dir, HEATMAP_CSV))
        stats.write_heatmap_pgm(os.path.join(out_dir, HEATMAP_PGM))
        stats.write_flowmap_csv(os.path.join(out_dir, FLOWMAP_CSV))
        stats.write_dwell_json(os.path.join(out_dir, DWELL_JSON))
        stats.write_counts_json(os.path.join(out_dir, COUNTS_JSON))

    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "frames": n_frames,
        "track_rows": n_rows,
        "alerts": n_alerts,
        "artifacts": artifacts,
        "config": cfg.doc,
    }
    if scene_seed is not None:
        manifest["scene_seed"] = scene_seed
    write_json(os.path.join(out_dir, MANIFEST_JSON), manifest)
    return manifest
