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
import os
from dataclasses import dataclass, field
from typing import Optional

from ._version import __version__
from .config import as_int, check_keys, config_path, read_config
from .errors import ConfigError
from .rng import derive_seed
from .rules import RuleEngine, TcpAlertSink, alert_record, load_rules, place, rules_from_doc
from .sources import (
    SyntheticSceneConfig,
    load_scene_config,
    read_dump,
    scene_config_from_dict,
    simulate,
)
from .stats import GridSpec, SceneStats
from .tracker import SortTracker, TrackerConfig, track_record

# Label mixed into the pipeline seed to obtain the synthetic-scene seed, so a
# run-level seed never collides with a scene seed used elsewhere.
SCENE_SEED_LABEL = "synthetic-scene"

_TOP_KEYS = {"source", "tracker", "grid", "rules_file", "rules", "stages",
             "seed", "alert_sink", "out_dir"}
_SOURCE_KEYS = {"dump": {"kind", "path", "width", "height"},
                "synthetic": {"kind", "scene", "scene_file"}}


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


def _parse_source(doc, base_dir, cfg: PipelineConfig) -> None:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _SOURCE_KEYS:
        raise ConfigError("source must be an object whose kind is 'dump' or 'synthetic'")
    check_keys(doc, _SOURCE_KEYS[kind], "source")
    cfg.source_kind = kind
    if kind == "dump":
        cfg.dump_path = config_path(doc, "path", base_dir)
        cfg.frame_width = as_int(doc, "width", 1920, where="source")
        cfg.frame_height = as_int(doc, "height", 1080, where="source")
        if cfg.frame_width <= 0 or cfg.frame_height <= 0:
            raise ConfigError("source width/height must be positive")
        return
    if ("scene" in doc) == ("scene_file" in doc):
        raise ConfigError("synthetic source requires exactly one of 'scene' or 'scene_file'")
    if "scene" in doc:
        cfg.scene = scene_config_from_dict(doc["scene"])
    else:
        cfg.scene = load_scene_config(config_path(doc, "scene_file", base_dir))
    cfg.frame_width = cfg.scene.width
    cfg.frame_height = cfg.scene.height


def pipeline_config_from_dict(doc: dict, base_dir: Optional[str] = None) -> PipelineConfig:
    """Validate a run document.  Relative paths resolve against *base_dir*."""
    check_keys(doc, _TOP_KEYS, "run config")
    if "source" not in doc:
        raise ConfigError("run config requires a 'source' object")

    cfg = PipelineConfig(doc=doc)
    _parse_source(doc["source"], base_dir, cfg)

    tracker_doc = doc.get("tracker", {})
    if not isinstance(tracker_doc, dict):
        raise ConfigError("tracker must be an object")
    try:
        cfg.tracker = TrackerConfig(**tracker_doc)
    except TypeError as exc:
        raise ConfigError(f"bad tracker config: {exc}") from exc

    grid_doc = doc.get("grid", {})
    check_keys(grid_doc, {"cell_size"}, "grid")
    cfg.grid = GridSpec(cell_size=as_int(grid_doc, "cell_size", 10, where="grid"))

    if "rules_file" in doc and "rules" in doc:
        raise ConfigError("give either 'rules_file' or inline 'rules', not both")
    if "rules_file" in doc:
        cfg.rules = tuple(load_rules(config_path(doc, "rules_file", base_dir)))
    elif "rules" in doc:
        cfg.rules = tuple(rules_from_doc(doc["rules"]))

    stages = doc.get("stages", {})
    check_keys(stages, {"stats", "rules"}, "stages")
    for key in ("stats", "rules"):
        if key in stages and not isinstance(stages[key], bool):
            raise ConfigError(f"stages.{key} must be a boolean")
    cfg.run_stats = stages.get("stats", True)
    cfg.run_rules = stages.get("rules", True)

    cfg.seed = as_int(doc, "seed", 0, where="config")

    sink = doc.get("alert_sink")
    if sink is not None:
        check_keys(sink, {"host", "port"}, "alert_sink")
        if not isinstance(sink.get("host"), str):
            raise ConfigError("alert_sink must be {'host': str, 'port': int}")
        cfg.alert_sink = (sink["host"], as_int(sink, "port", None, where="alert_sink"))

    if doc.get("out_dir") is not None:
        cfg.out_dir = config_path(doc, "out_dir", base_dir)
    return cfg


def load_pipeline_config(path) -> PipelineConfig:
    return pipeline_config_from_dict(read_config(path, "config"),
                                     base_dir=os.path.dirname(os.fspath(path)))


def _frame_stream(cfg: PipelineConfig):
    """Yield (FrameMeta, [Detection]) pairs plus the derived scene seed (or None)."""
    if cfg.source_kind == "dump":
        return read_dump(cfg.dump_path, width=cfg.frame_width, height=cfg.frame_height), None
    scene_seed = derive_seed(cfg.seed, SCENE_SEED_LABEL)
    scene_cfg = dataclasses.replace(cfg.scene, seed=scene_seed)
    scene = simulate(scene_cfg)
    stream = ((meta, dets) for meta, dets in zip(scene.frames, scene.noisy))
    return stream, scene_seed


TRACKS_FILE = "tracks.jsonl"
ALERTS_FILE = "alerts.jsonl"
HEATMAP_CSV = "heatmap.csv"
HEATMAP_PGM = "heatmap.pgm"
FLOWMAP_CSV = "flowmap.csv"
DWELL_JSON = "dwell.json"
COUNTS_JSON = "counts.json"
MANIFEST_JSON = "run-manifest.json"


def run(cfg: PipelineConfig, out_dir: Optional[str] = None) -> dict:
    """Execute a configured run and write artifacts into *out_dir*.

    Returns the run manifest (also written as run-manifest.json).  The
    manifest echoes the original config document so a run can be reproduced
    from its own output directory.
    """
    out_dir = out_dir or cfg.out_dir or "out"
    os.makedirs(out_dir, exist_ok=True)

    stream, scene_seed = _frame_stream(cfg)
    tracker = SortTracker(cfg.tracker)
    engine = RuleEngine(list(cfg.rules)) if cfg.run_rules else None
    zones = engine.prepared_zones if engine is not None else []
    stats = None
    if cfg.run_stats:
        stats = SceneStats(cfg.frame_width, cfg.frame_height, grid=cfg.grid, zones=zones)
    sink = TcpAlertSink(*cfg.alert_sink) if cfg.alert_sink else None

    artifacts = [TRACKS_FILE]
    if engine is not None:
        artifacts.append(ALERTS_FILE)
    if stats is not None:
        artifacts += [HEATMAP_CSV, HEATMAP_PGM, FLOWMAP_CSV, DWELL_JSON, COUNTS_JSON]
    artifacts.append(MANIFEST_JSON)

    n_frames = 0
    n_rows = 0
    n_alerts = 0
    tracks_fh = open(os.path.join(out_dir, TRACKS_FILE), "w", encoding="utf-8", newline="\n")
    alerts_fh = None
    if engine is not None:
        alerts_fh = open(os.path.join(out_dir, ALERTS_FILE), "w", encoding="utf-8", newline="\n")
    try:
        for meta, detections in stream:
            confirmed = tracker.step(meta, detections)
            for track in confirmed:
                tracks_fh.write(json.dumps(track_record(meta, track)) + "\n")
            n_rows += len(confirmed)
            # one zone test per track and zone, shared by rules and stats
            placed = (place(zones, confirmed)
                      if engine is not None or stats is not None else None)
            if engine is not None:
                for event in engine.evaluate(meta, confirmed, placed):
                    alerts_fh.write(json.dumps(alert_record(event)) + "\n")
                    n_alerts += 1
                    if sink is not None:
                        sink.send(event)
            if stats is not None:
                stats.ingest(meta, confirmed, placed)
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
    with open(os.path.join(out_dir, MANIFEST_JSON), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
