"""Seeded input generation for the four benchmark workloads.

Every input vigil sees is a file written here from ``random.Random(seed)``
(bulk arrays from a numpy PCG64 generator seeded by it): scene configs (turned into detection dumps by ``vigil synth``), run configs
with their rules, signature/feature/manifest CSVs and PPM images.  The same
seed always yields byte-identical files.

``build(name, seed, workdir, vigil_main)`` writes one workload's
inputs into *workdir* and returns a plan: the passes of vigil commands to
time, plus what the output checks need to know.
"""

from __future__ import annotations

import io
import json
import math
import os
import random

import numpy as np

WIDTH, HEIGHT = 1280, 720
FPS = 10.0

CROWD_FRAMES = 100
CROWD_CONCURRENT = 60
PERIMETER_FRAMES = 150
PERIMETER_OBJECTS = 8

# Open-loop rate of the live workload, about half the closed-loop perimeter
# throughput on a 2-core x86-64 container.  Fixed, so the input never
# depends on a timing taken during the run.  A live run streams the dump in
# sessions of LIVE_SESSION_S seconds, each a fresh `vigil run`.
LIVE_RATE = 60.0
LIVE_SESSION_S = 5.0

SUMMARIZE_ITEMS = 400
SIGNATURE_DIM = 512
SUMMARIZE_BUDGET = 40
FEATURE_ROWS = 2000
FEATURE_DIM = 64
FEATURE_CLASSES = 4
IMAGE_SIDE = 64
IMAGE_CLASS_COUNTS = {"bicycle": 8, "car": 16, "person": 40}
EVAL_FRAMES = 200
EVAL_OBJECTS = 24

CLASS_SIZES = {  # (w range, h range) in pixels
    "person": ((18.0, 30.0), (44.0, 70.0)),
    "car": ((60.0, 96.0), (36.0, 56.0)),
    "bicycle": ((26.0, 40.0), (34.0, 48.0)),
}

WORKLOADS = ("crowd", "perimeter", "live", "curate")


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _object(rng: random.Random, label: str, entry: int, exit_frame, max_speed: float) -> dict:
    (wlo, whi), (hlo, hhi) = CLASS_SIZES[label]
    w, h = round(rng.uniform(wlo, whi), 2), round(rng.uniform(hlo, hhi), 2)
    cx = round(rng.uniform(w / 2 + 1, WIDTH - w / 2 - 1), 2)
    cy = round(rng.uniform(h / 2 + 1, HEIGHT - h / 2 - 1), 2)
    speed = rng.uniform(0.5, max_speed)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    obj = {"class_label": label, "center": [cx, cy],
           "velocity": [round(speed * math.cos(heading), 3),
                        round(speed * math.sin(heading), 3)],
           "size": [w, h], "entry_frame": entry}
    if exit_frame is not None:
        obj["exit_frame"] = exit_frame
    return obj


def _crowd_objects(rng: random.Random, frames: int) -> list:
    """CROWD_CONCURRENT slots, each a chain of objects that enter and leave."""
    labels = sorted(CLASS_SIZES)
    objects = []
    for _ in range(CROWD_CONCURRENT):
        start = 0
        while start < frames - 5:
            life = rng.randint(30, 90)
            end = start + life
            objects.append(_object(rng, rng.choice(labels), start,
                                   end if end < frames else None, 6.0))
            start = end + rng.randint(0, 4)
    return objects


def _scene(rng, frames, objects, fp_per_frame, source_id) -> dict:
    return {"width": WIDTH, "height": HEIGHT, "fps": FPS,
            "duration_frames": frames, "objects": objects,
            "jitter_sigma": 1.5, "miss_probability": 0.05,
            "false_positives_per_frame": fp_per_frame,
            "seed": rng.randrange(1 << 62), "source_id": source_id}


def _polygon(rng: random.Random, vertices: int = 12) -> list:
    """Star-shaped, hence simple, polygon: sorted angles, positive radii."""
    r0 = rng.uniform(60.0, 170.0)
    cx = rng.uniform(r0 + 5, WIDTH - r0 - 5)
    cy = rng.uniform(r0 + 5, HEIGHT - r0 - 5)
    step = 2.0 * math.pi / vertices
    pts = []
    for k in range(vertices):
        ang = k * step + rng.uniform(0.1, 0.9) * step
        rad = r0 * rng.uniform(0.6, 1.0)
        pts.append([round(cx + rad * math.cos(ang), 2),
                    round(cy + rad * math.sin(ang), 2)])
    return pts


def _line(rng: random.Random) -> dict:
    x1, y1 = rng.uniform(50, WIDTH - 50), rng.uniform(50, HEIGHT - 50)
    ang = rng.uniform(0.0, math.pi)
    length = rng.uniform(150.0, 500.0)
    x2 = min(max(x1 + length * math.cos(ang), 1.0), WIDTH - 1.0)
    y2 = min(max(y1 + length * math.sin(ang), 1.0), HEIGHT - 1.0)
    return {"p": [round(x1, 2), round(y1, 2)], "q": [round(x2, 2), round(y2, 2)]}


def _perimeter_rules(rng: random.Random) -> list:
    rules = []
    for i in range(10):
        rules.append({"id": f"intrusion-{i}", "kind": "Intrusion",
                      "debounce_ms": 2000, "zone": _polygon(rng)})
        rules.append({"id": f"loiter-{i}", "kind": "Loiter", "debounce_ms": 5000,
                      "threshold_ms": rng.choice((1000, 2000, 3000)),
                      "zone": _polygon(rng)})
        rules.append({"id": f"occupancy-{i}", "kind": "Occupancy",
                      "min_count": rng.choice((1, 2)), "debounce_ms": 1000,
                      "zone": _polygon(rng)})
        rules.append({"id": f"line-{i}", "kind": "LineCross", "debounce_ms": 1000,
                      "line": _line(rng)})
    return rules


def _crowd_rules(rng: random.Random) -> list:
    return [
        {"id": "plaza", "kind": "Intrusion", "debounce_ms": 3000,
         "classes": ["person", "bicycle"], "zone": _polygon(rng, 4)},
        {"id": "gate", "kind": "LineCross", "debounce_ms": 2000, "line": _line(rng)},
    ]


def _run_config(dump, rules, cell, tracker, sink=None) -> dict:
    doc = {"source": {"kind": "dump", "path": dump, "width": WIDTH, "height": HEIGHT},
           "tracker": tracker, "grid": {"cell_size": cell}, "rules": rules, "seed": 7}
    if sink is not None:
        doc["alert_sink"] = {"host": "127.0.0.1", "port": sink}
    return doc


def _synth(vigil_main, workdir, name, scene) -> str:
    """Write a scene config and turn it into dumps with `vigil synth`."""
    cfg = os.path.join(workdir, f"{name}-scene.json")
    out = os.path.join(workdir, name)
    _write_json(cfg, scene)
    code = vigil_main(["synth", "--config", cfg, "--out", out, "--quiet"])
    if code != 0:
        raise RuntimeError(f"vigil synth exited {code} for {name}")
    return out


def _stream_plan(workdir, run_cfg, frames, dump) -> dict:
    cfg_path = os.path.join(workdir, "run.json")
    _write_json(cfg_path, run_cfg)
    out = os.path.join(workdir, "out")
    return {"kind": "stream", "frames": frames, "dump": dump, "out": out,
            "config": cfg_path,
            "commands": [["run", "--config", cfg_path, "--out", out, "--quiet"]]}


def _crowd(rng, workdir, vigil_main, sink_port) -> dict:
    scene = _scene(rng, CROWD_FRAMES, _crowd_objects(rng, CROWD_FRAMES), 2.0, "crowd")
    dumps = _synth(vigil_main, workdir, "scene", scene)
    dump = os.path.join(dumps, "detections.jsonl")
    tracker = {"min_hits": 3, "max_age": 2, "iou_min": 0.3}
    return _stream_plan(workdir, _run_config(dump, _crowd_rules(rng), 64, tracker),
                        CROWD_FRAMES, dump)


def _perimeter_scene(rng, frames, source_id) -> dict:
    objects = [_object(rng, rng.choice(("person", "person", "car")), 0, None, 4.0)
               for _ in range(PERIMETER_OBJECTS)]
    return _scene(rng, frames, objects, 0.3, source_id)


def _perimeter(rng, workdir, vigil_main, sink_port) -> dict:
    scene = _perimeter_scene(rng, PERIMETER_FRAMES, "perimeter")
    dump = os.path.join(_synth(vigil_main, workdir, "scene", scene), "detections.jsonl")
    tracker = {"min_hits": 2, "max_age": 3, "iou_min": 0.3}
    return _stream_plan(workdir, _run_config(dump, _perimeter_rules(rng), 8, tracker),
                        PERIMETER_FRAMES, dump)


def _live(rng, workdir, vigil_main, sink_port) -> dict:
    frames = int(LIVE_RATE * LIVE_SESSION_S)
    scene = _perimeter_scene(rng, frames, "live")
    dump = os.path.join(_synth(vigil_main, workdir, "scene", scene), "detections.jsonl")
    rules = _perimeter_rules(rng)
    tracker = {"min_hits": 2, "max_age": 3, "iou_min": 0.3}
    fifo = os.path.join(workdir, "stream.jsonl")
    plan = _stream_plan(workdir, _run_config(fifo, rules, 8, tracker, sink=sink_port),
                        frames, dump)
    # closed-loop twin: same config reading the dump file, no sink
    ref_cfg = os.path.join(workdir, "closed.json")
    _write_json(ref_cfg, _run_config(dump, rules, 8, tracker))
    plan.update(kind="live", rate=LIVE_RATE, closed_config=ref_cfg)
    return plan


# -- curate -----------------------------------------------------------------


def _write_rows(path, ids, matrix, fmt) -> None:
    """CSV rows `id,v0,v1,...`, formatted row-wise by numpy."""
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt=fmt, delimiter=",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for item, line in zip(ids, buf.getvalue().splitlines()):
            fh.write(f"{item},{line}\n")


def _signatures_csv(gen: np.random.Generator, path: str) -> None:
    """Clustered non-negative histograms: a few dozen scenes, noisy frames."""
    centers = gen.random((24, SIGNATURE_DIM)) ** 3
    pick = gen.integers(0, len(centers), SUMMARIZE_ITEMS)
    rows = np.maximum(centers[pick] + gen.normal(0.0, 0.05, (SUMMARIZE_ITEMS, SIGNATURE_DIM)), 0.0)
    _write_rows(path, [f"frame{i:05d}" for i in range(SUMMARIZE_ITEMS)], rows, "%.6f")


def _features_csv(gen: np.random.Generator, path: str, means: np.ndarray) -> None:
    labels = gen.integers(0, FEATURE_CLASSES, FEATURE_ROWS)
    rows = means[labels] + gen.normal(0.0, 1.0, (FEATURE_ROWS, FEATURE_DIM))
    _write_rows(path, [f"row{i:05d},class{k}" for i, k in enumerate(labels)], rows, "%.5f")


def _ppm(path: str, rng: random.Random) -> None:
    base = np.array([rng.randrange(40, 216) for _ in range(3)])
    fx, fy = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
    y, x = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    wave = (40 * np.sin(fx * x) * np.cos(fy * y)).astype(np.int64) + (x ^ y) % 16
    img = np.clip(base[None, None, :] + wave[:, :, None], 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{IMAGE_SIDE} {IMAGE_SIDE}\n255\n".encode("ascii") + img.tobytes())


def _curate(rng, workdir, vigil_main, sink_port) -> dict:
    out = os.path.join(workdir, "out")
    gen = np.random.Generator(np.random.PCG64(rng.randrange(1 << 63)))
    sig = os.path.join(workdir, "signatures.csv")
    _signatures_csv(gen, sig)

    img_dir = os.path.join(workdir, "images")
    os.makedirs(img_dir, exist_ok=True)
    manifest = os.path.join(workdir, "manifest.csv")
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        fh.write("path,class\n")
        for label in sorted(IMAGE_CLASS_COUNTS):
            for i in range(IMAGE_CLASS_COUNTS[label]):
                p = os.path.join(img_dir, f"{label}{i:03d}.ppm")
                _ppm(p, rng)
                fh.write(f"{p},{label}\n")

    means = gen.normal(0.0, 0.6, (FEATURE_CLASSES, FEATURE_DIM))
    train_csv = os.path.join(workdir, "train.csv")
    test_csv = os.path.join(workdir, "test.csv")
    _features_csv(gen, train_csv, means)
    _features_csv(gen, test_csv, means)

    objects = [_object(rng, rng.choice(sorted(CLASS_SIZES)), 0, None, 5.0)
               for _ in range(EVAL_OBJECTS)]
    dumps = _synth(vigil_main, workdir, "eval",
                   _scene(rng, EVAL_FRAMES, objects, 1.5, "eval"))

    configs = {
        "summarize": {"signatures_csv": sig, "budget": SUMMARIZE_BUDGET,
                      "model": "facility-location", "algorithm": "lazy"},
        "augment": {"manifest_csv": manifest, "seed": rng.randrange(1 << 31),
                    "materialize": True},
        "train-head": {"features_csv": train_csv, "learning_rate": 0.5,
                       "l2_lambda": 1e-4, "max_epochs": 150},
        "predict": {"model_json": os.path.join(out, "model.json"),
                    "features_csv": test_csv},
        "eval": {"predictions": os.path.join(dumps, "detections.jsonl"),
                 "ground_truth": os.path.join(dumps, "ground-truth.jsonl"),
                 "iou_threshold": 0.5, "width": WIDTH, "height": HEIGHT},
    }
    commands = []
    for job, doc in configs.items():
        path = os.path.join(workdir, f"{job}.json")
        _write_json(path, doc)
        commands.append([job, "--config", path, "--out", out, "--quiet"])
    return {"kind": "curate", "out": out, "commands": commands,
            "jobs": list(configs)}


_GENERATORS = {"crowd": _crowd, "perimeter": _perimeter, "live": _live, "curate": _curate}


def build(name: str, seed: int, workdir: str, vigil_main, sink_port: int = 0) -> dict:
    """Write workload *name*'s inputs for *seed* into *workdir*; return its plan.

    *sink_port* is the local TCP port of the live workload's alert receiver.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"vigil-bench/{name}/{seed}")
    return _GENERATORS[name](rng, workdir, vigil_main, sink_port)
