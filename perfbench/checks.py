"""Output checks: invariants inside one run's artifacts, and fingerprints
compared against the reference stored in ``reference/<workload>.json``.

A fingerprint keeps discrete outputs as sha256 digests (per-frame confirmed
track ids, alert (rule_id, track_id, frame_id) triples, selection ids, the
augment report, predicted labels) and float outputs as numbers that must
match to within ``REL_TOL`` relative (box-coordinate sums over frame
chunks, cumulative objective values, mAP, final loss).  Each check returns
a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-6
BOX_CHUNKS = 16
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def alert_triples(records) -> list:
    return sorted((r["rule_id"], r["track_id"] if r["track_id"] is not None else -1,
                   r["frame_id"]) for r in records)


def dump_frames(path) -> int:
    """Distinct frame ids in a detection dump (empty frames are absent)."""
    frames = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                frames.add(json.loads(line)["frame"])
    return len(frames)


def stream_outputs(out_dir, expected_frames):
    """(fingerprint, invariant failures, alert records) of a `vigil run` output."""
    failures = []
    manifest = _json(os.path.join(out_dir, "run-manifest.json"))
    tracks = _jsonl(os.path.join(out_dir, "tracks.jsonl"))
    alerts = _jsonl(os.path.join(out_dir, "alerts.jsonl"))
    if manifest["frames"] != expected_frames:
        failures.append(f"manifest frames {manifest['frames']} != dump frames {expected_frames}")
    if manifest["track_rows"] != len(tracks):
        failures.append(f"manifest track_rows {manifest['track_rows']} != {len(tracks)} rows")
    if manifest["alerts"] != len(alerts):
        failures.append(f"manifest alerts {manifest['alerts']} != {len(alerts)} rows")
    counts = _json(os.path.join(out_dir, "counts.json"))
    with open(os.path.join(out_dir, "heatmap.csv"), newline="") as fh:
        heat = sum(int(v) for row in csv.reader(fh) for v in row)
    if counts["observations"] != heat:
        failures.append(f"counts observations {counts['observations']} != heat-map sum {heat}")

    per_frame = {}
    for row in tracks:
        per_frame.setdefault(row["frame"], []).append(row)
    frames = sorted(per_frame)
    sums = [0.0] * BOX_CHUNKS
    for i, f in enumerate(frames):
        sums[i * BOX_CHUNKS // len(frames)] += sum(
            r["x1"] + r["y1"] + r["x2"] + r["y2"] for r in per_frame[f])
    fp = {
        "frames": manifest["frames"],
        "track_rows": len(tracks),
        "track_ids": _sha(f"{f}:" + ",".join(str(r["track_id"]) for r in per_frame[f])
                          for f in frames),
        "alerts": len(alerts),
        "alert_triples": _sha(repr(t) for t in alert_triples(alerts)),
        "box_sums": sums,
    }
    return fp, failures, alerts


def curate_outputs(out_dir, budget):
    """(fingerprint, invariant failures) of the five dataset commands' outputs."""
    failures = []
    with open(os.path.join(out_dir, "selection.csv"), newline="") as fh:
        selection = list(csv.DictReader(fh))
    if len(selection) != budget:
        failures.append(f"selection has {len(selection)} rows, budget {budget}")
    report = _json(os.path.join(out_dir, "augment-report.json"))
    targets = {v["after"] for v in report.values()}
    if len(targets) != 1:
        failures.append(f"augment left unbalanced classes: {sorted(targets)}")
    with open(os.path.join(out_dir, "balanced-manifest.csv"), newline="") as fh:
        balanced = [row["path"] for row in csv.DictReader(fh)]
    generated = [p for p in balanced if "__aug" in os.path.basename(p)]
    if len(generated) != sum(v["generated"] for v in report.values()):
        failures.append("balanced manifest and augment report disagree")
    missing = [p for p in generated if not os.path.exists(p)]
    if missing:
        failures.append(f"{len(missing)} augmented images were not written")
    train = _json(os.path.join(out_dir, "train-report.json"))
    with open(os.path.join(out_dir, "predictions.csv"), newline="") as fh:
        predicted = [row["predicted"] for row in csv.DictReader(fh)]
    if not set(predicted) <= set(train["classes"]):
        failures.append("predictions outside the trained classes")
    ev = _json(os.path.join(out_dir, "eval-report.json"))
    if not 0.0 <= ev["map"] <= 1.0:
        failures.append(f"mAP {ev['map']} outside [0, 1]")
    fp = {
        "selection": _sha(r["item_id"] for r in selection),
        "cumulative_f": [float(r["cumulative_f"]) for r in selection],
        "augment_report": _sha([json.dumps(report, sort_keys=True)]),
        "balanced": _sha(os.path.basename(p) for p in balanced),
        "predicted": _sha(predicted),
        "final_loss": train["final_loss"],
        "map": ev["map"],
    }
    return fp, failures


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def compare(fp: dict, ref: dict) -> list:
    """Failures where *fp* departs from *ref* (floats to REL_TOL relative)."""
    failures = []
    for key, want in ref.items():
        got = fp.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and _close(got, want)
        elif isinstance(want, list) and want and isinstance(want[0], float):
            ok = (isinstance(got, list) and len(got) == len(want)
                  and all(_close(g, w) for g, w in zip(got, want)))
        else:
            ok = got == want
        if not ok:
            failures.append(f"{key} differs from the reference")
    return failures


def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    return _json(path) if os.path.exists(path) else {}


def save_reference(workload: str, table: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({k: table[k] for k in sorted(table, key=int)}, fh, indent=1)
        fh.write("\n")
