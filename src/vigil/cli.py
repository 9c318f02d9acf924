"""Command-line front end.

Every subcommand reads one JSON config (--config), takes an optional --seed
override and an output directory (--out, default "out"), and writes its
artifacts there.  Exit codes: 0 success, 2 config error, 3 data error,
4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._version import __version__
from .augment import (
    AugmentationBounds,
    balance,
    balance_report,
    materialize,
    read_manifest_csv,
    write_manifest_csv,
)
from .config import as_int, check_keys, config_path, read_config
from .errors import ConfigError, DataError, VigilError
from .evaluation import EvalConfig, evaluate_detections
from .pipeline import load_pipeline_config
from .pipeline import run as run_pipeline
from .rng import Rng, derive_seed
from .softmax import (
    TrainConfig,
    evaluation_report,
    load_features_csv,
    load_model,
    predict_batch,
    save_model,
    train,
)
from .sources import load_scene_config, read_dump, simulate, write_dump
from .summarize import (
    DEFAULT_BUDGET,
    MODEL_KINDS,
    build_model,
    ground_set_from_csv,
    ground_set_from_images,
    greedy_trace,
    lazy_greedy_trace,
    write_selection_csv,
    write_signature_csv,
)


def _job_config(args, allowed: set, what: str):
    """The --config document, checked against *allowed*, and its directory."""
    doc = read_config(args.config, "config")
    check_keys(doc, allowed, what)
    return doc, os.path.dirname(args.config)


def _out_dir(args) -> str:
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> None:
    cfg = load_pipeline_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = args.out or cfg.out_dir or "out"
    manifest = run_pipeline(cfg, out)
    _say(args, f"processed {manifest['frames']} frames: "
               f"{manifest['track_rows']} track rows, {manifest['alerts']} alerts")
    for name in manifest["artifacts"]:
        _say(args, f"wrote {os.path.join(out, name)}")


def _cmd_synth(args) -> None:
    scene_cfg = load_scene_config(args.config)
    if args.seed is not None:
        scene_cfg = dataclasses.replace(scene_cfg, seed=args.seed)
    scene = simulate(scene_cfg)
    out = _out_dir(args)
    gt_path = os.path.join(out, "ground-truth.jsonl")
    det_path = os.path.join(out, "detections.jsonl")
    n_gt = write_dump(gt_path, zip(scene.frames, scene.ground_truth))
    n_noisy = write_dump(det_path, zip(scene.frames, scene.noisy))
    _say(args, f"simulated {len(scene.frames)} frames "
               f"({n_gt} true boxes, {n_noisy} noisy detections)")
    _say(args, f"wrote {gt_path}")
    _say(args, f"wrote {det_path}")


def _cmd_summarize(args) -> None:
    doc, base_dir = _job_config(args, {"signatures_csv", "images_dir", "model", "alpha",
                                        "budget", "sampling_fps", "algorithm",
                                        "write_signatures"}, "summarize")
    if ("signatures_csv" in doc) == ("images_dir" in doc):
        raise ConfigError("give exactly one of 'signatures_csv' or 'images_dir'")

    fps = doc.get("sampling_fps", 1.0)
    if not isinstance(fps, (int, float)) or fps <= 0:
        raise ConfigError("sampling_fps must be a positive number")
    if "signatures_csv" in doc:
        ground = ground_set_from_csv(config_path(doc, "signatures_csv", base_dir), float(fps))
    else:
        ground = ground_set_from_images(config_path(doc, "images_dir", base_dir), float(fps))

    kind = doc.get("model", "facility-location")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model must be one of {sorted(MODEL_KINDS)}")
    alpha = doc.get("alpha", 0.5)
    if not isinstance(alpha, (int, float)):
        raise ConfigError("alpha must be a number")
    budget = as_int(doc, "budget", DEFAULT_BUDGET, where="summarize")
    if budget < 1:
        raise ConfigError("budget must be a positive integer")
    algorithm = doc.get("algorithm", "lazy")
    if algorithm not in ("lazy", "naive"):
        raise ConfigError("algorithm must be 'lazy' or 'naive'")

    model = build_model(kind, ground, alpha=float(alpha))
    trace = lazy_greedy_trace if algorithm == "lazy" else greedy_trace
    steps = trace(model, budget)

    out = _out_dir(args)
    sel_path = os.path.join(out, "selection.csv")
    write_selection_csv(sel_path, ground, steps)
    _say(args, f"selected {len(steps)} of {len(ground)} items "
               f"(f = {steps[-1].cumulative if steps else 0.0})")
    _say(args, f"wrote {sel_path}")
    if doc.get("write_signatures"):
        sig_path = os.path.join(out, "signatures.csv")
        write_signature_csv(sig_path, ground)
        _say(args, f"wrote {sig_path}")


def _cmd_augment(args) -> None:
    doc, base_dir = _job_config(args, {"manifest_csv", "bounds", "seed", "materialize"},
                                 "augment")
    manifest = read_manifest_csv(config_path(doc, "manifest_csv", base_dir))

    bounds_doc = doc.get("bounds", {})
    if not isinstance(bounds_doc, dict):
        raise ConfigError("bounds must be an object")
    try:
        bounds = AugmentationBounds(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in bounds_doc.items()})
    except TypeError as exc:
        raise ConfigError(f"bad bounds: {exc}") from exc

    seed = args.seed if args.seed is not None else as_int(doc, "seed", 0, where="augment")

    out = _out_dir(args)
    rng = Rng(derive_seed(seed, "augment"))
    balanced = balance(manifest, bounds, rng, out_dir=out)

    man_path = os.path.join(out, "balanced-manifest.csv")
    rep_path = os.path.join(out, "augment-report.json")
    write_manifest_csv(man_path, balanced)
    _write_json(rep_path, balance_report(manifest, balanced))
    if doc.get("materialize", True):
        n = materialize(balanced)
        _say(args, f"rendered {n} augmented images")
    _say(args, f"wrote {man_path}")
    _say(args, f"wrote {rep_path}")


_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


def _cmd_train_head(args) -> None:
    doc, base_dir = _job_config(args, {"features_csv"} | _TRAIN_FIELDS, "train-head")
    ids, labels, X = load_features_csv(config_path(doc, "features_csv", base_dir))
    try:
        cfg = TrainConfig(**{k: doc[k] for k in _TRAIN_FIELDS if k in doc})
    except TypeError as exc:
        raise ConfigError(f"bad training config: {exc}") from exc
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    result = train(X, labels, cfg)
    out = _out_dir(args)
    model_path = os.path.join(out, "model.json")
    report_path = os.path.join(out, "train-report.json")
    save_model(model_path, result.model)
    report = {
        "classes": list(result.model.classes),
        "d": result.model.d,
        "epochs": len(result.losses) - 1,
        "converged": result.converged,
        "final_loss": result.final_loss,
        "train_accuracy": evaluation_report(result.model, X, labels)["accuracy"],
    }
    _write_json(report_path, report)
    _say(args, f"trained on {len(ids)} rows, {len(result.model.classes)} classes; "
               f"final loss {result.final_loss:.6f}"
               + ("" if result.converged else " (epoch limit reached)"))
    _say(args, f"wrote {model_path}")
    _say(args, f"wrote {report_path}")


def _cmd_predict(args) -> None:
    doc, base_dir = _job_config(args, {"model_json", "features_csv"}, "predict")
    model = load_model(config_path(doc, "model_json", base_dir))
    ids, labels, X = load_features_csv(config_path(doc, "features_csv", base_dir))
    if X.shape[1] != model.d:
        raise DataError(f"feature dimension {X.shape[1]} does not match model ({model.d})")

    predicted, probs = predict_batch(model, X)
    out = _out_dir(args)
    pred_path = os.path.join(out, "predictions.csv")
    with open(pred_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,predicted,prob\n")
        for item_id, label, row in zip(ids, predicted, probs):
            fh.write(f"{item_id},{label},{repr(float(row.max()))}\n")
    _say(args, f"predicted {len(ids)} rows")
    _say(args, f"wrote {pred_path}")

    known = set(model.classes)
    if labels and all(lab in known for lab in labels):
        eval_path = os.path.join(out, "head-eval.json")
        _write_json(eval_path, evaluation_report(model, X, labels))
        _say(args, f"wrote {eval_path}")
    else:
        _say(args, "labels absent or outside the model vocabulary; no eval report")


def _read_flat_dump(path, width: int, height: int):
    return [det for _, dets in read_dump(path, width=width, height=height)
            for det in dets]


def _cmd_eval(args) -> None:
    doc, base_dir = _job_config(args, {"predictions", "ground_truth", "iou_threshold",
                                        "width", "height"}, "eval")
    width = as_int(doc, "width", 1920, where="eval")
    height = as_int(doc, "height", 1080, where="eval")
    if width <= 0 or height <= 0:
        raise ConfigError("width and height must be positive")
    threshold = doc.get("iou_threshold", 0.5)
    if not isinstance(threshold, (int, float)):
        raise ConfigError("iou_threshold must be a number")

    preds = _read_flat_dump(config_path(doc, "predictions", base_dir), width, height)
    gts = _read_flat_dump(config_path(doc, "ground_truth", base_dir), width, height)
    report = evaluate_detections(preds, gts, EvalConfig(float(threshold)))

    out = _out_dir(args)
    path = os.path.join(out, "eval-report.json")
    _write_json(path, report)
    _say(args, f"mAP@{float(threshold)} = {report['map']}  "
               f"precision = {report['precision']}  recall = {report['recall']}")
    _say(args, f"wrote {path}")


# ---------------------------------------------------------------------------
# parser


_COMMANDS = [
    ("run", _cmd_run, "track a detection stream and emit stats and alerts"),
    ("summarize", _cmd_summarize, "pick a diverse subset of frames"),
    ("augment", _cmd_augment, "balance a dataset with augmented copies"),
    ("train-head", _cmd_train_head, "fit a softmax classifier on features"),
    ("predict", _cmd_predict, "classify feature rows with a trained head"),
    ("eval", _cmd_eval, "score detections against ground truth"),
    ("synth", _cmd_synth, "simulate a scene and dump its detections"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vigil",
        description="video-analytics toolkit: tracking, summarization, "
                    "augmentation, classification and rule-based alerting")
    parser.add_argument("--version", action="version", version=f"vigil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the config")
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except VigilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
