"""Command-line front end.

Every subcommand reads one JSON config (--config) and an output directory
(--out, default "out"), and writes its artifacts there; the commands that
may draw random numbers (run, synth, augment) also take a --seed override.
run draws them only for a synthetic source: on a dump source the seed
changes nothing but its echo in run-manifest.json.
Exit codes: 0 success, 2 config error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .config import (
    REQUIRED,
    boolean,
    fields_of,
    integer,
    number,
    parse,
    pathname,
    read_config,
    record,
    string,
)
from .errors import ConfigError, DataError, make_out_dir, write_csv, write_json
from .evaluation import EvalConfig, EvalDetections, evaluate_detections
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
from .sources import dump_lines, load_scene_config, read_dump, simulate_rows
from .summarize import (
    DEFAULT_BUDGET,
    MODEL_KINDS,
    build_model,
    ground_set_from_csv,
    ground_set_from_images,
    lazy_greedy_trace,
    write_selection_csv,
    write_signature_csv,
)


def _job_config(args, table: dict, what: str) -> dict:
    """The fields of the --config document, checked against *table*."""
    return parse(read_config(args.config, "config"), table, what,
                 os.path.dirname(args.config))


def _out_dir(args) -> str:
    return make_out_dir(args.out or "out")


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
    frames = list(simulate_rows(scene_cfg))  # all of it, before any file is made
    out = _out_dir(args)
    gt_path = os.path.join(out, "ground-truth.jsonl")
    det_path = os.path.join(out, "detections.jsonl")
    n_gt = n_noisy = 0
    labels: dict = {}
    with open(gt_path, "w", encoding="utf-8", newline="\n") as gt_fh, \
            open(det_path, "w", encoding="utf-8", newline="\n") as det_fh:
        for meta, truth, detected, _ in frames:
            gt_fh.write(dump_lines(meta, truth, labels))
            det_fh.write(dump_lines(meta, detected, labels))
            n_gt += len(truth)
            n_noisy += len(detected)
    _say(args, f"simulated {len(frames)} frames ({n_gt} true boxes, {n_noisy} noisy detections)")
    _say(args, f"wrote {gt_path}")
    _say(args, f"wrote {det_path}")


_SUMMARIZE = {"signatures_csv": (pathname, None), "images_dir": (pathname, None),
              "model": (string, "facility-location"), "alpha": (number, None),
              "budget": (integer, DEFAULT_BUDGET), "algorithm": (string, "lazy"),
              "write_signatures": (boolean, False)}


def _cmd_summarize(args) -> None:
    doc = _job_config(args, _SUMMARIZE, "summarize")
    if (doc["signatures_csv"] is None) == (doc["images_dir"] is None):
        raise ConfigError("give exactly one of 'signatures_csv' or 'images_dir'")
    if doc["model"] not in MODEL_KINDS:
        raise ConfigError(f"model must be one of {sorted(MODEL_KINDS)}")
    if doc["alpha"] is not None and doc["model"] != "saturated-coverage":
        raise ConfigError("summarize.alpha applies only to model 'saturated-coverage'")
    if doc["budget"] < 1:
        raise ConfigError("budget must be a positive integer")
    if doc["algorithm"] != "lazy":
        raise ConfigError("summarize.algorithm must be 'lazy', the one selector")

    if doc["signatures_csv"] is not None:
        ground = ground_set_from_csv(doc["signatures_csv"])
    else:
        ground = ground_set_from_images(doc["images_dir"])
    alpha = 0.5 if doc["alpha"] is None else float(doc["alpha"])
    model = build_model(doc["model"], ground, alpha=alpha)
    steps = lazy_greedy_trace(model, doc["budget"])

    out = _out_dir(args)
    sel_path = os.path.join(out, "selection.csv")
    write_selection_csv(sel_path, ground, steps)
    _say(args, f"selected {len(steps)} of {len(ground)} items "
               f"(f = {steps[-1].cumulative if steps else 0.0})")
    _say(args, f"wrote {sel_path}")
    if doc["write_signatures"]:
        sig_path = os.path.join(out, "signatures.csv")
        write_signature_csv(sig_path, ground)
        _say(args, f"wrote {sig_path}")


_AUGMENT = {"manifest_csv": (pathname, REQUIRED),
            "bounds": (record(AugmentationBounds), {}),
            "seed": (integer, 0), "materialize": (boolean, True)}


def _cmd_augment(args) -> None:
    doc = _job_config(args, _AUGMENT, "augment")
    manifest = read_manifest_csv(doc["manifest_csv"])
    seed = args.seed if args.seed is not None else doc["seed"]

    out = _out_dir(args)
    rng = Rng(derive_seed(seed, "augment"))
    balanced = balance(manifest, doc["bounds"], rng, out_dir=out)

    man_path = os.path.join(out, "balanced-manifest.csv")
    rep_path = os.path.join(out, "augment-report.json")
    write_manifest_csv(man_path, balanced)
    write_json(rep_path, balance_report(manifest, balanced))
    if doc["materialize"]:
        n = materialize(balanced)
        _say(args, f"rendered {n} augmented images")
    _say(args, f"wrote {man_path}")
    _say(args, f"wrote {rep_path}")


_TRAIN_HEAD = {"features_csv": (pathname, REQUIRED), **fields_of(TrainConfig)}


def _cmd_train_head(args) -> None:
    doc = _job_config(args, _TRAIN_HEAD, "train-head")
    features_csv = doc.pop("features_csv")
    cfg = TrainConfig(**doc)
    ids, labels, X = load_features_csv(features_csv)

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
    write_json(report_path, report)
    _say(args, f"trained on {len(ids)} rows, {len(result.model.classes)} classes; "
               f"final loss {result.final_loss:.6f}"
               + ("" if result.converged else " (epoch limit reached)"))
    _say(args, f"wrote {model_path}")
    _say(args, f"wrote {report_path}")


def _cmd_predict(args) -> None:
    doc = _job_config(args, {"model_json": (pathname, REQUIRED),
                             "features_csv": (pathname, REQUIRED)}, "predict")
    model = load_model(doc["model_json"])
    ids, labels, X = load_features_csv(doc["features_csv"])
    if X.shape[1] != model.d:
        raise DataError(f"feature dimension {X.shape[1]} does not match model ({model.d})")

    predicted, probs = predict_batch(model, X)
    out = _out_dir(args)
    pred_path = os.path.join(out, "predictions.csv")
    write_csv(pred_path, [["id", "predicted", "prob"],
                          *zip(ids, predicted, probs.max(axis=1).tolist())],
              lineterminator="\n")
    _say(args, f"predicted {len(ids)} rows")
    _say(args, f"wrote {pred_path}")

    known = set(model.classes)
    if labels and all(lab in known for lab in labels):
        eval_path = os.path.join(out, "head-eval.json")
        write_json(eval_path, evaluation_report(model, X, labels))
        _say(args, f"wrote {eval_path}")
    else:
        _say(args, "labels absent or outside the model vocabulary; no eval report")


_EVAL = {"predictions": (pathname, REQUIRED), "ground_truth": (pathname, REQUIRED),
         # width and height reach no output; kept for configs (ROADMAP item 6)
         "width": (integer, 1920), "height": (integer, 1080), **fields_of(EvalConfig)}


def _cmd_eval(args) -> None:
    doc = _job_config(args, _EVAL, "eval")
    if doc["width"] <= 0 or doc["height"] <= 0:
        raise ConfigError("width and height must be positive")
    cfg = EvalConfig(doc["iou_threshold"])

    preds = EvalDetections.of_frames(read_dump(doc["predictions"]))
    gts = EvalDetections.of_frames(read_dump(doc["ground_truth"]))
    report = evaluate_detections(preds, gts, cfg)

    out = _out_dir(args)
    path = os.path.join(out, "eval-report.json")
    write_json(path, report)
    _say(args, f"mAP@{cfg.iou_threshold} = {report['map']}  "
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
_SEEDED = ("run", "synth", "augment")  # the commands that draw random numbers


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="vigil",
        description="video-analytics toolkit: tracking, summarization, "
                    "augmentation, classification and rule-based alerting")
    parser.add_argument("--version", action="version", version=f"vigil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name in _SEEDED:
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
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
