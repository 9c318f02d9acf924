"""Multinomial logistic regression head over precomputed feature vectors.

The upstream embedding network is out of scope; this module trains and
serves the classification head only.  Training is full-batch gradient
descent on mean cross-entropy with L2 weight decay (bias unregularized),
starting from zero weights, which makes runs deterministic and the loss
sequence monotone for small enough learning rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, decode_json, read_numeric_csv, read_text


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2_lambda: float = 1e-4
    max_epochs: int = 200
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be >= 0")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.convergence_tol <= 0:
            raise ConfigError("convergence_tol must be positive")


@dataclass
class SoftmaxModel:
    classes: list[str]  # ordered label vocabulary, index = class id
    W: np.ndarray       # (K, d)
    b: np.ndarray       # (K,)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if len(self.classes) < 2:
            raise ConfigError("need at least two classes")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError("duplicate class labels")
        if self.W.shape[0] != len(self.classes) or self.b.shape != (self.W.shape[0],):
            raise ConfigError("inconsistent W/b/classes shapes")

    @property
    def d(self) -> int:
        return self.W.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (K,) or (n, K) array, bit for bit
    ``e / e.sum(axis=-1)`` with ``e = exp(logits - logits.max(axis=-1))``.

    A reduction along a short last axis costs numpy one inner loop per
    row, so the row max and sum run over the K class columns instead,
    each call covering all n rows.  The max is exact in any order.  For
    fewer than 8 terms numpy's sum adds left to right, as the columns
    are added here; from 8 on it sums in pairwise blocks, so wider rows
    keep ``e.sum(axis=-1)``.
    """
    K = logits.shape[-1]
    x = logits.reshape(-1, K)
    m = x[:, 0].copy()
    for k in range(1, K):
        np.maximum(m, x[:, k], out=m)
    e = np.exp(x - m[:, None])
    if K < 8:
        s = e[:, 0].copy()
        for k in range(1, K):
            s += e[:, k]
    else:
        s = e.sum(axis=-1)
    e /= s[:, None]
    return e.reshape(logits.shape)


def loss_and_grad(model: SoftmaxModel, X: np.ndarray, y: np.ndarray,
                  l2_lambda: float = 0.0):
    """Mean cross-entropy + (lambda/2)||W||^2 and its exact gradients.

    y holds class indices into model.classes.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    K = len(model.classes)
    if np.any(y < 0) or np.any(y >= K):
        raise DataError("label index outside the class vocabulary")
    P = _softmax(X @ model.W.T + model.b)
    # clip only inside the log; P itself feeds the (exact) gradient
    ce = -np.log(np.clip(P[np.arange(n), y], 1e-300, None)).mean()
    loss = ce + 0.5 * l2_lambda * float((model.W ** 2).sum())
    G = P.copy()
    G[np.arange(n), y] -= 1.0
    dW = G.T @ X / n + l2_lambda * model.W
    db = G.mean(axis=0)
    return loss, dW, db


@dataclass
class TrainResult:
    model: SoftmaxModel
    losses: list[float]     # loss before each epoch's update, then final
    converged: bool

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train(X: np.ndarray, labels: list[str],
          config: TrainConfig | None = None) -> TrainResult:
    """Fit a head on (X, labels); class vocabulary is sorted(set(labels)).
    A loss that is not finite (training diverged) is a DataError."""
    cfg = config if config is not None else TrainConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("training features must form a non-empty (n, d) matrix")
    if X.shape[0] != len(labels):
        raise DataError("one label required per feature row")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DataError("training data must contain at least two classes")
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[l] for l in labels])

    model = SoftmaxModel(classes, np.zeros((len(classes), X.shape[1])),
                         np.zeros(len(classes)))
    losses: list[float] = []
    converged = False
    prev = None
    # _finite reports a diverging run; numpy's overflow warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            loss, dW, db = loss_and_grad(model, X, y, cfg.l2_lambda)
            losses.append(_finite(loss, len(losses), cfg))
            if prev is not None and abs(prev - loss) < cfg.convergence_tol:
                converged = True
                break
            model.W -= cfg.learning_rate * dW
            model.b -= cfg.learning_rate * db
            prev = loss
        final, _, _ = loss_and_grad(model, X, y, cfg.l2_lambda)
        losses.append(_finite(final, len(losses), cfg))
    return TrainResult(model, losses, converged)


def _finite(loss: float, epochs: int, cfg: TrainConfig) -> float:
    if not np.isfinite(loss):
        raise DataError(f"training diverged: loss is {loss} after epoch {epochs} "
                        f"(learning_rate {cfg.learning_rate})")
    return loss


def predict(model: SoftmaxModel, x: np.ndarray):
    """(label, probability vector); argmax ties go to the lowest class index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DataError(f"feature dimension {x.shape} != ({model.d},)")
    probs = _softmax(model.W @ x + model.b)
    return model.classes[int(np.argmax(probs))], probs


def predict_batch(model: SoftmaxModel, X: np.ndarray):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DataError(f"feature matrix must be (n, {model.d})")
    P = _softmax(X @ model.W.T + model.b)
    labels = [model.classes[i] for i in np.argmax(P, axis=1)]
    return labels, P


# ---------------------------------------------------------------------------
# persistence and reports


def save_model(path, model: SoftmaxModel) -> None:
    doc = {
        "classes": model.classes,
        "d": model.d,
        "W": [float(v) for v in model.W.reshape(-1)],  # row-major
        "b": [float(v) for v in model.b],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> SoftmaxModel:
    doc = decode_json(read_text(path), lambda reason: DataError(f"{path}: invalid JSON: {reason}"))
    try:
        classes = list(doc["classes"])
        d = int(doc["d"])
        W = np.array(doc["W"], dtype=float).reshape(len(classes), d)
        b = np.array(doc["b"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise DataError(f"{path}: non-finite weights")
    try:
        return SoftmaxModel(classes, W, b)
    except ConfigError as exc:  # the file, not the job's config, is at fault
        raise DataError(f"{path}: malformed model file: {exc}") from exc


def load_features_csv(path):
    """Feature file rows: id, label, v1..vd -> (ids, labels, X); values must be finite."""
    (ids, labels), X, line_nos = read_numeric_csv(path, 2, "expected id, label, values")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataError(f"{path} row {line_nos[bad[0]]}: non-finite value")
    return ids, labels, X


def evaluation_report(model: SoftmaxModel, X: np.ndarray,
                      labels: list[str]) -> dict:
    """Accuracy, per-class precision/recall, and a confusion matrix.

    Rows of the confusion matrix are true classes, columns predictions,
    both in model.classes order.  Labels absent from the vocabulary are
    rejected.
    """
    unknown = sorted(set(labels) - set(model.classes))
    if unknown:
        raise DataError(f"labels outside the model vocabulary: {unknown}")
    predicted, _ = predict_batch(model, X)
    K = len(model.classes)
    index = {c: i for i, c in enumerate(model.classes)}
    confusion = [[0] * K for _ in range(K)]
    for truth, pred in zip(labels, predicted):
        confusion[index[truth]][index[pred]] += 1
    correct = sum(confusion[i][i] for i in range(K))
    per_class = {}
    for i, label in enumerate(model.classes):
        tp = confusion[i][i]
        predicted_i = sum(confusion[r][i] for r in range(K))
        actual_i = sum(confusion[i])
        per_class[label] = {
            "precision": tp / predicted_i if predicted_i else 0.0,
            "recall": tp / actual_i if actual_i else 0.0,
        }
    return {
        "accuracy": correct / len(labels) if labels else 0.0,
        "per_class": per_class,
        "confusion": confusion,
        "classes": list(model.classes),
    }
