"""Tests for the linear classification head: gradients, training, reports."""

import json
import math

import numpy as np
import pytest

from vigil.cli import main
from vigil.errors import ConfigError, DataError
from vigil.softmax import (
    SoftmaxModel,
    TrainConfig,
    _softmax,
    evaluation_report,
    load_features_csv,
    load_model,
    loss_and_grad,
    predict,
    predict_batch,
    save_model,
    train,
)

from oracles import finite_difference_gradient, loss_and_grad_reference, softmax_reference


def _pack(model):
    return np.concatenate([model.W.reshape(-1), model.b])


def _loss_of_vector(classes, d, X, y, lam):
    K = len(classes)

    def f(vec):
        m = SoftmaxModel(classes, vec[: K * d].reshape(K, d), vec[K * d:])
        return loss_and_grad(m, X, y, lam)[0]

    return f


def test_zero_weight_loss_is_log_k():
    # With W = 0, b = 0 every row gets the uniform distribution, so the
    # cross-entropy is ln K no matter what the features are.
    rng = np.random.default_rng(5)
    for K in (2, 3, 5, 9):
        X = rng.normal(size=(7, 4)) * 50.0
        y = rng.integers(0, K, size=7)
        model = SoftmaxModel([f"c{i}" for i in range(K)],
                             np.zeros((K, 4)), np.zeros(K))
        loss, dW, db = loss_and_grad(model, X, y)
        assert abs(loss - math.log(K)) < 1e-12
        assert dW.shape == (K, 4) and db.shape == (K,)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 5))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(K, 9))
        classes = [f"c{i}" for i in range(K)]
        X = rng.normal(size=(n, d))
        y = rng.integers(0, K, size=n)
        model = SoftmaxModel(classes, rng.normal(size=(K, d)),
                             rng.normal(size=K))
        _, dW, db = loss_and_grad(model, X, y)
        analytic = np.concatenate([dW.reshape(-1), db])
        numeric = finite_difference_gradient(
            _loss_of_vector(classes, d, X, y, 0.0), _pack(model))
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, err)
    assert worst < 1e-4


def test_gradient_includes_l2_term():
    rng = np.random.default_rng(123)
    for lam in (0.01, 0.5):
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        model = SoftmaxModel(["a", "b", "c"], rng.normal(size=(3, 3)),
                             rng.normal(size=3))
        _, dW, db = loss_and_grad(model, X, y, lam)
        analytic = np.concatenate([dW.reshape(-1), db])
        numeric = finite_difference_gradient(
            _loss_of_vector(model.classes, 3, X, y, lam), _pack(model))
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        assert err < 1e-4
        # bias stays unregularized: its gradient must not depend on lambda
        _, _, db0 = loss_and_grad(model, X, y, 0.0)
        assert np.array_equal(db, db0)


def test_loss_and_grad_rejects_bad_label_index():
    model = SoftmaxModel(["a", "b"], np.zeros((2, 2)), np.zeros(2))
    X = np.zeros((3, 2))
    with pytest.raises(DataError):
        loss_and_grad(model, X, np.array([0, 1, 2]))
    with pytest.raises(DataError):
        loss_and_grad(model, X, np.array([0, -1, 1]))


def test_train_separable_toy_reaches_full_accuracy():
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    labels = ["neg", "neg", "neg", "pos", "pos", "pos"]
    result = train(X, labels, TrainConfig(learning_rate=0.5, l2_lambda=0.0,
                                          max_epochs=500))
    assert result.model.classes == ["neg", "pos"]
    predicted, _ = predict_batch(result.model, X)
    assert predicted == labels
    report = evaluation_report(result.model, X, labels)
    assert report["accuracy"] == 1.0


def test_training_loss_decreases_monotonically():
    rng = np.random.default_rng(17)
    X = np.vstack([rng.normal(-1.0, 0.6, size=(20, 2)),
                   rng.normal(+1.0, 0.6, size=(20, 2))])
    labels = ["left"] * 20 + ["right"] * 20
    result = train(X, labels, TrainConfig(learning_rate=0.05, l2_lambda=0.0,
                                          max_epochs=120))
    for earlier, later in zip(result.losses, result.losses[1:]):
        assert later <= earlier + 1e-12
    assert result.losses[0] == pytest.approx(math.log(2), abs=1e-12)
    assert result.final_loss == result.losses[-1]


def test_convergence_flag():
    X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
    labels = ["a", "b", "a", "b"]
    done = train(X, labels, TrainConfig(learning_rate=0.2,
                                        convergence_tol=1e-4,
                                        max_epochs=5000))
    assert done.converged
    cut = train(X, labels, TrainConfig(max_epochs=1))
    assert not cut.converged
    # one epoch = pre-update loss plus the final post-update loss
    assert len(cut.losses) == 2


def test_class_vocabulary_is_sorted():
    X = np.arange(8, dtype=float).reshape(4, 2)
    result = train(X, ["dog", "cat", "cat", "ant"],
                   TrainConfig(max_epochs=1))
    assert result.model.classes == ["ant", "cat", "dog"]


def test_training_is_deterministic():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(12, 3))
    labels = [("x" if v > 0 else "y") for v in X[:, 0]]
    a = train(X, labels, TrainConfig(max_epochs=40))
    b = train(X, labels, TrainConfig(max_epochs=40))
    assert np.array_equal(a.model.W, b.model.W)
    assert np.array_equal(a.model.b, b.model.b)
    assert a.losses == b.losses


def _assert_same_array(got, want, where):
    assert got.shape == want.shape and got.dtype == want.dtype, where
    assert got.strides == want.strides, where  # the layout the BLAS products see
    assert got.tobytes() == want.tobytes(), where


@pytest.mark.parametrize("order", ["C", "F"])
def test_softmax_matches_frozen_row_reductions_bit_for_bit(order):
    # _softmax reduces over the class columns, the frozen softmax along the
    # last axis.  K from 2 to 16 crosses numpy's switch from a left-to-right
    # sum to pairwise blocks at 8 terms.  Magnitudes from 1e-5 to 1e5 reach
    # rows whose exp underflows everywhere but at the max; rounded rows tie
    # their max, and shifted rows share a large offset
    rng = np.random.default_rng(41)
    for K in range(2, 17):
        for n in (1, 2, 7, 2000):
            for scale in 10.0 ** np.arange(-5, 6, 2):  # 1e-5 to 1e5
                base = rng.normal(0.0, scale, (n, K))
                for logits in (base, np.round(base / scale) * scale, base + 3.0 * scale):
                    logits = np.asarray(logits, order=order)
                    _assert_same_array(_softmax(logits), softmax_reference(logits),
                                       (K, n, scale))
        # a strided view, as a column slice of a wider array
        wide = np.asarray(rng.normal(0.0, 10.0, (300, 2 * K)), order=order)
        _assert_same_array(_softmax(wide[:, ::2]), softmax_reference(wide[:, ::2]), K)


def test_softmax_of_one_row_matches_frozen_reductions_bit_for_bit():
    # predict's 1-D logits, contiguous and strided
    rng = np.random.default_rng(42)
    for K in range(2, 17):
        for scale in 10.0 ** np.arange(-5, 6):
            x = rng.normal(0.0, scale, 2 * K)
            for logits in (x[:K], x[::2], np.round(x[:K] / scale) * scale):
                _assert_same_array(_softmax(logits), softmax_reference(logits), (K, scale))


def test_loss_and_grad_matches_frozen_reference_bit_for_bit():
    # K from 2 to 9 takes both of _softmax's sum branches.  Rows scaled by
    # 100 spread their logits by hundreds, so some target probabilities
    # fall below 1e-300 (or underflow to 0) and the loss's clip is reached
    rng = np.random.default_rng(43)
    clipped = 0
    for K in range(2, 10):
        for lam in (0.0, 1e-4):
            n, d = 60, 5
            X = rng.normal(0.0, 1.0, (n, d))
            X[: n // 4] *= 100.0
            y = rng.integers(0, K, size=n)
            model = SoftmaxModel([f"c{i}" for i in range(K)],
                                 rng.normal(0.0, 3.0, (K, d)), rng.normal(0.0, 1.0, K))
            got = loss_and_grad(model, X, y, lam)
            want = loss_and_grad_reference(model, X, y, lam)
            for g, w in zip(got, want):
                g, w = np.asarray(g), np.asarray(w)
                assert g.shape == w.shape and g.dtype == w.dtype == np.float64, (K, lam)
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (K, lam)
            P = softmax_reference(X @ model.W.T + model.b)
            clipped += int((P[np.arange(n), y] < 1e-300).sum())
    assert clipped > 0


def test_predict_tie_goes_to_lowest_class_index():
    model = SoftmaxModel(["alpha", "beta", "gamma"],
                         np.zeros((3, 2)), np.zeros(3))
    label, probs = predict(model, np.array([4.0, -7.0]))
    assert label == "alpha"
    assert np.allclose(probs, 1.0 / 3.0)
    labels, P = predict_batch(model, np.ones((5, 2)))
    assert labels == ["alpha"] * 5
    assert P.shape == (5, 3)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_predict_shape_checks():
    model = SoftmaxModel(["a", "b"], np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DataError):
        predict(model, np.zeros(2))
    with pytest.raises(DataError):
        predict_batch(model, np.zeros((4, 2)))


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    model = SoftmaxModel(["bike", "car", "person"],
                         rng.normal(size=(3, 4)), rng.normal(size=3))
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.classes == model.classes
    assert loaded.d == 4
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.b, model.b)


def test_load_model_errors(tmp_path):
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        load_model(bad)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"classes": ["a", "b"], "d": 2}),
                       encoding="utf-8")
    with pytest.raises(DataError):
        load_model(partial)


def test_a_model_file_that_cannot_be_a_model_is_a_data_error(tmp_path, capsys):
    # "d": 1e400 once raised OverflowError (exit 4); a model the file's own
    # classes and weights cannot make was a config error (exit 2)
    (tmp_path / "in.csv").write_text("r1,a,1\n", encoding="utf-8")
    (tmp_path / "job.json").write_text(json.dumps({"model_json": "model.json",
                                                   "features_csv": "in.csv"}))
    for doc, reason in [('{"classes": ["a", "b"], "d": 1e400, "W": [1, 2], "b": [0, 0]}',
                         "cannot convert float infinity to integer"),
                        ('{"classes": ["a"], "d": 1, "W": [1], "b": [0]}',
                         "need at least two classes"),
                        ('{"classes": ["a", "a"], "d": 1, "W": [1, 2], "b": [0, 0]}',
                         "duplicate class labels"),
                        ('{"classes": ["a", "b"], "d": 1, "W": [1, 2], "b": [0]}',
                         "inconsistent W/b/classes shapes")]:
        (tmp_path / "model.json").write_text(doc, encoding="utf-8")
        assert main(["predict", "--config", str(tmp_path / "job.json"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 3, doc
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'model.json'}: malformed model file: {reason}\n")


@pytest.mark.parametrize("field, value, reason", [
    ("classes", "xy", "classes must be a list of strings"),  # once two classes, x and y
    ("classes", [1, 2], "classes must be a list of strings"),  # once printed as 1
    ("classes", {"x": 1, "y": 2}, "classes must be a list of strings"),
    ("d", 2.7, "d must be an integer >= 0"),  # once truncated to 2
    ("d", True, "d must be an integer >= 0"),
    ("d", -1, "d must be an integer >= 0"),  # once left to reshape to infer
    ("W", [[0, 0], [0, 0]], "W must be a flat list of numbers"),
    ("W", ["0", "0", "0", "0"], "W must be a flat list of numbers"),
    ("b", [0, False], "b must be a flat list of numbers"),
])
def test_a_model_file_of_the_wrong_form_is_a_data_error(tmp_path, capsys, field, value,
                                                        reason):
    # each of these once loaded, and predict exited 0
    (tmp_path / "in.csv").write_text("r1,x,1,2\n", encoding="utf-8")
    (tmp_path / "job.json").write_text(json.dumps({"model_json": "model.json",
                                                   "features_csv": "in.csv"}))
    doc = {"classes": ["x", "y"], "d": 2, "W": [1, 0, 0, 1.5], "b": [0, 0.0]}
    (tmp_path / "model.json").write_text(json.dumps(dict(doc, **{field: value})))
    assert main(["predict", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'model.json'}: malformed model file: {reason}\n")
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert main(["predict", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_load_features_csv(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("r1,cat,0.5,1.25\nr2,dog,-1.0,2.0\n\nr3,cat,3.0,4.5\n",
                    encoding="utf-8")
    ids, labels, X = load_features_csv(path)
    assert ids == ["r1", "r2", "r3"]
    assert labels == ["cat", "dog", "cat"]
    assert np.array_equal(X, [[0.5, 1.25], [-1.0, 2.0], [3.0, 4.5]])


def test_load_features_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_features_csv(tmp_path / "absent.csv")
    short = tmp_path / "short.csv"
    short.write_text("r1,cat\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 1"):
        load_features_csv(short)
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("r1,cat,1.0\nr2,dog,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2"):
        load_features_csv(nonnum)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("r1,cat,1.0,2.0\nr2,dog,3.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="inconsistent"):
        load_features_csv(ragged)


def test_cli_rejects_non_finite_features_and_weights(tmp_path, capsys):
    # a nan cell once trained a model with "W": [NaN, ...], which is not
    # JSON, and predict then wrote nan probabilities; both exited 0
    rows = [f"r{i},{'ab'[i % 2]},{i % 2 + 0.25 * i},{1.0 - i % 2}" for i in range(8)]
    (tmp_path / "good.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "train.json").write_text(json.dumps({"features_csv": "good.csv"}))
    assert main(["train-head", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "model"), "--quiet"]) == 0
    for i, cell in enumerate(("nan", "inf", "-inf", "1e400")):
        bad = rows[:3] + [rows[3].rsplit(",", 1)[0] + "," + cell] + rows[4:]
        (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
        for command, doc in [("train-head", {"features_csv": "bad.csv"}),
                             ("predict", {"model_json": "model/model.json",
                                          "features_csv": "bad.csv"})]:
            (tmp_path / "job.json").write_text(json.dumps(doc))
            assert main([command, "--config", str(tmp_path / "job.json"),
                         "--out", str(tmp_path / f"out{i}"), "--quiet"]) == 3, (command, cell)
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "row 4" in err, err

    model = json.loads((tmp_path / "model" / "model.json").read_text())
    for weights, value in (("W", math.nan), ("b", math.inf)):
        broken = dict(model, **{weights: [value] + model[weights][1:]})
        (tmp_path / "broken.json").write_text(json.dumps(broken))
        (tmp_path / "job.json").write_text(json.dumps(
            {"model_json": "broken.json", "features_csv": "good.csv"}))
        assert main(["predict", "--config", str(tmp_path / "job.json"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 3, weights
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err, err


def test_predict_refuses_features_of_another_width(tmp_path, capsys):
    rows = [f"r{i},{'ab'[i % 2]},{i % 2 + 0.25 * i},{1.0 - i % 2}" for i in range(8)]
    (tmp_path / "two.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "three.csv").write_text("\n".join(r + ",0.5" for r in rows) + "\n",
                                        encoding="utf-8")
    (tmp_path / "train.json").write_text(json.dumps({"features_csv": "two.csv"}))
    assert main(["train-head", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "model"), "--quiet"]) == 0
    (tmp_path / "job.json").write_text(json.dumps(
        {"model_json": "model/model.json", "features_csv": "three.csv"}))
    assert main(["predict", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "data error: feature dimension 3 does not match model (2)\n")


@pytest.mark.filterwarnings("error")
def test_diverging_training_is_a_data_error(tmp_path, capsys):
    # a learning rate this large overflows the weights within an epoch or
    # two; the weights of a diverged run are not a model, and nan is not JSON.
    # The DataError reports the divergence; numpy must not warn about it too.
    rows = [f"r{i},{'ab'[i % 2]},{i % 2 + 0.25 * i},{1.0 - i % 2}" for i in range(8)]
    X = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
    labels = [row.split(",")[1] for row in rows]
    with pytest.raises(DataError, match=r"diverged: loss is (nan|inf) after epoch \d+"):
        train(X, labels, TrainConfig(learning_rate=1e300))

    (tmp_path / "good.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "train.json").write_text(
        json.dumps({"features_csv": "good.csv", "learning_rate": 1e300}))
    assert main(["train-head", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "model"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: training diverged"), err
    assert not (tmp_path / "model" / "model.json").exists()


def test_evaluation_report_hand_case():
    # W pushes positive x toward "a", negative toward "b"
    model = SoftmaxModel(["a", "b"], np.array([[1.0], [-1.0]]), np.zeros(2))
    X = np.array([[1.0], [2.0], [3.0], [-1.0], [-2.0], [0.5]])
    labels = ["a", "a", "b", "b", "b", "a"]
    report = evaluation_report(model, X, labels)
    # x = 3 is truly "b" but predicted "a"; everything else is right
    assert report["confusion"] == [[3, 0], [1, 2]]
    assert report["accuracy"] == pytest.approx(5 / 6)
    assert report["per_class"]["a"]["precision"] == pytest.approx(3 / 4)
    assert report["per_class"]["a"]["recall"] == 1.0
    assert report["per_class"]["b"]["precision"] == 1.0
    assert report["per_class"]["b"]["recall"] == pytest.approx(2 / 3)
    assert report["classes"] == ["a", "b"]


def test_evaluation_report_rejects_unknown_labels():
    model = SoftmaxModel(["a", "b"], np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(DataError, match="vocabulary"):
        evaluation_report(model, np.zeros((1, 1)), ["c"])


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(l2_lambda=-1e-9)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(convergence_tol=0.0)
    TrainConfig(l2_lambda=0.0)  # zero decay is allowed


def test_train_input_validation():
    with pytest.raises(DataError):
        train(np.zeros((0, 2)), [])
    with pytest.raises(DataError):
        train(np.zeros(4), ["a", "b", "a", "b"])  # not a matrix
    with pytest.raises(DataError):
        train(np.zeros((3, 2)), ["a", "a", "a"])  # single class
    with pytest.raises(DataError):
        train(np.zeros((3, 2)), ["a", "b"])  # label count mismatch


def test_model_validation():
    with pytest.raises(ConfigError):
        SoftmaxModel(["only"], np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ConfigError):
        SoftmaxModel(["a", "a"], np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ConfigError):
        SoftmaxModel(["a", "b"], np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ConfigError):
        SoftmaxModel(["a", "b"], np.zeros((2, 2)), np.zeros(3))
