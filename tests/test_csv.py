"""The one CSV reader and writer in vigil.errors, and the jobs that use them."""

import csv
import json

import pytest

from vigil.cli import main
from vigil.errors import DataError, read_numeric_csv, write_csv


def test_read_numeric_csv_columns_rows_and_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,x,1,2.5\n\n"b,c",y,-3,4e1\n', encoding="utf-8")
    texts, rows, line_nos = read_numeric_csv(path, 2, "too short")
    assert texts == [["a", "b,c"], ["x", "y"]]
    assert rows == [[1.0, 2.5], [-3.0, 40.0]]
    assert line_nos == [1, 3]  # the blank row 2 is skipped, not renumbered
    path.write_text("\n\n", encoding="utf-8")
    assert read_numeric_csv(path, 1, "too short") == ([[]], [], [])
    with pytest.raises(DataError, match="absent.csv"):
        read_numeric_csv(tmp_path / "absent.csv", 1, "too short")


def test_write_csv_quotes_minimally(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["id", "x"], ["a,b", 0.1], ['q"x', 3], ["plain", 1e-300]]
    write_csv(path, rows)
    assert path.read_bytes() == (b'id,x\r\n"a,b",0.1\r\n"q""x",3\r\n'
                                 b"plain,1e-300\r\n")
    write_csv(path, iter(rows[:2]), lineterminator="\n")
    assert path.read_bytes() == b'id,x\n"a,b",0.1\n'


# (command, config key, text fields, a bad value, its message, the short-row message)
LOADERS = [
    pytest.param("summarize", "signatures_csv", 1, "-1.0",
                 "signature components must be finite and >= 0",
                 "need item_id and values", id="signatures"),
    pytest.param("train-head", "features_csv", 2, "nan",
                 "non-finite value", "expected id, label, values", id="features"),
]


@pytest.mark.parametrize("command, key, text_fields, bad, bad_msg, short_msg", LOADERS)
def test_loaders_report_shape_faults_before_value_faults(
        tmp_path, capsys, command, key, text_fields, bad, bad_msg, short_msg):
    # Both loaders report the first shape, number or dimension fault in row
    # order, then the first value fault; the signature loader once stopped at
    # a value fault on row 2 where the feature loader went on to row 3.
    def row(i, *values):
        return ",".join([f"r{i}", "cat"][:text_fields] + list(values))

    good = [row(1, "1.0", "2.0")]
    cases = [
        # one fault: the message names its row
        ([row(1)], f"row 1: {short_msg}"),
        (good + [row(2, "1.0", "oops")], "row 2: could not convert string to float: 'oops'"),
        (good + [row(2, "1.0")], "row 2: inconsistent dimension"),
        (good + [row(2, bad, "2.0")], f"row 2: {bad_msg}"),
        # a value fault on row 2, then a shape fault on row 3
        (good + [row(2, bad, "2.0"), row(3, "1.0")], "row 3: inconsistent dimension"),
        (good + [row(2, bad, "2.0"), row(3, "x", "2.0")],
         "row 3: could not convert string to float: 'x'"),
        (good + [row(2, bad, "2.0"), row(3)], f"row 3: {short_msg}"),
        # two value faults: the first
        (good + ["", row(3, "2.0", bad), row(4, bad, "2.0")], f"row 3: {bad_msg}"),
    ]
    (tmp_path / "job.json").write_text(json.dumps({key: "in.csv"}), encoding="utf-8")
    for lines, message in cases:
        (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([command, "--config", str(tmp_path / "job.json"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 3, lines
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'in.csv'} {message}\n", (lines, err)


def test_predictions_csv_quotes_ids_and_reads_back(tmp_path):
    # predictions.csv was written with an f-string: an id read from the
    # quoted field "a,b" went out as a,b, so the row had 4 fields
    ids = ["a,b", 'q"x', "plain", " sp", "r4", "r5"]
    rows = [[item_id, "ab"[i % 2], i % 2 + 0.25 * i, 1.0 - i % 2]
            for i, item_id in enumerate(ids)]
    with open(tmp_path / "features.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    (tmp_path / "train.json").write_text(json.dumps({"features_csv": "features.csv"}))
    assert main(["train-head", "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "model"), "--quiet"]) == 0
    (tmp_path / "predict.json").write_text(json.dumps(
        {"model_json": "model/model.json", "features_csv": "features.csv"}))
    assert main(["predict", "--config", str(tmp_path / "predict.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 0

    data = (tmp_path / "out" / "predictions.csv").read_bytes()
    assert b"\r" not in data  # predictions.csv keeps "\n" line ends
    with open(tmp_path / "out" / "predictions.csv", encoding="utf-8", newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["id", "predicted", "prob"]
    assert [len(r) for r in back] == [3] * (len(ids) + 1)
    assert [r[0] for r in back[1:]] == ids
    assert all(r[1] in ("a", "b") and 0.5 <= float(r[2]) <= 1.0 for r in back[1:])
    # plain ids keep the bytes the f-string gave them
    plain = data.decode("utf-8").splitlines()[3]
    assert plain == f"plain,{back[3][1]},{back[3][2]}"
