"""The one CSV reader and writer in vigil.errors, and the jobs that use them."""

import csv
import json
import random

import numpy as np
import pytest

from vigil.cli import main
from vigil.errors import DataError, _read_plain_csv, read_numeric_csv, write_csv

from oracles import read_numeric_csv_reference


def test_read_numeric_csv_columns_rows_and_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,x,1,2.5\n\n"b,c",y,-3,4e1\n', encoding="utf-8")
    texts, matrix, line_nos = read_numeric_csv(path, 2, "too short")
    assert texts == [["a", "b,c"], ["x", "y"]]
    assert matrix.dtype == np.float64 and matrix.tolist() == [[1.0, 2.5], [-3.0, 40.0]]
    assert line_nos == [1, 3]  # the blank row 2 is skipped, not renumbered
    path.write_text("\n\n", encoding="utf-8")
    texts, matrix, line_nos = read_numeric_csv(path, 1, "too short")
    assert (texts, matrix.shape, line_nos) == ([[]], (0, 0), [])
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


# (command, config key, file text whose row 2 starts on line 3, the message)
SPANNING = [
    pytest.param("train-head", "features_csv", '"a\nb",x,1\nc,y,oops\n',
                 "row 3: could not convert string to float: 'oops'", id="features-float"),
    pytest.param("train-head", "features_csv", '"a\nb",x,1\nc,y,nan\n',
                 "row 3: non-finite value", id="features-value"),
    pytest.param("summarize", "signatures_csv", '"a\nb",1\nc,-1\n',
                 "row 3: signature components must be finite and >= 0", id="signatures"),
    pytest.param("augment", "manifest_csv", '"a\nb.ppm",cat\nc.ppm\n',
                 "row 3: expected 'path,class'", id="manifest"),
]


@pytest.mark.parametrize("command, key, text, message", SPANNING)
def test_rows_are_numbered_by_the_line_they_start_on(tmp_path, capsys, command, key, text,
                                                     message):
    # a quoted field that spans lines 1-2 puts the next row on line 3, as
    # the UTF-8 and field-size messages count; csv records once called it row 2
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    (tmp_path / "job.json").write_text(json.dumps({key: "in.csv"}), encoding="utf-8")
    assert main([command, "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == f"data error: {tmp_path / 'in.csv'} {message}\n"


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


# -- the bulk parse against the row loop --------------------------------------

# (case, text with {t} for the text cells, whether the bulk parse reads it);
# {q} is text cells whose first one is quoted
BULK_CASES = [
    ("underscore", "{t}1_0,2\n{t}3,4\n", False),  # float() reads 10.0, loadtxt refuses
    ("arabic digits", "{t}١٢,2\n", False),          # float() reads 12.0, loadtxt refuses
    ("space nan", "{t} nan,2\n{t}-nan,1\n", True),
    ("-Infinity", "{t}-Infinity,inf\n", True),
    ("1e400", "{t}1e400,-1e400\n", True),
    ("subnormal", "{t}4.9e-324,2.5e-324\n", True),
    ("-0", "{t}-0,0\n", True),
    ("spaces around numbers", "{t} 1 ,\t2\xa0\n", True),
    ("hash in a number cell", "{t}1,2#3\n", False),  # a comment to loadtxt by default
    ("hash in a text cell", "#{t}1,2\n", True),
    ("whitespace-only cell", "{t}1, \n", False),
    ("trailing comma", "{t}1,2,\n", False),
    ("ragged", "{t}1,2\n{t}3\n", False),
    ("ragged, as many commas as even rows", "{t}1,2\n{t}3,4,5\n{t}6\n", False),
    ("ragged, the wide row first", "{t}1,2,3\n{t}4,5\n{t}6,7\n{t}8,9,0\n", False),
    ("ragged, a wider row later", "{t}1,2\n{t}3,4,5\n{t}6,7\n", False),  # loadtxt drops the 5
    ("short row", "{t}1,2\nonly\n", False),
    ("blank rows", "\n{t}1,2\n\n\n{t}3,4\n\n", True),
    ("quoted id", "{q}1,2\n{t}3,4\n", False),
    ("crlf", "{t}1,2\r\n{t}3,4\r\n", False),
    ("empty file", "", True),
    ("information separator", "{t}\x1c1,2\n", False),  # whitespace to loadtxt only
    ("field at the size limit", "{t}1," + "1" * csv.field_size_limit() + "\n", True),
]


def _random_rows(rng):
    cells = []
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
        cells.append(rng.choice([repr(x), f"{x:.6f}", f"{x:e}", str(int(x * 1e-290)),
                                 f"{rng.random():.17g}"]))
    return "".join("{t}" + ",".join(cells[i:i + 5]) + "\n" for i in range(0, 200, 5))


def _reading(read, path, text_fields):
    """What *read* makes of the file: its DataError message, or
    (texts, matrix, line numbers) with the numbers as a float matrix."""
    try:
        texts, numbers, line_nos = read(path, text_fields, "too short")
    except DataError as exc:
        return str(exc)
    matrix = np.array(numbers, dtype=float) if len(line_nos) else np.zeros((0, 0))
    return texts, matrix, line_nos


@pytest.mark.parametrize("text_fields", [1, 2])
def test_bulk_parse_agrees_with_the_row_loop(tmp_path, text_fields):
    cells = ["id", "label"][:text_fields]
    cases = BULK_CASES + [("random numbers", _random_rows(random.Random(77)), True)]
    for name, template, bulk in cases:
        text = template.format(t="".join(c + "," for c in cells),
                               q='"a,b",' + "".join(c + "," for c in cells[1:]))
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_read_plain_csv(text, text_fields) is not None) == bulk, name
        got = _reading(read_numeric_csv, path, text_fields)
        want = _reading(read_numeric_csv_reference, path, text_fields)
        if isinstance(want, str):
            assert got == want, name
            continue
        assert not isinstance(got, str), (name, got)
        (texts, matrix, line_nos), (want_texts, want_matrix, want_line_nos) = got, want
        assert (texts, line_nos) == (want_texts, want_line_nos), name
        assert matrix.dtype == np.float64 and matrix.shape == want_matrix.shape, name
        assert np.array_equal(matrix.view(np.uint64), want_matrix.view(np.uint64)), name
