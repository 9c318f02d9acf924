"""Input files vigil cannot read: a byte that is not UTF-8, a CSV field
longer than csv.field_size_limit(), JSON the decoder refuses, or a path
holding a NUL.  Every command exits 3 with a message naming the file, where
these once ended in exit 4 ("internal error: UnicodeDecodeError",
"internal error: Error: field larger than field limit", "internal error:
ValueError: Exceeds the limit (4300 digits) ..." or "internal error:
ValueError: embedded null byte")."""

import csv
import json

import pytest

from vigil.cli import main

LATIN1 = "café".encode("latin-1")  # b"caf\xe9": the \xe9 is not UTF-8
LINE = json.dumps({"frame": 0, "ts_ms": 0, "class": "person", "x1": 10.0, "y1": 20.0,
                   "x2": 30.0, "y2": 60.0, "conf": 0.9}).encode("utf-8") + b"\n"
DUMP = LINE + LINE.replace(b"person", LATIN1)
LIMIT = csv.field_size_limit()

# command -> (config, files, the file at fault, the line the message names or None)
NOT_UTF8 = {
    "summarize": ({"signatures_csv": "in.csv"},
                  {"in.csv": b"a,1,0\nb," + LATIN1 + b"\n"}, "in.csv", 2),
    "train-head": ({"features_csv": "in.csv"},
                   {"in.csv": b"r1,a,1,2\nr2," + LATIN1 + b",3,4\n"}, "in.csv", 2),
    "predict": ({"model_json": "model.json", "features_csv": "in.csv"},
                {"model.json": b'{"classes": ["' + LATIN1 + b'"]}', "in.csv": b"r1,a,1\n"},
                "model.json", 1),
    "augment": ({"manifest_csv": "manifest.csv"},
                {"manifest.csv": b"path,class\nimg.ppm," + LATIN1 + b"\n"}, "manifest.csv", 2),
    "eval": ({"predictions": "det.jsonl", "ground_truth": "gt.jsonl"},
             {"det.jsonl": DUMP, "gt.jsonl": LINE}, "det.jsonl", None),
    "run": ({"source": {"kind": "dump", "path": "det.jsonl", "width": 320, "height": 240}},
            {"det.jsonl": DUMP}, "det.jsonl", None),
}

# command -> (config, the CSV file, its text with a field one past the limit on
# line 2, in a row of the right shape, so that no other check stops it first)
OVERSIZED = {
    "summarize": ({"signatures_csv": "in.csv"}, "in.csv",
                  "a,1,0\nb,1," + "1" * (LIMIT + 1) + "\n"),  # float() reads inf
    "train-head": ({"features_csv": "in.csv"}, "in.csv",
                   "r1,a,1,2\nr2," + "b" * (LIMIT + 1) + ",3,4\n"),
    "augment": ({"manifest_csv": "manifest.csv"}, "manifest.csv",
                "path,class\n" + "x" * (LIMIT + 1) + ".ppm,cat\n"),
}


def _run(tmp_path, command, doc):
    (tmp_path / "job.json").write_text(json.dumps(doc), encoding="utf-8")
    return main([command, "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"])


@pytest.mark.parametrize("command", sorted(NOT_UTF8))
def test_a_byte_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command):
    doc, files, bad, line = NOT_UTF8[command]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert _run(tmp_path, command, doc) == 3
    where = f"{tmp_path / bad}" + ("" if line is None else f" line {line}")
    assert capsys.readouterr().err == (
        f"data error: {where}: not UTF-8: invalid continuation byte\n")


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_a_field_over_the_csv_size_limit_is_a_data_error(tmp_path, capsys, command):
    doc, name, text = OVERSIZED[command]
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert _run(tmp_path, command, doc) == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / name} line 2: field larger than field limit ({LIMIT})\n")


def test_an_integer_past_the_digit_limit_in_a_model_is_a_data_error(tmp_path, capsys):
    (tmp_path / "model.json").write_text(
        '{"classes": ["a"], "d": 1, "W": [1' + "0" * 5000 + '], "b": [0]}\n',
        encoding="utf-8")
    (tmp_path / "in.csv").write_text("r1,a,1\n", encoding="utf-8")
    assert _run(tmp_path, "predict", {"model_json": "model.json", "features_csv": "in.csv"}) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {tmp_path / 'model.json'}: invalid JSON: Exceeds the limit (4300 digits)")


def test_a_nul_in_an_image_path_is_a_data_error(tmp_path, capsys):
    # the cat image is read to render the copy that balances the classes
    (tmp_path / "manifest.csv").write_text(
        "path,class\na\x00b.ppm,cat\nc.ppm,dog\nd.ppm,dog\ne.ppm,dog\n", encoding="utf-8")
    assert _run(tmp_path, "augment", {"manifest_csv": "manifest.csv"}) == 3
    assert capsys.readouterr().err == "data error: 'a\\x00b.ppm': embedded null byte\n"
