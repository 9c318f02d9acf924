"""Exception hierarchy shared across the package, and its file helpers.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""

import csv
import json


class VigilError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(VigilError):
    """Invalid or inconsistent configuration."""


class DataError(VigilError):
    """Invalid input data (malformed files, broken invariants, bad ordering)."""


class DumpFormatError(DataError):
    """Malformed detection dump record; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def open_input(path, mode: str = "r", **kwargs):
    """Open an input data file; a missing/unreadable file is a DataError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def write_json(path, doc) -> None:
    """Write *doc* to *path* as UTF-8 JSON, indented 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_numeric_csv(path, text_fields: int, short: str):
    """Rows of a headerless CSV: *text_fields* text cells, then numbers.

    Blank rows are skipped.  Returns one list per text field, the float
    rows, and each row's 1-based line number.  A row with no number
    (*short*), a cell float() rejects, or a row with a different count of
    numbers than the first is a DataError naming the row.
    """
    texts = [[] for _ in range(text_fields)]
    rows: list[list[float]] = []
    line_nos: list[int] = []
    with open_input(path, "r", encoding="utf-8", newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) <= text_fields:
                raise DataError(f"{path} row {ln}: {short}")
            try:
                values = list(map(float, row[text_fields:]))
            except ValueError as exc:
                raise DataError(f"{path} row {ln}: {exc}") from exc
            if rows and len(values) != len(rows[0]):
                raise DataError(f"{path} row {ln}: inconsistent dimension")
            for column, cell in zip(texts, row):
                column.append(cell)
            rows.append(values)
            line_nos.append(ln)
    return texts, rows, line_nos


def write_csv(path, rows, lineterminator: str = "\r\n") -> None:
    """Write *rows* to *path* as UTF-8 CSV in csv.writer's default dialect
    (minimal quoting), each row ended by *lineterminator*."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerows(rows)
