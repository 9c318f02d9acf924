"""Exception hierarchy shared across the package, and its file helpers.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""

import csv
import io
import json
import os
import warnings

import numpy as np


class VigilError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(VigilError):
    """Invalid or inconsistent configuration."""


class DataError(VigilError):
    """Invalid input data (malformed files, broken invariants, bad ordering)."""


def next_frame(last, frame_id):
    """*frame_id*, the new last frame id of a stream that must see frames
    in increasing order; one at or before *last* (None before the first
    frame) is a DataError."""
    if last is not None and frame_id <= last:
        raise DataError(f"out-of-order frame_id {frame_id} after {last}")
    return frame_id


class DumpFormatError(DataError):
    """Malformed detection dump record; names the file and carries the line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path} line {line_no}: {message}")
        self.line_no = line_no


def open_input(path, mode: str = "r", **kwargs):
    """Open an input data file; a missing/unreadable file, or a path holding
    a NUL, is a DataError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # embedded null byte
        raise DataError(f"{path!r}: {exc}") from exc


def make_out_dir(path) -> str:
    """*path*, made as a directory if it is not one yet; a path that cannot
    be one (an existing file, a path under a file) is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror or exc}") from exc
    return path


def decode_json(text: str, error):
    """The JSON document in *text*; text the decoder refuses raises
    error(reason) from the decoder's exception.

    The decoder refuses a syntax error, an integer past int()'s digit limit
    and arrays nested past the recursion limit.  A syntax error's reason
    names its line and column only where *text* holds a line end: a dump
    record is one line, whose number is the caller's to give.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(str(exc) if "\n" in text else exc.msg) from exc
    except (ValueError, RecursionError) as exc:
        raise error(str(exc)) from exc


def write_json(path, doc) -> None:
    """Write *doc* to *path* as UTF-8 JSON, indented 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_text(path) -> str:
    """The whole of an input file as UTF-8 text, line ends as they are.

    A missing or unreadable file, or a byte that is not UTF-8, is a
    DataError naming the file (and the byte's line).
    """
    with open_input(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line}: not UTF-8: {exc.reason}") from exc


def csv_rows(path, text: str):
    """csv.reader's (line number, row) pairs of *text*, the file at *path*.

    A row's line number is the 1-based physical line it starts on, so a
    quoted field that spans lines moves the numbers of the rows after it.
    csv.reader's own errors (a field longer than csv.field_size_limit())
    are DataErrors.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc


# Characters after which a line's csv.reader row may differ from its
# split(","): quotes and carriage returns; and the separators U+001C to
# U+001F, which np.loadtxt skips as whitespace around a number and float()
# does not.
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain_csv(text: str, text_fields: int):
    """read_numeric_csv's result for plain text, by one np.loadtxt, or None.

    None whenever the row loop might read the text otherwise: a character
    of _NOT_PLAIN, a field over csv.field_size_limit(), a short row, rows
    of different widths, or a loadtxt that raises, warns or returns another
    shape than (rows, numbers of row 1).  loadtxt reads a number cell as
    float() does or not at all:
    it refuses "1_0" and non-ASCII digits, which float() accepts, and a
    field over the limit, which float() may read as inf, is the row loop's
    to refuse.
    """
    if any(ch in text for ch in _NOT_PLAIN):
        return None
    limit = csv.field_size_limit()
    lines = text.split("\n")
    if len(text) > limit and any(len(line) > limit and max(map(len, line.split(","))) > limit
                                 for line in lines):
        return None
    line_nos = [ln for ln, line in enumerate(lines, start=1) if line]
    if not line_nos:  # loadtxt would warn that there is no data
        return [[] for _ in range(text_fields)], np.zeros((0, 0)), []
    if len(line_nos) < len(lines):
        lines = [line for line in lines if line]
    width = lines[0].count(",") + 1  # cells of row 1
    # loadtxt refuses a row narrower than row 1 and would drop the extra
    # cells of a wider one; with as many commas as rows of row 1's width,
    # a wider row comes with a narrower one
    if width <= text_fields or text.count(",") != len(lines) * (width - 1):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                usecols=range(text_fields, width))
    except (ValueError, Warning):  # a cell it cannot read, a narrower row
        return None
    if matrix.shape != (len(lines), width - text_fields):
        return None
    texts = [list(column) for column in
             zip(*(line.split(",", text_fields)[:text_fields] for line in lines))]
    return texts, matrix, line_nos


def read_numeric_csv(path, text_fields: int, short: str):
    """Rows of a headerless CSV: *text_fields* text cells, then numbers.

    Blank rows are skipped.  Returns one list per text field, the numbers
    as a float (rows, numbers) matrix ((0, 0) when there is no row), and
    each row's 1-based line number.  A row with no number (*short*), a cell
    float() rejects, or a row with a different count of numbers than the
    first is a DataError naming the row, as is text that is not UTF-8 or
    a field over csv.field_size_limit().

    Plain text is parsed in one np.loadtxt (_read_plain_csv); any other
    text, and text with a fault, takes the row loop, whose float() reading
    and messages are the ones that count.
    """
    text = read_text(path)
    plain = _read_plain_csv(text, text_fields)
    if plain is not None:
        return plain
    texts = [[] for _ in range(text_fields)]
    rows: list[list[float]] = []
    line_nos: list[int] = []
    for ln, row in csv_rows(path, text):
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
    return texts, np.array(rows) if rows else np.zeros((0, 0)), line_nos


def write_csv(path, rows, lineterminator: str = "\r\n") -> None:
    """Write *rows* to *path* as UTF-8 CSV in csv.writer's default dialect
    (minimal quoting), each row ended by *lineterminator*."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerows(rows)
