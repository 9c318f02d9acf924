"""Exception hierarchy shared across the package, and its file helpers.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""

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
