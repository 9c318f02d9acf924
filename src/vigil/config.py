"""Reading config files and checking their fields.

Every config file is read by :func:`read_config`.  Each config kind has one
field table, mapping each field's name to (kind, default), and
:func:`parse` checks a JSON object against it: a config that cannot be
read, has an unknown or missing field, or gives a field a value of the
wrong kind is a ConfigError (exit 2) that names the field.  A kind checks
a value's type and returns it unconverted (pairs as tuples).  Booleans are
never numbers, an integer field takes no float, numbers are finite (an
integer too large for a float is not), and null is no value.  Range
checks stay with the dataclass the values go into, or with the one place
that uses the field.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .errors import ConfigError, decode_json

REQUIRED = object()  # the default of a field that must be given


def read_config(path, what: str):
    """The JSON document in the *what* file at *path*.

    A file that is missing, is a directory, is not UTF-8 or is not JSON
    (decode_json) is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{what} file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8: {exc.reason}") from exc
    return decode_json(
        text, lambda reason: ConfigError(f"{what} file {path} is not valid JSON: {reason}"))


def parse(doc, table: dict, where: str, base_dir=None) -> dict:
    """The fields of the JSON object *doc*, checked against *table*.

    A kind is a function (value, where) that returns the value or raises a
    ConfigError naming *where*.  A field left out takes its default, which
    goes through the kind too; REQUIRED is an error and None stays None.
    A relative ``pathname`` resolves against *base_dir*.
    """
    json_object(doc, where)
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}")
    values = {}
    for name, (kind, default) in table.items():
        value = doc.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{where}.{name} is required")
        if name in doc or value is not None:
            value = kind(value, f"{where}.{name}")
            if kind is pathname and base_dir and not os.path.isabs(value):
                value = os.path.join(base_dir, value)
        values[name] = value
    return values


def _kind(noun: str, test):
    """The kind of the values that pass *test*, which *noun* describes."""
    def check(value, where):
        if not test(value):
            raise ConfigError(f"{where} must be {noun}")
        return value
    return check


def finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


integer = _kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
number = _kind("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and finite(v))
boolean = _kind("true or false", lambda v: isinstance(v, bool))
string = _kind("a string", lambda v: isinstance(v, str))
label = _kind("a non-empty string", lambda v: isinstance(v, str) and v != "")  # ids, classes
pathname = _kind("a non-empty path string without NUL",
                 lambda v: isinstance(v, str) and v != "" and "\x00" not in v)
json_object = _kind("a JSON object", lambda v: isinstance(v, dict))


def pair(value, where) -> tuple:
    """``[x, y]``: a point, size, velocity or range of two numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair [x, y] of numbers")
    return (number(value[0], f"{where}[0]"), number(value[1], f"{where}[1]"))


def classes(value, where):
    """A list of class labels, as a frozenset; [] is no filter (None)."""
    return frozenset(list_of(label)(value, where)) or None


def list_of(kind):
    """The kind of a list whose items are of *kind*."""
    def check(value, where):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        return [kind(item, f"{where}[{i}]") for i, item in enumerate(value)]
    return check


def record(build, table=None):
    """The kind of a JSON object checked against *table*, whose fields are
    passed to *build*.  *table* defaults to dataclass *build*'s own."""
    table = fields_of(build) if table is None else table
    return lambda value, where: build(**parse(value, table, where))


_ANNOTATED = {"int": integer, "float": number, "bool": boolean, "str": string,
              "tuple[float, float]": pair, "Optional[int]": integer}


def fields_of(cls, **kinds) -> dict:
    """The field table of dataclass *cls*, whose JSON names are its field
    names: each field's default, and the kind *kinds* gives it or else the
    kind its annotation names."""
    return {f.name: (kinds.get(f.name) or _ANNOTATED[f.type],
                     REQUIRED if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.init}
