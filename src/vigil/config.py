"""Reading config files and checking their fields.

Every config file (run, rules, scene and the dataset jobs' configs) is read
by :func:`read_config`, and every path a config names goes through
:func:`config_path`, so a config that cannot be read or names a path badly
is always a ConfigError (exit 2), whichever file or key it is.
"""

from __future__ import annotations

import json
import os

from .errors import ConfigError


def read_config(path, what: str):
    """The JSON document in the *what* file at *path*.

    A file that is missing, is a directory, is not UTF-8 or is not JSON is
    a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what} file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def config_path(doc: dict, key: str, base_dir) -> str:
    """The path *doc[key]*: a non-empty string, relative ones taken
    relative to *base_dir* (the config file's directory)."""
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"'{key}' must be a non-empty path string")
    if base_dir and not os.path.isabs(value):
        return os.path.join(base_dir, value)
    return value


def check_keys(doc, allowed: set, where: str) -> None:
    """*doc* must be a JSON object whose fields are all in *allowed*."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def as_int(doc: dict, key: str, default, *, where: str) -> int:
    """*doc[key]* (or *default*), which must be an integer and not a bool."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value
