"""Checks on vigil's own source files."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vigil"


def _private_numpy_imports(source: str) -> list[str]:
    """The numpy names that *source* imports with a private (``_``) part."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "numpy"
                  and any(part.startswith("_") for part in name.split(".")[1:])]
    return found


def test_no_private_numpy_imports():
    # pyproject.toml takes any numpy >= 1.24, and private modules and names
    # may move or vanish between its releases
    assert _private_numpy_imports(
        "import numpy._core\nimport numpy as np\n"
        "from numpy.linalg import LinAlgError, _umath_linalg\n") == [
        "numpy._core", "numpy.linalg._umath_linalg"]
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {f.name: _private_numpy_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def _csv_writer_calls(source: str) -> int:
    """How many times *source* calls ``csv.writer``, under any import name."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "csv"
             for alias in node.names if alias.name == "writer"}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "csv"}
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr == "writer"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules))


def test_only_errors_writes_csv():
    # every CSV artifact goes through vigil.errors.write_csv, so its dialect,
    # encoding and line ends are chosen in one place
    assert _csv_writer_calls(
        "import csv\nimport csv as c\nfrom csv import writer as w\n"
        "csv.writer(f)\nc.writer(f)\nw(f)\ncsv.reader(f)\nother.writer(f)\n") == 3
    found = {f.name: _csv_writer_calls(f.read_text(encoding="utf-8"))
             for f in sorted(SRC.glob("*.py"))}
    assert found.pop("errors.py") == 1
    assert {name: n for name, n in found.items() if n} == {}


ROOT = SRC.parent.parent


def _top_level_names(source: str) -> list[str]:
    """The functions and classes that *source* defines at its top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _names_used(source: str) -> set[str]:
    """Every name *source* loads or stores, and every attribute it reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unused_top_level_names(root: pathlib.Path) -> list[str]:
    """The top-level functions and classes of *root*'s src/vigil that no
    code in src/, perfbench/ or demos/ names and vigil.__all__ leaves out."""
    src = root / "src" / "vigil"
    used: set[str] = set()
    for directory in (src, root / "perfbench", root / "demos"):
        for path in sorted(directory.glob("*.py")):
            used |= _names_used(path.read_text(encoding="utf-8"))
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported, = (ast.literal_eval(node.value) for node in init.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"])
    return sorted(name for path in sorted(src.glob("*.py"))
                  for name in _top_level_names(path.read_text(encoding="utf-8"))
                  if name not in used and name not in exported)


def test_no_top_level_name_only_tests_use():
    # a function or class that no command, demo or benchmark reaches is code
    # kept for tests alone; a test's reference implementation lives in
    # tests/oracles.py instead
    assert _top_level_names("def f():\n    def g(): pass\nclass C: pass\nx = 1\n") == ["f", "C"]
    assert _names_used("a.b(c)\nd = 1\n") == {"a", "b", "c", "d"}
    assert _unused_top_level_names(ROOT) == []


def _unused_imports(source: str) -> list[str]:
    """The names that *source*'s top-level imports bind and that nothing in
    *source* reads; ``__future__`` imports and imports on a line marked
    ``# noqa: F401`` are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            bound += names
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    # an import that its module never reads is a dependency kept for nothing;
    # one kept for code outside the module says so with "# noqa: F401"
    assert _unused_imports(
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "import os.path\nfrom itertools import chain, compress\n"
        "from .geometry import point_in_polygon  # noqa: F401\n"
        "from .config import (a,\n                     b)  # noqa: F401\n"
        "def f(x: int) -> None:\n    import json\n    return compress(x, os)\n") == [
        "np", "chain"]
    files = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    assert len(files) > 10
    found = {f.name: _unused_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def _shadowed_imports(source: str) -> list[str]:
    """``"function: name"`` for each name that a function or lambda in
    *source* binds in its own scope (a parameter, an assignment, a loop or
    ``with``/``except`` target, a nested ``def`` or ``import``) while
    *source* imports that name at its top level."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    named = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg] if a is not None}
        todo = func.body if isinstance(func.body, list) else [func.body]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.ExceptHandler, *named)) and node.name:
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            if not isinstance(node, (ast.Lambda, *named)):  # walked on its own
                todo.extend(ast.iter_child_nodes(node))
        found += [f"{getattr(func, 'name', '<lambda>')}: {name}"
                  for name in sorted(bound & imported)]
    return found


def test_no_function_binds_an_imported_name():
    # a local that takes an imported name hides the import from the rest of
    # its function: sources._parse_record once kept a "finite" flag beside
    # the config.finite it imports
    assert _shadowed_imports(
        "import os\nimport numpy as np\nfrom math import isfinite, inf\nfrom .a import b\n"
        "def f(os, *np):\n    for isfinite in x: pass\n    return [b for b in x]\n"
        "def g(y=np):\n    def inf(): pass\n    try: pass\n    except E as b: pass\n"
        "    h = lambda x, b=os: (os := 1)\n"
        "def k(x):\n    import os\n    with x as (np, y): return isfinite(y), inf\n"
        "class C:\n    b = os\n    def m(self, **np): pass\n") == [
        "f: b", "f: isfinite", "f: np", "f: os", "g: b", "g: inf", "k: np", "k: os",
        "m: np", "<lambda>: b", "<lambda>: os"]
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {f.name: _shadowed_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def _text_writes_without_newline(source: str) -> list[int]:
    """The lines on which *source* calls ``open`` to write text (a constant
    mode holding "w", "a", "x" or "+" and no "b") and gives no ``newline``;
    a call whose mode is not a constant is left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            continue
        writes_text = bool(set(mode.value) & set("wax+")) and "b" not in mode.value
        newline = len(node.args) > 5 or any(k.arg in ("newline", None) for k in node.keywords)
        if writes_text and not newline:
            found.append(node.lineno)
    return found


def test_every_text_write_names_its_line_end():
    # a text file opened without newline= writes os.linesep for each "\n",
    # so its bytes would differ between hosts
    assert _text_writes_without_newline(
        'open(p, "w")\nopen(p, "w", newline="\\n")\nopen(p, "wb")\nopen(p)\n'
        'open(p, mode="a", encoding="utf-8")\nopen(p, "r+")\nopen(p, m)\n'
        'open(p, "x", -1, "utf-8", None, "")\nopen(p, "w", **kw)\nf.open(p, "w")\n') == [
        1, 5, 6]
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    found = {f.name: _text_writes_without_newline(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
