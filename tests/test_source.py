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
