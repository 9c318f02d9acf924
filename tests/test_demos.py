"""Smoke test: every script under demos/, and README's library quick
start, runs to completion.

The demos drive the public API (Zone, RuleEngine, SceneStats, FrameLoop,
the tracker, the dataset jobs) the way a user would, so an API change that
breaks one shows up here rather than the next time someone runs it by hand.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _args(demo, tmp_path):
    if demo.name == "pipeline_demo.py":
        return [str(tmp_path / "out")]
    if demo.name == "tracking_demo.py":
        return ["--jitter", "1.0", "--miss", "0.05"]
    return []


def test_demos_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


def _run_python(args, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo), *_args(demo, tmp_path)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block, "README.md has no ```python block"
    _run_python(["-c", block.group(1)], tmp_path)
