"""Every demo script, and the README's library quickstart, runs to
completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(script):
    result = run_python([str(script)])
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_exits_zero():
    # the quickstart imports and calls public names, so a deleted one cannot
    # linger in the docs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "construct_named_graph" in block
    result = run_python(["-c", block])
    assert result.returncode == 0, result.stderr
