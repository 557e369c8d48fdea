"""Every narrative demo, and the README's library quick start, runs to
completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo):
    result = _run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL)
    assert block, "README.md has no python block under '## Library quick start'"
    result = _run_python("-c", block.group(1))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
