"""Every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

import catsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(catsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)], capture_output=True, text=True,
        timeout=300, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
