"""Every name a module exports exists, once; the runtime needs numpy only."""

import importlib
import os
import subprocess
import sys

import pytest

import catsim


@pytest.mark.parametrize(
    "name", ["hilbert", "model", "dynamics", "protocols", "tomography"]
)
def test_all_names_exist_once(name):
    module = importlib.import_module(f"catsim.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def test_cold_start_imports_no_scipy(tmp_path):
    # scipy's import is most of a fresh interpreter's start-up, so neither
    # importing catsim nor running any experiment may load it.
    out = str(tmp_path / "x.json")
    code = (
        "import sys, catsim, catsim.cli\n"
        "for argv in (['t2-sweep'], ['chevron'], ['stark-shift'], ['parity-once'],\n"
        "             ['parity-decay', '--trajectories', '20', '--n-max', '6'],\n"
        "             ['error-budget', '--trajectories', '1000', '--n-max', '6'],\n"
        "             ['prep-cat', '--trajectories', '50'], ['wigner']):\n"
        f"    assert catsim.cli.run(argv + ['--out', {out!r}]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(catsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
