"""Every name a module exports exists, once; every name a module imports
is used or exported; the runtime needs numpy only; the benchmark's tracer
finds every name it wraps."""

import ast
import importlib
import os
import pathlib
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


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(catsim.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_used_or_exported(path):
    # No linter ships with the toolchain, so this stands in for an unused
    # import check.
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


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


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracer.py wraps catsim functions by name, so a rename in
    # src/ breaks the traced benchmark; run it on a small traced pass.  It
    # labels a trajectory's path from HamiltonianSpec and CollapseChannel
    # attributes it reads leniently, so one static run must count as
    # diagonal.
    out = str(tmp_path / "x.json")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(root, 'perfbench')!r})\n"
        "import tracer, catsim.cli, catsim.dynamics as dynamics, catsim.protocols as protocols\n"
        "from catsim.hilbert import CavityBasis, fock_state, joint_state\n"
        "from catsim.model import SystemParams, build_hamiltonian, collapse_channels\n"
        "trace = tracer.Tracer()\n"
        "trace.install()\n"
        "argv = ['parity-once', '--protocol', 'ft', '--drive', 'time-dependent',\n"
        f"        '--fock-dim', '10', '--out', {out!r}]\n"
        "assert catsim.cli.run(argv) == 0\n"
        "argv = ['error-budget', '--trajectories', '1000', '--n-max', '6',\n"
        f"        '--out', {out!r}]\n"
        "assert catsim.cli.run(argv) == 0\n"
        "protocols.repeated_parity(SystemParams(), 'gf', 3, basis=CavityBasis(10),\n"
        "                          trials=3, seed=1)\n"
        "basis = CavityBasis(4)\n"
        "dynamics.run_trajectory(joint_state('e', fock_state(1, basis)),\n"
        "                        build_hamiltonian(SystemParams(), basis),\n"
        "                        collapse_channels(SystemParams(), basis), 1e-6,\n"
        "                        dynamics.trajectory_rng(0))\n"
        "layers = trace.per_layer()\n"
        "assert set(layers) == set(tracer.PER_LAYER_METRICS)\n"
        "print(layers['protocols.parity_map.calls'], layers['model.context.self_s'] > 0,\n"
        "      layers['protocols.repeated_parity.self_s'] > 0, layers['cli.parity-once.s'] > 0,\n"
        "      layers['analytics.phase_kick_monte_carlo.self_s'] > 0,\n"
        "      layers['analytics.error_event_table.self_s'] > 0, layers['cli.error-budget.s'] > 0,\n"
        "      layers['dynamics.run_trajectory.diagonal.calls'])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(catsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["6"] + ["True"] * 6 + ["1"]
