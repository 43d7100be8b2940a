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


def test_every_private_top_level_name_is_referenced():
    # The unused-definition half of the linter stand-in: a private
    # function, class or constant at the top of a module must be read
    # somewhere in src/, in its own module or through an import.
    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(catsim.__file__).parent.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name}:{item}" for item in defined
                       if item.startswith("_") and not item.startswith("__")
                       and item not in referenced]
    assert unread == []


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


def test_every_name_the_benchmark_tracer_patches_exists():
    # A static check of perfbench/tracer.py, so that a rename in src/
    # cannot break the traced benchmark unseen.  Each patch(...) reads its
    # attribute from the first module it lists, which must hold it; any
    # other listed module that holds the name must hold the same object,
    # and a module that holds the object must be listed, or its calls
    # would escape the wrapper.  (A listed module may lack the name: six
    # do, and patch's setattr then adds a name that nothing reads.)  Every
    # dotted name install() reads from a catsim module must resolve.
    root = pathlib.Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "tracer.py").read_text())
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {alias.asname: importlib.import_module(alias.name)
               for node in ast.walk(install) if isinstance(node, ast.Import)
               for alias in node.names}

    def resolve(node):
        if isinstance(node, ast.Name):
            return modules[node.id]
        return getattr(resolve(node.value), node.attr)

    def rooted_at_a_module(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in modules

    patched = 0
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
            listed = [modules[element.id] for element in node.args[0].elts]
            attr = ast.literal_eval(node.args[1])
            assert hasattr(listed[0], attr), (listed[0].__name__, attr)
            wrapped = getattr(listed[0], attr)
            for module in listed[1:]:
                assert getattr(module, attr, wrapped) is wrapped, (module.__name__, attr)
            for module in modules.values():
                held = getattr(module, attr, None) is wrapped
                assert module in listed or not held, (module.__name__, attr)
            patched += 1
        elif isinstance(node, ast.Attribute) and rooted_at_a_module(node):
            resolve(node)
    assert patched > 20
