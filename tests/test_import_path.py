"""The simulator's import path is pure Python and follows the layers.

The package declares no runtime dependency, so importing it and
running a simulation must work on an interpreter without numpy and
must not load it.  The network model sits below the observability
layer, so importing it loads no ``repro.obs`` module.

Package facades are lazy: importing a package loads none of its
submodules, so a module loads only the layers it imports
(``docs/architecture.md``).  Each check runs in a fresh interpreter.
Every name a facade exports is the object its defining module binds.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_WITHOUT_NUMPY = """\
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import repro
import repro.experiments.runner
import repro.serve
import repro.sim.engine
from repro.core.targets import TargetSpec
from repro.noc.topology import Direction
from repro.sim.scenario import (
    DefenseSpec,
    Scenario,
    SyntheticTraffic,
    TrojanSpec,
)

result = repro.sim.engine.Simulation(
    Scenario(
        traffic=(
            SyntheticTraffic(injection_rate=0.02, max_packets=40, seed=1),
        ),
        trojans=(
            TrojanSpec(
                link=(0, Direction.EAST), target=TargetSpec.for_dest(1)
            ),
        ),
        defense=DefenseSpec(mitigated=True),
        max_cycles=5000,
    )
).run()
assert result.completed, result
assert result.packets_completed == 40, result
"""

_PLAIN_IMPORT = """\
import sys

import repro.experiments.runner

assert "numpy" not in sys.modules, "importing the runner loaded numpy"
"""

_NOC_IMPORT = """\
import importlib
import pkgutil
import sys

import repro.noc

for module in pkgutil.iter_modules(repro.noc.__path__, "repro.noc."):
    importlib.import_module(module.name)

loaded = sorted(name for name in sys.modules if name.startswith("repro.obs"))
assert not loaded, f"importing repro.noc loaded {loaded}"
"""


def _run_child(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _loaded_by(statement: str) -> set[str]:
    """The repro modules a fresh interpreter holds after ``statement``."""
    proc = _run_child(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {m for m in loaded if m == "repro" or m.startswith("repro.")}


def _layer(module: str) -> str:
    return ".".join(module.split(".")[:2])


def test_simulates_without_numpy():
    proc = _run_child(_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr


def test_runner_import_does_not_load_numpy():
    proc = _run_child(_PLAIN_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_noc_import_loads_no_obs_module():
    proc = _run_child(_NOC_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_submodule():
    assert _loaded_by("import repro") <= {"repro", "repro._lazy"}


def test_network_import_loads_only_its_layers():
    layers = {_layer(m) for m in _loaded_by("import repro.noc.network")}
    assert layers <= {
        "repro", "repro._lazy", "repro.noc", "repro.ecc", "repro.util",
    }


ENGINE_NEVER_LOADS = (
    "repro.experiments",
    "repro.power",
    "repro.serve",
    "repro.core.attacker",
    "repro.core.migration",
    "repro.core.recovery",
    "repro.sim.cache",
    "repro.sim.checkpoint",
    "repro.sim.forensics",
    "repro.sim.shrink",
    "repro.traffic.trace",
)


def test_engine_import_skips_what_a_run_does_not_use():
    loaded = _loaded_by("import repro.sim.engine")
    unused = sorted(
        m for m in loaded
        if m in ENGINE_NEVER_LOADS or _layer(m) in ENGINE_NEVER_LOADS
    )
    assert not unused


def test_experiment_import_loads_no_other_experiment():
    loaded = _loaded_by("import repro.experiments.largescale")
    experiments = {m for m in loaded if m.startswith("repro.experiments.")}
    assert experiments == {"repro.experiments.largescale"}


PACKAGES = ["repro"] + sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(
        repro.__path__, "repro."
    )
    if is_package
)


def _bound_names(path: Path) -> set[str]:
    """Names a module's source binds at top level other than by import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _definitions(package: str) -> dict[str, set[str]]:
    """Name -> the modules under ``package`` whose source defines it;
    a submodule defines its own name."""
    root = Path(importlib.import_module(package).__file__).parent
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join((package, *parts))
        for name in _bound_names(path) | set(parts[-1:]):
            found.setdefault(name, set()).add(module)
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_facade_names_are_their_definitions(package):
    facade = importlib.import_module(package)
    assert facade.__all__, package
    assert set(facade.__all__) <= set(dir(facade))
    definitions = _definitions(package)
    for name in facade.__all__:
        (defining,) = definitions[name]
        expected = importlib.import_module(defining)
        if defining != f"{package}.{name}":
            expected = getattr(expected, name)
        assert getattr(facade, name) is expected, (package, name)
