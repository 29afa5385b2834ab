"""The simulator's import path is pure Python.

The package declares no runtime dependency, so importing it and
running a simulation must work on an interpreter without numpy and
must not load it.  The network model sits below the observability
layer, so importing it loads no ``repro.obs`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

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
import sys

import repro.noc

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


def test_simulates_without_numpy():
    proc = _run_child(_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr


def test_runner_import_does_not_load_numpy():
    proc = _run_child(_PLAIN_IMPORT)
    assert proc.returncode == 0, proc.stderr


def test_noc_import_loads_no_obs_module():
    proc = _run_child(_NOC_IMPORT)
    assert proc.returncode == 0, proc.stderr
