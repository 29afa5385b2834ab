"""Scaling bench: simulator throughput from 4x4 to 16x16.

One uniform-random benign workload, identical injection rate and
horizon, swept across mesh sizes (and the 8x8 torus for the wrap
machinery's overhead).  Each test records its simulated cycle count so
``BENCH_scale.json`` carries cycles/sec per topology — the trajectory
CI watches as the topology layer grows — and, next to it, the traced
Python allocation a freshly built network of that topology keeps per
router (``build_kib_per_router``, from a separate build outside the
timed run).

The assertions pin sanity, not speed: every run must deliver traffic
and finish its horizon.  Set ``REPRO_BENCH_QUICK=1`` to shrink the
horizon for smoke runs.
"""

import os

import pytest

from repro.noc.config import NoCConfig
from repro.noc.network import Network
from repro.obs.perf import traced_build
from repro.sim import Scenario, Simulation, SyntheticTraffic

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CYCLES = 600 if QUICK else 3000

MESHES = [
    pytest.param(NoCConfig(mesh_width=4, mesh_height=4), id="mesh4"),
    pytest.param(NoCConfig(mesh_width=8, mesh_height=8), id="mesh8"),
    pytest.param(
        NoCConfig(mesh_width=8, mesh_height=8, topology="torus"),
        id="torus8",
    ),
    pytest.param(NoCConfig(mesh_width=16, mesh_height=16), id="mesh16"),
]


def scale_scenario(cfg: NoCConfig) -> Scenario:
    return Scenario(
        name=f"bench-scale-{cfg.topology}{cfg.mesh_width}",
        cfg=cfg,
        traffic=(
            SyntheticTraffic(
                pattern="uniform",
                injection_rate=0.02,
                payload_words=2,
                duration=CYCLES - 200,
                seed=7,
            ),
        ),
        duration=CYCLES,
        seed=3,
    )


@pytest.mark.parametrize("cfg", MESHES)
def test_scale(cfg, once, bench_meta):
    _, held = traced_build(lambda: Network(cfg))
    bench_meta["build_kib_per_router"] = round(
        held / cfg.num_routers / 1024, 2
    )
    sim = Simulation(scale_scenario(cfg))
    result = once(sim.run)
    bench_meta["cycles"] = sim.network.cycle
    bench_meta["routers"] = cfg.num_routers
    bench_meta["topology"] = cfg.topology
    assert sim.network.cycle == CYCLES
    assert sim.network.stats.packets_completed > 0
    assert result is not None
