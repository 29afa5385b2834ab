"""Observability overhead guard.

Two variants of the identical traffic-heavy scenario, interleaved
round-robin so ambient machine noise hits both equally:

* **baseline** — no observability object at all;
* **enabled** — metrics + the 64-cycle windowed series + every event,
  built and kept by a list sink on the bus.

The bench asserts the pure-observer contract first (both produce
byte-identical ``NetworkStats``) and then pins the overhead: the
fully enabled path within 15% of baseline (on min-of-rounds; relaxed
under ``REPRO_BENCH_QUICK=1`` where the workload is too small for
stable timing).
"""

import os
import time

from repro.experiments.export import to_jsonable
from repro.noc.config import PAPER_CONFIG
from repro.obs.instrument import ObsConfig, Observability
from repro.sim import DefenseSpec, Scenario, Simulation, SyntheticTraffic

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
DURATION = 400 if QUICK else 2000
ROUNDS = 3 if QUICK else 5
# timing floor: tight by default, loose on the quick smoke workload
ENABLED_OVERHEAD = 0.60 if QUICK else 0.15


def obs_scenario() -> Scenario:
    return Scenario(
        name="bench-obs",
        cfg=PAPER_CONFIG,
        traffic=(
            SyntheticTraffic(
                pattern="uniform",
                injection_rate=0.10,
                duration=DURATION,
                seed=11,
            ),
        ),
        defense=DefenseSpec(mitigated=True),
        max_cycles=DURATION + 6000,
    )


def _observed() -> Observability:
    obs = Observability(ObsConfig())
    obs.bus.sinks.append([].append)
    return obs


VARIANTS = {
    "baseline": lambda: None,
    "enabled": _observed,
}


def _timed(make_obs) -> tuple[float, int, dict]:
    obs = make_obs()
    sim = Simulation(obs_scenario(), obs=obs)
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    assert result.completed
    return elapsed, sim.network.cycle, to_jsonable(vars(sim.network.stats))


def test_bench_obs_overhead(record_samples, bench_meta):
    times: dict = {name: [] for name in VARIANTS}
    stats: dict = {}
    cycles = 0
    for _ in range(ROUNDS):
        for name, make_obs in VARIANTS.items():
            elapsed, cycles, run_stats = _timed(make_obs)
            times[name].append(elapsed)
            stats.setdefault(name, run_stats)

    # pure observer: attaching must not change a single stats byte
    assert stats["enabled"] == stats["baseline"]

    best = {name: min(samples) for name, samples in times.items()}
    enabled_over = best["enabled"] / best["baseline"] - 1.0
    print(
        f"\nobs overhead on {cycles} cycles (min of {ROUNDS}): "
        f"baseline {best['baseline'] * 1e3:.0f}ms, "
        f"enabled {enabled_over * 100:+.1f}%"
    )
    bench_meta["cycles"] = cycles
    bench_meta["duration"] = DURATION
    bench_meta["baseline_min_s"] = best["baseline"]
    record_samples(times["enabled"], variant="enabled")

    assert enabled_over < ENABLED_OVERHEAD
