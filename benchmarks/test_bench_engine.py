"""Engine bench: cheap stepping strategies vs the full per-cycle sweep.

Two stepping optimizations are measured against their oracles:

* active-set stepping vs ``full_sweep=True`` — skipping *settled
  routers* within a cycle;
* the event engine vs the sweep engine — skipping *provably idle
  cycles* outright via the event core (``repro.sim.sched``).

Each bench runs the identical scenario both ways, asserts the stats
are bit-identical, and records the speedup.  The event-engine benches
use the two workload shapes the scheduler targets: a *drain-heavy*
trickle (long gaps between packets of one targeted flow) and an
*attack-quiescent* run (a short trojan-link flood burst, then a long
mitigated tail probed sparsely).  Both use ``sample_interval=0`` so
the sampling cadence does not cap the leap length.

Set ``REPRO_BENCH_QUICK=1`` to shrink the workloads for smoke runs;
quick workloads are too small to amortize the active bursts, so only
the full-size runs assert the headline >=5x speedup.
"""

import os
import time

from repro.core import TargetSpec
from repro.experiments.export import to_jsonable
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction
from repro.resilience.watchdog import WatchdogConfig
from repro.sim import (
    DefenseSpec,
    ExplicitTraffic,
    FloodTraffic,
    PacketSpec,
    Scenario,
    Simulation,
    TrojanSpec,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PACKETS = 8 if QUICK else 30
SPACING = 120


def drain_heavy_scenario() -> Scenario:
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0,
                   dst_core=PAPER_CONFIG.core_of(15, 1),
                   mem_addr=0x100, inject_at=i * SPACING)
        for i in range(PACKETS)
    )
    return Scenario(
        name="bench-drain-heavy",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(15)),
        ),
        defense=DefenseSpec(mitigated=True),
        max_cycles=PACKETS * SPACING + 6000,
        stall_limit=1500,
    )


def _timed_run(full_sweep: bool) -> tuple[float, object, dict]:
    sim = Simulation(drain_heavy_scenario(), full_sweep=full_sweep)
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    return elapsed, result, to_jsonable(vars(sim.network.stats))


def _compare() -> dict:
    full_s, full_result, full_stats = _timed_run(full_sweep=True)
    active_s, active_result, active_stats = _timed_run(full_sweep=False)
    return {
        "full_s": full_s,
        "active_s": active_s,
        "full_result": full_result,
        "active_result": active_result,
        "identical": active_stats == full_stats,
    }


def test_bench_engine_active_vs_full_sweep(once):
    out = once(_compare)
    # correctness first: skipping settled routers must not change a bit
    assert out["identical"]
    assert out["active_result"] == out["full_result"]
    assert out["active_result"].completed
    assert out["active_result"].packets_completed == PACKETS

    speedup = out["full_s"] / out["active_s"]
    print(
        f"\nactive-set vs full sweep on {PACKETS} packets: "
        f"{out['full_s'] * 1e3:.0f}ms -> {out['active_s'] * 1e3:.0f}ms "
        f"({speedup:.2f}x)"
    )
    # drain-heavy traffic leaves most routers settled most cycles, so
    # the active-set step must win outright
    assert speedup > 1.0


# ---------------------------------------------------------------------------
# event engine vs sweep engine
# ---------------------------------------------------------------------------
#: headline floor for the full-size workloads; quick runs only smoke
#: the identity and direction of the win
EVENT_SPEEDUP_FLOOR = 1.2 if QUICK else 5.0

ED_PACKETS = 6 if QUICK else 20
ED_SPACING = 8000


def event_drain_heavy_scenario() -> Scenario:
    """One targeted flow with ~8000 idle cycles between packets: the
    event engine teleports over every gap, the sweep walks them."""
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0,
                   dst_core=PAPER_CONFIG.core_of(15, 1),
                   mem_addr=0x100, inject_at=i * ED_SPACING)
        for i in range(ED_PACKETS)
    )
    return Scenario(
        name="bench-event-drain-heavy",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(15)),
        ),
        defense=DefenseSpec(mitigated=True),
        max_cycles=ED_PACKETS * ED_SPACING + 6000,
        stall_limit=ED_SPACING + 2000,
        sample_interval=0,
    )


EA_PROBES = 3 if QUICK else 8
EA_GAP = 8000
EA_FLOOD_STOP = 120


def event_attack_quiescent_scenario() -> Scenario:
    """A short flood burst through the infected link, then a long
    mitigated tail probed every ~8000 cycles.  The watchdog ladder is
    armed the whole run but quiescent between probes, so its
    ``next_event_cycle`` hook must release the clock for the engine to
    win."""
    probes = tuple(
        PacketSpec(pkt_id=100 + i, src_core=2,
                   dst_core=PAPER_CONFIG.core_of(13, 0),
                   mem_addr=0x200, inject_at=400 + i * EA_GAP)
        for i in range(EA_PROBES)
    )
    return Scenario(
        name="bench-event-attack-quiescent",
        cfg=PAPER_CONFIG,
        traffic=(
            FloodTraffic(
                rogue_cores=(0,),
                victim_cores=(PAPER_CONFIG.core_of(15, 1),),
                rate=0.5,
                stop_cycle=EA_FLOOD_STOP,
                seed=3,
            ),
            ExplicitTraffic(packets=probes),
        ),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(15)),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=400 + EA_PROBES * EA_GAP + 6000,
        stall_limit=EA_GAP + 2000,
        sample_interval=0,
    )


def _timed_engine_run(scenario: Scenario, engine: str):
    sim = Simulation(scenario, engine=engine)
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    return elapsed, result, to_jsonable(vars(sim.network.stats)), sim


def _event_vs_sweep(scenario, record_samples, label):
    sweep_s, sweep_result, sweep_stats, _ = _timed_engine_run(
        scenario, "sweep"
    )
    event_s, event_result, event_stats, event_sim = _timed_engine_run(
        scenario, "event"
    )

    # correctness first: teleporting over idle cycles must not change
    # a bit of the report
    assert event_stats == sweep_stats
    assert event_result == sweep_result
    assert event_result.completed

    core = event_sim.event_core
    assert core is not None and core.cycles_skipped > 0
    speedup = sweep_s / event_s
    print(
        f"\n{label}: sweep {sweep_s * 1e3:.0f}ms -> event "
        f"{event_s * 1e3:.0f}ms ({speedup:.2f}x, "
        f"{core.cycles_skipped}/{event_result.cycles} cycles skipped)"
    )
    # the timed sample is the event engine; the sweep baseline and the
    # speedup ride along as metadata for the trajectory
    record_samples(
        [event_s],
        cycles=event_result.cycles,
        scenario_hash=scenario.content_hash(),
        sweep_s=sweep_s,
        speedup=speedup,
        cycles_skipped=core.cycles_skipped,
        quick=QUICK,
    )
    assert speedup > EVENT_SPEEDUP_FLOOR


def test_bench_engine_event_vs_sweep_drain_heavy(record_samples):
    _event_vs_sweep(
        event_drain_heavy_scenario(),
        record_samples,
        f"event vs sweep, drain-heavy ({ED_PACKETS} pkts / "
        f"{ED_SPACING}-cycle gaps)",
    )


def test_bench_engine_event_vs_sweep_attack_quiescent(record_samples):
    _event_vs_sweep(
        event_attack_quiescent_scenario(),
        record_samples,
        f"event vs sweep, attack-quiescent ({EA_FLOOD_STOP}-cycle "
        f"flood + {EA_PROBES} probes / {EA_GAP}-cycle gaps)",
    )
