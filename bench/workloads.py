"""The benchmark's four workloads and the checks on their outputs.

Each workload is one *operation* (the unit the benchmark repeats, each
repeat in a fresh interpreter):

* ``modules`` are imported first, and that time counts as set-up;
* ``inputs(seed, smoke)`` builds the operation's inputs, untimed;
* ``run(inputs, ledger)`` is the timed operation;
* ``check(output, ledger, smoke)`` returns the output's digest, its
  simulated outcomes and a list of failed checks.

Horizons are sized so that every workload repeats at least twice within
one benchmark run (see README.md); ``smoke`` shrinks them further for
the tests, which only check the plumbing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from ledger import Ledger

#: runner experiments timed by ``paper-figs``, in run order
FIGURES = ("fig2", "fig11", "fig12")

#: ``paper-figs --smoke``: fig2's cost is its fixed grid of network
#: builds, which no argument shrinks, so the smoke pass leaves it out
SMOKE_FIGURES = {
    "fig11": {"warmup": 150, "window": 150},
    "fig12": {"warmup": 100, "window": 150},
}

_TIMING_LINE = re.compile(r"\n\n\[\w+ completed in [0-9.]+s[^\]]*\]$")


@dataclass(frozen=True)
class Workload:
    name: str
    #: False when the operation runs on the seeds its experiment ships
    #: with (the ones its asserts certify), whatever ``--seed`` says
    seeded: bool
    modules: tuple[str, ...]
    inputs: Callable[[int, bool], Any]
    run: Callable[[Any, Ledger], Any]
    check: Callable[[Any, Ledger, bool], tuple[str, dict, list]]
    #: the simulation the call-count probe measures, and its (warm-up
    #: cycle, window end) at full and at smoke size
    probe_scenario: str
    probe_window: tuple[int, int]
    smoke_probe_window: tuple[int, int]

    def probe(self, smoke: bool) -> tuple[str, int, int]:
        window = self.smoke_probe_window if smoke else self.probe_window
        return (self.probe_scenario, *window)


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def latency_outcomes(stats, keep: Callable = lambda record: True) -> dict:
    """Mean and p99 creation-to-delivery latency (simulated cycles) and
    the delivered share of the packets ``keep`` selects."""
    offered = [r for r in stats.packets.values() if keep(r)]
    done = sorted(
        r.total_latency
        for r in offered
        if r.complete and not r.misdelivered
    )
    if not done:
        return {"latency_cycles_mean": None, "latency_cycles_p99": None,
                "delivered_ratio": 0.0}
    return {
        "latency_cycles_mean": sum(done) / len(done),
        "latency_cycles_p99": done[min(len(done) - 1, int(0.99 * len(done)))],
        "delivered_ratio": len(done) / len(offered),
    }


# -- single-simulation workloads ---------------------------------------------
def _run_scenario(scenario, ledger: Ledger):
    from repro.sim.engine import Simulation

    sim = Simulation(scenario)
    return sim, sim.run()


def _check_scenario(output, ledger: Ledger, smoke: bool):
    sim, result = output
    stats = sim.network.stats
    payload = {
        "result": dataclasses.asdict(result),
        "stats": stats.summary(),
        "packets": [
            [r.pkt_id, r.created_cycle, r.head_injected_cycle,
             r.tail_ejected_cycle, r.hops, r.retransmissions, r.misdelivered]
            for r in stats.packets.values()
        ],
        "links": [
            [link.traversals, link.corrupted_traversals]
            for link in sim.network.links.values()
        ],
    }
    failures = []
    if not result.completed:
        failures.append(f"not drained by cycle {result.cycles}")
    if result.misdeliveries:
        failures.append(f"{result.misdeliveries} packets misdelivered")
    return digest(payload), latency_outcomes(stats), failures


def _dense_inputs(seed: int, smoke: bool):
    from repro.noc.config import NoCConfig
    from repro.sim.scenario import Scenario, SyntheticTraffic

    horizon = 20 if smoke else 250
    return Scenario(
        name="dense-mesh16",
        cfg=NoCConfig(mesh_width=16, mesh_height=16),
        # below the ~0.007 pkt/core/cycle saturation knee of this mesh
        traffic=(
            SyntheticTraffic(
                pattern="uniform",
                injection_rate=0.005,
                payload_words=2,
                duration=horizon,
                seed=seed,
            ),
        ),
        max_cycles=horizon + 2000,
        seed=seed,
    )


def sparse_schedule(seed: int, packets: int, mean_gap: int = 300):
    """``packets`` packets between random distinct cores, separated by
    exponentially distributed gaps of ``mean_gap`` cycles."""
    from repro.noc.config import PAPER_CONFIG
    from repro.sim.scenario import PacketSpec

    rng = random.Random(seed)
    cores = PAPER_CONFIG.num_cores
    cycle = 0
    specs = []
    for pkt_id in range(packets):
        cycle += max(1, round(rng.expovariate(1 / mean_gap)))
        src = rng.randrange(cores)
        dst = rng.randrange(cores - 1)
        dst += dst >= src
        specs.append(
            PacketSpec(
                pkt_id=pkt_id,
                src_core=src,
                dst_core=dst,
                inject_at=cycle,
                mem_addr=rng.getrandbits(32),
                payload=(rng.getrandbits(64), rng.getrandbits(64)),
            )
        )
    return tuple(specs)


def _sparse_inputs(seed: int, smoke: bool):
    from repro.core.targets import TargetSpec
    from repro.noc.config import PAPER_CONFIG
    from repro.noc.topology import Direction
    from repro.resilience.watchdog import WatchdogConfig
    from repro.sim.scenario import (
        DefenseSpec,
        ExplicitTraffic,
        Scenario,
        TrojanSpec,
    )

    packets = sparse_schedule(seed, 60 if smoke else 1500)
    return Scenario(
        name="sparse-event-mesh4",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(
            TrojanSpec(
                link=(0, Direction.EAST), target=TargetSpec.for_dest(1)
            ),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=packets[-1].inject_at + 5000,
        sample_interval=0,
        engine="event",
        seed=seed,
    )


# -- attack-torus8 ------------------------------------------------------------
def _torus_inputs(seed: int, smoke: bool):
    from repro.experiments import largescale

    # 1200 cycles is the shortest horizon at which the shipped campaign
    # still localizes and contains every attacker
    return largescale.CAMPAIGNS[1], 300 if smoke else 1200


def _run_torus(inputs, ledger: Ledger):
    from repro.experiments import largescale

    return largescale.run_case(*inputs)


def _check_torus(case, ledger: Ledger, smoke: bool):
    from repro.experiments import largescale
    from repro.experiments.export import to_jsonable

    attacked = ledger.records[-1]
    outcomes = latency_outcomes(
        attacked.stats,
        keep=lambda record: record.pkt_id < largescale.FLOOD_ID_BASE,
    )
    outcomes.update(
        throughput_retained=case.throughput_retained,
        time_to_contain_cycles=case.containment["max_time_to_contain"],
        localization_error_hops=case.max_localization_error,
    )
    failures = []
    if not smoke:
        if case.attackers_localized != case.attackers:
            failures.append(
                f"localized {case.attackers_localized}/{case.attackers}"
            )
        if case.max_localization_error > 1:
            failures.append(
                f"localization error {case.max_localization_error} hops"
            )
        if case.quarantined_links >= case.flag_everything_links:
            failures.append(
                f"quarantine {case.quarantined_links} not below "
                f"flag-everything {case.flag_everything_links}"
            )
        if case.throughput_retained < 0.92:
            failures.append(
                f"throughput retained {case.throughput_retained:.3f} < 0.92"
            )
    return digest(to_jsonable(case)), outcomes, failures


# -- paper-figs ---------------------------------------------------------------
def _run_figures(smoke: bool, ledger: Ledger) -> dict:
    from repro.experiments import runner

    reports = {}
    for name in SMOKE_FIGURES if smoke else FIGURES:
        t0 = perf_counter()
        if smoke:
            module = runner.EXPERIMENTS[name][0]
            report = module.format_result(module.run(**SMOKE_FIGURES[name]))
        else:
            report = _TIMING_LINE.sub(
                "", runner.run_experiment(name, cache=None)
            )
        ledger.walls[name] = perf_counter() - t0
        reports[name] = report
    return reports


def _check_figures(reports, ledger: Ledger, smoke: bool):
    return digest(reports), {}, []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense-mesh16",
            seeded=True,
            modules=("repro.sim.engine",),
            inputs=_dense_inputs,
            run=_run_scenario,
            check=_check_scenario,
            probe_scenario="dense-mesh16",
            probe_window=(100, 200),
            smoke_probe_window=(5, 20),
        ),
        Workload(
            name="attack-torus8",
            seeded=False,
            modules=("repro.experiments.largescale",),
            inputs=_torus_inputs,
            run=_run_torus,
            check=_check_torus,
            probe_scenario="largescale-torus8",
            probe_window=(800, 900),
            smoke_probe_window=(100, 150),
        ),
        Workload(
            name="sparse-event-mesh4",
            seeded=True,
            modules=("repro.sim.engine",),
            inputs=_sparse_inputs,
            run=_run_scenario,
            check=_check_scenario,
            probe_scenario="sparse-event-mesh4",
            probe_window=(100_000, 200_000),
            smoke_probe_window=(1_000, 8_000),
        ),
        Workload(
            name="paper-figs",
            seeded=False,
            modules=("repro.experiments.runner",),
            inputs=lambda seed, smoke: smoke,
            run=_run_figures,
            check=_check_figures,
            probe_scenario="fig11-blackscholes-attacked",
            probe_window=(1000, 1400),
            smoke_probe_window=(50, 140),
        ),
    )
}
