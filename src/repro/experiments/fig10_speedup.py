"""Fig. 10 — keep using infected links (s2s L-Ob) vs rerouting (Ariadne).

For each application trace and each infected-link percentage, the same
workload is run twice:

* **L-Ob arm** — trojans sit on the infected links; the mitigated
  network keeps using them, paying 1–3 cycles per obfuscated traversal;
* **Rerouting arm** — the infected links are condemned and traffic is
  rerouted with a reconfigured up*/down* table (Ariadne-style), paying
  extra hops and lost path diversity on every packet.

Speedup is the ratio of workload completion times (reroute / L-Ob):
above 1.0 means continuing to use the infected link wins.  The paper
shows the advantage growing with the infected percentage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.core import TargetSpec
from repro.experiments.common import (
    format_table,
    make_app_trace,
    pick_infected_links,
)
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.sim import AppTraffic, DefenseSpec, Scenario, engine, trojan_specs
from repro.traffic.apps import PROFILES

DEFAULT_APPS = ("blackscholes", "facesim", "ferret", "fft")
DEFAULT_FRACTIONS = (0.0, 0.05, 0.10, 0.15)

#: drain stall limit (cycles without a delivery before a run is aborted)
STALL_LIMIT = 2000


@dataclass(frozen=True)
class Fig10Point:
    app: str
    infected_fraction: float
    infected_links: int
    lob_cycles: int
    reroute_cycles: int
    lob_completed: bool
    reroute_completed: bool

    @property
    def speedup(self) -> float:
        """Completion-time ratio: >1 means L-Ob beats rerouting."""
        return self.reroute_cycles / self.lob_cycles


@dataclass(frozen=True)
class Fig10Result:
    points: list[Fig10Point]
    trace_packets: dict[str, int]

    def series(self, app: str) -> list[Fig10Point]:
        return [p for p in self.points if p.app == app]


def run(
    cfg: NoCConfig = PAPER_CONFIG,
    apps: Sequence[str] = DEFAULT_APPS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    duration: int = 500,
    rate_scale: float = 8.0,
    seed: int = 0,
    max_cycles: int = 30000,
) -> Fig10Result:
    """``rate_scale`` multiplies the profile injection rates so the
    workload is throughput-bound (completion time then measures network
    capacity, which is what the two mitigations trade off)."""
    points: list[Fig10Point] = []
    trace_packets: dict[str, int] = {}

    for app in apps:
        profile = dataclasses.replace(
            PROFILES[app],
            injection_rate=PROFILES[app].injection_rate * rate_scale,
        )
        # analytic trace: link-load ranking + packet count (the live
        # AppTraffic source replays the identical stream)
        trace = make_app_trace(cfg, profile, duration, seed=seed)
        trace_packets[app] = len(trace)
        workload = AppTraffic(
            profile=app, seed=seed, duration=duration, rate_scale=rate_scale
        )
        # the attacker targets the application's primary router
        target = TargetSpec.for_dest(profile.primary_routers[0][0])

        for fraction in fractions:
            count = round(fraction * cfg.num_links)
            links = pick_infected_links(cfg, trace, count, seed=seed)
            trojans = trojan_specs(links, target)

            lob = engine.run(
                Scenario(
                    name=f"fig10-{app}-{fraction:.2f}-lob",
                    cfg=cfg,
                    traffic=(workload,),
                    trojans=trojans,
                    defense=DefenseSpec(mitigated=True),
                    max_cycles=max_cycles,
                    stall_limit=STALL_LIMIT,
                    seed=seed,
                )
            )
            # disabled links make the trojans inert in the reroute arm
            rr = engine.run(
                Scenario(
                    name=f"fig10-{app}-{fraction:.2f}-reroute",
                    cfg=cfg,
                    traffic=(workload,),
                    trojans=trojans,
                    defense=DefenseSpec(rerouted_links=tuple(links)),
                    max_cycles=max_cycles,
                    stall_limit=STALL_LIMIT,
                    seed=seed,
                )
            )

            points.append(
                Fig10Point(
                    app=app,
                    infected_fraction=fraction,
                    infected_links=count,
                    lob_cycles=lob.cycles,
                    reroute_cycles=rr.cycles,
                    lob_completed=lob.completed,
                    reroute_completed=rr.completed,
                )
            )
    return Fig10Result(points=points, trace_packets=trace_packets)


def format_result(result: Fig10Result) -> str:
    headers = [
        "app", "infected", "links", "L-Ob cycles", "reroute cycles",
        "speedup (L-Ob vs reroute)",
    ]
    rows = []
    for p in result.points:
        rows.append([
            p.app,
            f"{100 * p.infected_fraction:.0f}%",
            p.infected_links,
            f"{p.lob_cycles}{'' if p.lob_completed else ' (!)'} ",
            f"{p.reroute_cycles}{'' if p.reroute_completed else ' (!)'}",
            f"{p.speedup:.2f}x",
        ])
    return (
        "Fig. 10 — workload completion: s2s L-Ob vs rerouting (Ariadne)\n"
        + format_table(headers, rows)
    )
