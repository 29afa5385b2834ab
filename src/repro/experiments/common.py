"""Shared helpers for the experiment harness."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.baselines.reroute import UnroutableError, updown_table
from repro.core import TargetSpec, TaspConfig, TaspTrojan
from repro.noc.config import NoCConfig
from repro.noc.network import Network
from repro.noc.topology import LinkKey, all_links, links_on_xy_path
from repro.traffic.apps import AppProfile, AppTraceSource
from repro.traffic.trace import Trace, record_trace
from repro.util.rng import SeededStream


def make_app_trace(
    cfg: NoCConfig,
    profile: AppProfile,
    duration: int,
    seed: int = 0,
    max_packets: Optional[int] = None,
) -> Trace:
    source = AppTraceSource(
        cfg, profile, seed=seed, duration=duration, max_packets=max_packets
    )
    return record_trace(source, cfg, duration, profile.name)


def xy_link_loads(cfg: NoCConfig, trace: Trace) -> dict[LinkKey, int]:
    """Flit-traversal count per link if the trace is xy-routed
    (analytic — no simulation needed)."""
    loads: dict[LinkKey, int] = {key: 0 for key in all_links(cfg)}
    for pkt in trace.packets:
        src = cfg.router_of_core(pkt.src_core)
        dst = cfg.router_of_core(pkt.dst_core)
        for key in links_on_xy_path(cfg, src, dst):
            loads[key] += pkt.num_flits()
    return loads


def pick_infected_links(
    cfg: NoCConfig,
    trace: Trace,
    count: int,
    seed: int = 0,
) -> list[LinkKey]:
    """Choose ``count`` links for trojan insertion.

    Following the paper's attacker analysis (§III-A), links are drawn
    preferentially from the busiest part of the xy-routed traffic (an
    attacker a few hops from the primary cores sees most flows), while
    keeping the surviving topology up*/down*-routable so the rerouting
    baseline remains comparable.
    """
    if count == 0:
        return []
    loads = xy_link_loads(cfg, trace)
    ranked = sorted(loads, key=lambda k: loads[k], reverse=True)
    stream = SeededStream(seed, "infected-links")
    # jitter the ranking a little so different seeds infect different sets
    ranked = sorted(
        ranked,
        key=lambda k: loads[k] * (0.8 + 0.4 * stream.random()),
        reverse=True,
    )
    chosen: list[LinkKey] = []
    for key in ranked:
        candidate = chosen + [key]
        try:
            updown_table(cfg, candidate)
        except UnroutableError:
            continue
        chosen = candidate
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise UnroutableError(
            f"could not find {count} infectable links keeping the mesh routable"
        )
    return chosen


def attach_trojans(
    network: Network,
    links: Iterable[LinkKey],
    target: TargetSpec,
    config: TaspConfig = TaspConfig(),
    enabled: bool = True,
) -> list[TaspTrojan]:
    """Imperative wrapper over the sim layer's declarative specs, kept
    for callers that already hold a wired :class:`Network`."""
    from repro.sim import attach_trojan_specs, trojan_specs

    return attach_trojan_specs(
        network,
        trojan_specs(links, target, config=config, enabled=enabled),
    )


def format_table(
    headers: list[str], rows: list[list], widths: Optional[list[int]] = None
) -> str:
    """Minimal fixed-width table formatter for experiment reports."""
    if widths is None:
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) + 2
            if rows
            else len(str(headers[i])) + 2
            for i in range(len(headers))
        ]
    def fmt(row):
        return "".join(str(v).ljust(w) for v, w in zip(row, widths))
    lines = [fmt(headers), "-" * sum(widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
