"""Fig. 12 — QoS containment (TDM) vs the proposed s2s mitigation.

(a) A two-domain TDM NoC (SurfNoC-style non-interference): domain D1
runs a clean application, domain D2 hosts the trojan's target.  The
attack saturates D2's resources only — contained, but D2 still
deadlocks, so QoS alone is not a mitigation.

(b) The same two-application workload on a NoC with the threat detector
and L-Ob: both applications keep running with only the few-cycle
obfuscation penalty.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.baselines.tdm import TdmConfig, TdmPolicy
from repro.core import TargetSpec
from repro.experiments.common import format_table, xy_link_loads
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.noc.network import Network
from repro.noc.topology import LinkKey
from repro.sim import AppTraffic, DefenseSpec, Scenario, Simulation, TrojanSpec
from repro.traffic.apps import PROFILES, AppTraceSource
from repro.traffic.trace import record_trace


@dataclass(frozen=True)
class DomainSample:
    cycle: int
    buffer_util: tuple[int, int]
    injection_util: tuple[int, int]
    blocked_cores: tuple[int, int]
    packets_completed: tuple[int, int]


@dataclass(frozen=True)
class Fig12Series:
    label: str
    samples: list[DomainSample]

    def final(self) -> DomainSample:
        return self.samples[-1]

    def completions_in_window(self, domain: int) -> int:
        return (
            self.samples[-1].packets_completed[domain]
            - self.samples[0].packets_completed[domain]
        )


@dataclass(frozen=True)
class Fig12Result:
    tdm: Fig12Series
    tdm_baseline: Fig12Series
    mitigated: Fig12Series
    enable_cycle: int
    headline: dict


def _domain_sample(net: Network, cycle: int, done_by_domain) -> DomainSample:
    buf = [0, 0]
    inj = [0, 0]
    blocked = [0, 0]
    for router in net.routers:
        for key, port in router.inputs.items():
            is_inj = isinstance(key, tuple)
            for vc in port.vcs:
                for flit in vc.buffer:
                    (inj if is_inj else buf)[flit.domain % 2] += 1
    for core in range(net.cfg.num_cores):
        if net.core_blocked(core):
            blocked[core % 2] += 1
    return DomainSample(
        cycle=cycle,
        buffer_util=(buf[0], buf[1]),
        injection_util=(inj[0], inj[1]),
        blocked_cores=(blocked[0], blocked[1]),
        packets_completed=(done_by_domain[0], done_by_domain[1]),
    )


def _two_apps(
    cfg: NoCConfig,
    duration: int,
    seed: int,
    rate_scale: float,
    vcs_d0: tuple,
    vcs_d1: tuple,
) -> tuple[AppTraffic, AppTraffic]:
    """D1: clean app on even cores; D2: victim app on odd cores."""
    even = tuple(c for c in range(cfg.num_cores) if c % 2 == 0)
    odd = tuple(c for c in range(cfg.num_cores) if c % 2 == 1)
    return (
        AppTraffic(
            profile="facesim", seed=seed, duration=duration,
            rate_scale=rate_scale, cores=even, domain=0,
            vc_classes=vcs_d0, pkt_id_base=0,
        ),
        AppTraffic(
            profile="blackscholes", seed=seed + 1, duration=duration,
            rate_scale=rate_scale, cores=odd, domain=1,
            vc_classes=vcs_d1, pkt_id_base=1_000_000,
        ),
    )


class _CompletionsByDomain:
    """Ejection hook counting completed packets per domain: a class,
    not a closure, so the simulation stays snapshot-safe (failure
    forensics snapshots it)."""

    def __init__(self) -> None:
        self.done = [0, 0]

    def __call__(self, flit, cycle, core) -> None:
        if flit.is_tail:
            self.done[flit.domain % 2] += 1


def _run_one(
    sim: Simulation,
    warmup: int,
    window: int,
    sample_every: int,
    label: str,
) -> Fig12Series:
    net = sim.network
    completions = _CompletionsByDomain()
    net.ejection_hooks.append(completions)
    done_by_domain = completions.done
    samples: list[DomainSample] = []
    sim.advance_to(warmup)  # scheduled trojan enables fire at the boundary
    for _ in range(window // sample_every):
        sim.advance_to(net.cycle + sample_every)
        samples.append(_domain_sample(net, net.cycle, done_by_domain))
    return Fig12Series(label, samples)


def _victim_link(cfg: NoCConfig, seed: int) -> LinkKey:
    """The busiest link on xy paths carrying the victim application's
    traffic *to* its primary router (what the attacked flows share)."""
    profile = PROFILES["blackscholes"]
    trace = record_trace(
        AppTraceSource(cfg, profile, seed=seed + 1, duration=300),
        cfg, 300, "victim",
    )
    primary = profile.primary_routers[0][0]
    to_primary = dataclasses.replace(
        trace,
        packets=[
            p for p in trace.packets
            if cfg.router_of_core(p.dst_core) == primary
        ],
    )
    loads = xy_link_loads(cfg, to_primary)
    return max(loads, key=loads.get)


def run(
    cfg: NoCConfig = PAPER_CONFIG,
    warmup: int = 1000,
    window: int = 1500,
    rate_scale: float = 1.5,
    sample_every: int = 50,
    seed: int = 0,
) -> Fig12Result:
    duration = warmup + window
    link = _victim_link(cfg, seed)
    # target: the victim application's flows — packets heading for its
    # primary router on the victim domain's VC, gated to head flits so
    # the comparator does not alias on payload bits
    primary = PROFILES["blackscholes"].primary_routers[0][0]
    target = TargetSpec(dst=primary, vc=2, head_only=True)
    trojan = TrojanSpec(
        link=link, target=target, enabled=False, enable_at=warmup
    )
    policy = TdmPolicy(TdmConfig(num_domains=2), cfg.num_vcs)
    # the victim application is pinned to VC 2 (inside D2's partition),
    # exactly what the trojan's VC comparator targets
    tdm_traffic = _two_apps(
        cfg, duration, seed, rate_scale,
        vcs_d0=tuple(policy.vc_partition(0)),
        vcs_d1=(policy.vc_partition(1)[0],),
    )

    def scenario(name, traffic, trojans, defense) -> Scenario:
        return Scenario(
            name=f"fig12-{name}",
            cfg=cfg,
            traffic=traffic,
            trojans=trojans,
            defense=defense,
            duration=duration,
            sample_interval=0,
            seed=seed,
        )

    # (a) TDM containment
    tdm = _run_one(
        Simulation(
            scenario("tdm", tdm_traffic, (trojan,),
                     DefenseSpec(tdm_domains=2))
        ),
        warmup, window, sample_every, "TDM (two domains) with TASP",
    )

    # (a') TDM without the attack: the non-interference reference
    tdm_baseline = _run_one(
        Simulation(
            scenario("tdm-baseline", tdm_traffic, (),
                     DefenseSpec(tdm_domains=2))
        ),
        warmup, window, sample_every, "TDM, no HT",
    )

    # (b) proposed mitigation, same VC discipline for comparability
    mitigated = _run_one(
        Simulation(
            scenario(
                "mitigated",
                _two_apps(cfg, duration, seed, rate_scale,
                          vcs_d0=(0, 1), vcs_d1=(2,)),
                (trojan,),
                DefenseSpec(mitigated=True),
            )
        ),
        warmup, window, sample_every, "threat detector + s2s L-Ob",
    )

    headline = {
        "tdm_clean_domain_completions": tdm.completions_in_window(0),
        "tdm_clean_domain_baseline": tdm_baseline.completions_in_window(0),
        "tdm_victim_domain_completions": tdm.completions_in_window(1),
        "tdm_victim_domain_baseline": tdm_baseline.completions_in_window(1),
        "tdm_victim_blocked_cores": tdm.final().blocked_cores[1],
        "tdm_clean_blocked_cores": tdm.final().blocked_cores[0],
        "mitigated_clean_completions": mitigated.completions_in_window(0),
        "mitigated_victim_completions": mitigated.completions_in_window(1),
        "mitigated_blocked_cores": sum(mitigated.final().blocked_cores),
    }
    return Fig12Result(
        tdm=tdm,
        tdm_baseline=tdm_baseline,
        mitigated=mitigated,
        enable_cycle=warmup,
        headline=headline,
    )


def format_result(result: Fig12Result) -> str:
    headers = [
        "t(rel)", "D1 buf", "D2 buf", "D1 inj", "D2 inj",
        "D1 blkd", "D2 blkd", "D1 done", "D2 done",
    ]

    def rows_for(series: Fig12Series):
        rows = []
        for s in series.samples:
            rel = s.cycle - result.enable_cycle
            if rel % 250:
                continue
            rows.append([
                rel, s.buffer_util[0], s.buffer_util[1],
                s.injection_util[0], s.injection_util[1],
                s.blocked_cores[0], s.blocked_cores[1],
                s.packets_completed[0], s.packets_completed[1],
            ])
        return rows

    lines = ["Fig. 12 — QoS containment vs proposed mitigation", ""]
    for series in (result.tdm, result.tdm_baseline, result.mitigated):
        lines.append(f"{series.label}:")
        lines.append(format_table(headers, rows_for(series)))
        lines.append("")
    lines.append(
        "headline: " + ", ".join(f"{k}={v}" for k, v in result.headline.items())
    )
    return "\n".join(lines)
