"""Chaos campaign experiment: the resilience ladder end to end.

Three campaigns over the paper's 4x4 CMesh, all driving the same
victim flow (core 0 -> core 63 through the infected (0, EAST) link)
plus uniform background traffic:

* **ladder** — mitigated network, delayed TASP activation, then a
  catastrophic link kill that obfuscation cannot dodge.  The watchdog
  must walk the full escalation ladder (backoff -> forced L-Ob ->
  drop-with-notify -> condemn) and hand the link to epoch recovery;
  every packet must still be delivered exactly once.
* **no-watchdog** — the same TASP attack on a baseline network with
  the watchdog disabled: the paper's deadlock reproduction (graceful
  degradation is strictly opt-in).  A harmless soft-error burst rides
  along and the campaign's explanation pass
  (:func:`repro.resilience.campaign.minimal_explaining_events`)
  delta-debugs the scenario's faults, reporting that the TASP
  activation alone explains the deadlock.
* **bare-watchdog** — the TASP attack on a baseline network *with*
  the watchdog but no L-Ob rung available: survival must come from
  bounded retries, packet drops and rerouting recovery alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.targets import TargetSpec
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.noc.topology import Direction
from repro.resilience.campaign import (
    CampaignReport,
    CampaignSpec,
    run_campaign,
    targeted_stream,
    uniform_traffic,
)
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.scenario import (
    DefenseSpec,
    ExplicitTraffic,
    LinkKillSpec,
    Scenario,
    TransientFaultSpec,
    TrojanSpec,
)

#: the infected link and the flow TASP hunts (paper Fig. 1 setup)
ATTACK_LINK = (0, Direction.EAST)
TARGET_ROUTER = 15
VICTIM_SRC, VICTIM_DST = 0, 63


@dataclass(frozen=True)
class ChaosResult:
    ladder: CampaignReport
    no_watchdog: CampaignReport
    bare_watchdog: CampaignReport


def _traffic(cfg: NoCConfig, heavy: bool) -> tuple[ExplicitTraffic]:
    if heavy:
        packets = targeted_stream(
            cfg, VICTIM_SRC, VICTIM_DST, 40, interval=4
        ) + uniform_traffic(cfg, 1, 60, interval=2)
    else:
        packets = targeted_stream(
            cfg, VICTIM_SRC, VICTIM_DST, 10, interval=10
        ) + uniform_traffic(cfg, 1, 24, interval=6)
    return (ExplicitTraffic(packets=packets),)


def _tasp(at: int) -> TrojanSpec:
    """The TASP instance implanted dormant, asserting its kill switch
    at ``at``."""
    return TrojanSpec(
        link=ATTACK_LINK,
        target=TargetSpec.for_dest(TARGET_ROUTER),
        enabled=False,
        enable_at=at,
    )


def campaigns(cfg: NoCConfig = PAPER_CONFIG) -> tuple[CampaignSpec, ...]:
    """The ladder, no-watchdog and bare-watchdog campaigns."""
    ladder = CampaignSpec(
        Scenario(
            name="ladder",
            cfg=cfg,
            traffic=_traffic(cfg, heavy=False),
            trojans=(_tasp(20),),
            wire_faults=(LinkKillSpec(link=ATTACK_LINK, at=60),),
            defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
            max_cycles=6000,
        )
    )
    no_watchdog = CampaignSpec(
        Scenario(
            name="no-watchdog",
            cfg=cfg,
            traffic=_traffic(cfg, heavy=True),
            trojans=(_tasp(10),),
            faults=(
                # a correctable soft-error burst far from the attack:
                # the explanation pass must rule it out as a cause
                TransientFaultSpec(
                    link=(10, Direction.EAST), rate=0.02,
                    labels=("burst", 10, "EAST", 30),
                    enable_at=30, disable_at=230,
                ),
            ),
            max_cycles=2500,
        ),
        deadlock_window=400,
        explain_violations=True,
    )
    bare_watchdog = CampaignSpec(
        Scenario(
            name="bare-watchdog",
            cfg=cfg,
            traffic=_traffic(cfg, heavy=True),
            trojans=(_tasp(10),),
            defense=DefenseSpec(watchdog=WatchdogConfig()),
            max_cycles=8000,
        )
    )
    return ladder, no_watchdog, bare_watchdog


def run(cfg: NoCConfig = PAPER_CONFIG) -> ChaosResult:
    return ChaosResult(*(run_campaign(spec) for spec in campaigns(cfg)))


def format_result(result: ChaosResult) -> str:
    from repro.experiments.common import format_table

    rows = []
    for report in (result.ladder, result.no_watchdog, result.bare_watchdog):
        rows.append(
            [
                report.name,
                "deadlock" if report.deadlocked else "live",
                f"{report.packets_delivered}/{report.packets_offered}",
                report.resubmissions,
                report.packets_dropped,
                len(report.condemned_links),
                report.epochs,
                len(report.violations),
            ]
        )
    table = format_table(
        [
            "campaign", "outcome", "delivered", "resubmits",
            "drops", "condemned", "epochs", "violations",
        ],
        rows,
    )
    details = "\n\n".join(
        r.summary()
        for r in (result.ladder, result.no_watchdog, result.bare_watchdog)
    )
    return (
        "chaos campaigns (TASP on link 0->EAST, victim flow 0 -> 63)\n\n"
        f"{table}\n\n{details}"
    )


if __name__ == "__main__":  # pragma: no cover
    print(format_result(run()))
