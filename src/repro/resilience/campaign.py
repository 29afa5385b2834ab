"""Chaos campaign engine: a scenario's faults + invariants + recovery.

A :class:`ChaosCampaign` runs a :class:`CampaignSpec` — a
:class:`~repro.sim.scenario.Scenario` (network, literal traffic,
trojans, transient faults and wire faults, defense stack) plus the
campaign's own policy — through the whole resilience stack:

* the scenario is built and stepped as a
  :class:`~repro.sim.engine.Simulation`, which offers the traffic and
  fires every scheduled fault edge (catch-up semantics, so edges
  survive the clock jump of an epoch change);
* a :class:`repro.core.recovery.RecoveryManager` ledger keeps a
  pristine copy of every packet for end-to-end resubmission;
* a :class:`repro.noc.invariants.NetworkValidator` audits conservation
  laws continuously (violations are *collected*, not raised, so a run
  always produces a report);
* the :class:`repro.resilience.watchdog.RetransWatchdog` escalation
  ladder (``scenario.defense.watchdog``) runs as a network monitor;
  its drop notifications trigger in-place end-to-end resubmission
  (bounded per packet), and its condemnations trigger epoch recovery
  (freeze/drain/reroute/resubmit);
* progress is tracked independently of delivery (watchdog and recovery
  activity counts), so a campaign distinguishes "slow" from
  "deadlocked".

A campaign steps every cycle, since it acts on the watchdog after each
step, so it reads the same under either engine.  The outcome is a
structured :class:`CampaignReport`.  The helpers at the end build
campaign scenarios: :func:`targeted_stream` and
:func:`uniform_traffic` packet schedules, and the :func:`random_events`
fuzz generator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.reroute import UnroutableError
from repro.core.recovery import RecoveryManager
from repro.core.targets import TargetSpec
from repro.core.tasp import TaspConfig
from repro.ecc import SECDED_72_64
from repro.faults.models import StuckAtKind
from repro.noc.config import NoCConfig
from repro.noc.invariants import NetworkValidator, ValidationReport
from repro.noc.network import Network
from repro.noc.topology import LinkKey, all_links
from repro.sim.engine import Simulation, make_packet
from repro.sim.scenario import (
    FAULT_FIELDS,
    DropAttackSpec,
    ExplicitTraffic,
    LinkKillSpec,
    PacketSpec,
    Scenario,
    StuckAtSpec,
    TransientFaultSpec,
    TrojanSpec,
)
from repro.sim.shrink import greedy_min_subset
from repro.util.rng import SeededStream

#: report-label prefix of each fault spec
_LABELS = {
    TrojanSpec: "tasp",
    DropAttackSpec: "grayhole",
    TransientFaultSpec: "burst",
    StuckAtSpec: "stuck",
    LinkKillSpec: "kill",
}


def _label(spec) -> str:
    """``tasp@0-EAST``-style label of one fault spec."""
    router, direction = spec.link
    return f"{_LABELS[type(spec)]}@{router}-{direction.name}"


def _faults(scenario: Scenario) -> list[tuple[str, object]]:
    """(field name, spec) of every injected fault, in field order."""
    return [(name, spec) for name in FAULT_FIELDS
            for spec in getattr(scenario, name)]


def _window(spec) -> tuple[int, Optional[int]]:
    """(onset, end) cycles of one fault spec; always-on ones from 0."""
    if isinstance(spec, (StuckAtSpec, LinkKillSpec)):
        return spec.at, None
    return spec.enable_at or 0, spec.disable_at


@dataclass(frozen=True)
class CampaignSpec:
    """One chaos campaign: a scenario plus the campaign's own policy.

    The scenario's traffic must be :class:`ExplicitTraffic` (the
    recovery ledger resubmits literal packets) and its ``max_cycles``
    is the campaign's hard cycle budget; ``duration`` and
    ``stall_limit`` do not apply.
    """

    scenario: Scenario
    #: invariant audit period (cycles)
    validate_every: int = 5
    #: end-to-end resubmissions allowed per offered packet
    resubmit_cap: int = 3
    #: no progress of any kind for this many cycles => deadlocked
    deadlock_window: int = 1000
    #: epoch-recovery parameters (see RecoveryManager.recover)
    recovery_drain_limit: int = 1500
    recovery_stall_limit: int = 300
    reconfiguration_cycles: int = 64
    #: after a failing run, delta-debug the scenario's faults to find
    #: which minimally explain the failure (costs extra runs)
    explain_violations: bool = False
    #: campaign re-run budget for that explanation
    explain_budget: int = 32

    def __post_init__(self) -> None:
        for traffic in self.scenario.traffic:
            if not isinstance(traffic, ExplicitTraffic):
                raise ValueError(
                    "campaign traffic must be ExplicitTraffic: the "
                    "recovery ledger resubmits literal packets"
                )


@dataclass(frozen=True)
class CampaignReport:
    """Structured outcome of one campaign run."""

    name: str
    seed: int
    cycles: int
    epochs: int
    deadlocked: bool
    drained: bool
    watchdog_enabled: bool
    # -- delivery accounting (ledger view: aliases fold into originals)
    packets_offered: int
    packets_delivered: int
    packets_failed: int
    #: offered packets with more than one complete delivery (must be 0)
    duplicate_deliveries: int
    resubmissions: int
    packets_dropped: int
    flits_degraded: int
    # -- ladder activity
    backoffs: int
    obfuscations_forced: int
    condemned_links: tuple[LinkKey, ...]
    recovery_cycles: tuple[int, ...]
    escalation_stages: tuple[str, ...]
    first_fault_cycle: Optional[int]
    first_escalation_cycle: Optional[int]
    # -- ground truth + audit
    faults_injected: int
    corrupted_traversals: int
    invariant_checks: int
    violations: tuple[str, ...]
    #: labels of the minimal injected-event subset that still produces
    #: this failure (empty unless explain_violations found one)
    minimal_events: tuple[str, ...] = ()
    #: deterministic metrics-registry snapshot of the campaign counters
    #: (:func:`repro.obs.collectors.campaign_metrics`); counter-valued
    #: only, so identical runs embed byte-identical metrics
    metrics: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Did this run exhibit a failure worth explaining?"""
        return self.deadlocked or bool(self.violations)

    @property
    def delivered_all(self) -> bool:
        return self.packets_failed == 0

    @property
    def time_to_detect(self) -> Optional[int]:
        """Cycles from first fault onset to first ladder action."""
        if self.first_fault_cycle is None or self.first_escalation_cycle is None:
            return None
        return self.first_escalation_cycle - self.first_fault_cycle

    @property
    def time_to_recover(self) -> Optional[int]:
        """Cycles from first fault onset to the last epoch change."""
        if self.first_fault_cycle is None or not self.recovery_cycles:
            return None
        return self.recovery_cycles[-1] - self.first_fault_cycle

    def summary(self) -> str:
        lines = [
            f"campaign {self.name!r} (seed {self.seed}): "
            f"{self.cycles} cycles, {self.epochs} epoch(s), "
            f"{'DEADLOCKED' if self.deadlocked else 'live'}",
            f"  delivery: {self.packets_delivered}/{self.packets_offered} "
            f"delivered, {self.packets_failed} failed, "
            f"{self.resubmissions} resubmitted end-to-end",
            f"  ladder: {self.backoffs} backoffs, "
            f"{self.obfuscations_forced} obfuscation escalations, "
            f"{self.packets_dropped} packet drops "
            f"({self.flits_degraded} flits), "
            f"{len(self.condemned_links)} link(s) condemned",
            f"  faults: {self.faults_injected} injected, "
            f"{self.corrupted_traversals} corrupted traversals",
            f"  audit: {self.invariant_checks} invariant checks, "
            f"{len(self.violations)} violations",
        ]
        if self.time_to_detect is not None:
            lines.append(
                f"  time-to-detect: {self.time_to_detect} cycles"
                + (
                    f", time-to-recover: {self.time_to_recover} cycles"
                    if self.time_to_recover is not None
                    else ""
                )
            )
        if self.escalation_stages:
            lines.append(
                "  escalation: " + " -> ".join(self.escalation_stages)
            )
        if self.minimal_events:
            lines.append(
                "  minimal cause: " + " + ".join(self.minimal_events)
            )
        return "\n".join(lines)


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Execute one campaign: ``ChaosCampaign(spec).run()``.

    A module-level entry point, so supervised runners can hand a
    ``(run_campaign, (spec,))`` pair to a worker process without
    wrapping the campaign object themselves.

    With ``spec.explain_violations`` set, a failing run is followed by
    :func:`minimal_explaining_events` and the report carries the
    minimal fault subset as ``minimal_events``.
    """
    report = ChaosCampaign(spec).run()
    if (
        spec.explain_violations
        and report.failed
        and _faults(spec.scenario)
    ):
        report = dataclasses.replace(
            report,
            minimal_events=minimal_explaining_events(
                spec, report, max_runs=spec.explain_budget
            ),
        )
    return report


def minimal_explaining_events(
    spec: CampaignSpec,
    report: CampaignReport,
    *,
    max_runs: int = 32,
) -> tuple[str, ...]:
    """Labels of a 1-minimal fault subset that still reproduces the
    campaign's failure mode.

    Delta-debugs the scenario's fault specs (trojans, attacks,
    transient faults, wire faults) with
    :func:`repro.sim.shrink.greedy_min_subset`, re-running the campaign
    on candidate subsets and keeping removals under which the run still
    *fails the same way*: an invariant-violating run must keep
    violating, a deadlocked run must keep deadlocking.  The specs are
    frozen values, so every re-run builds its fault models fresh.  At
    most ``max_runs`` re-runs are spent; if the budget runs dry the
    smallest subset found so far is returned (still failing, possibly
    not minimal).  Returns ``()`` when the original run didn't fail.
    """
    if not report.failed:
        return ()

    def failed_same_way(candidate: CampaignReport) -> bool:
        if report.violations:
            return bool(candidate.violations)
        return candidate.deadlocked

    runs = 0

    def still_fails(items: list) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False  # budget dry: accept no further removals
        runs += 1
        scenario = dataclasses.replace(
            spec.scenario,
            **{
                name: tuple(s for owner, s in items if owner == name)
                for name in FAULT_FIELDS
            },
        )
        candidate = dataclasses.replace(
            spec, scenario=scenario, explain_violations=False
        )
        return failed_same_way(ChaosCampaign(candidate).run())

    kept = greedy_min_subset(_faults(spec.scenario), still_fails)
    return tuple(_label(s) for _, s in kept)


class ChaosCampaign:
    """Executes one :class:`CampaignSpec`."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec

    def run(self) -> CampaignReport:
        spec = self.spec
        scenario = spec.scenario
        sim = Simulation(scenario)
        net = sim.network
        packets = sorted(
            (p for traffic in scenario.traffic for p in traffic.packets),
            key=lambda p: p.inject_at,
        )
        manager = RecoveryManager(net, [make_packet(p) for p in packets])
        validator = NetworkValidator(net)
        watchdog = sim.watchdog
        # finished epochs' networks and audits, folded into the report
        retired: list[Network] = []
        audits: list[ValidationReport] = []

        # resubmission bookkeeping: alias -> ledger original, and the
        # latest live attempt per original (stale drop notices ignored)
        family: dict[int, int] = {}
        latest: dict[int, int] = {}
        resubmit_count: dict[int, int] = {}

        condemned_all: list[LinkKey] = []
        recovery_cycles: list[int] = []
        deadlocked = False
        last_progress_cycle = net.cycle
        progress_sig: tuple = ()

        windows = [_window(s) for _, s in _faults(scenario)]
        horizon = max(
            [p.inject_at for p in packets]
            + [end or onset for onset, end in windows]
            + [0]
        )
        end_cycle = net.cycle + scenario.max_cycles

        while net.cycle < end_cycle:
            cycle = net.cycle
            sim.step()

            if spec.validate_every and cycle % spec.validate_every == 0:
                validator.check(raise_on_violation=False)

            if watchdog is not None:
                # drop-with-notify -> bounded end-to-end resubmission
                for drop in watchdog.take_dropped():
                    original = family.get(drop.pkt_id, drop.pkt_id)
                    if not manager.has(original):
                        continue
                    if drop.pkt_id != latest.get(original, original):
                        continue  # stale attempt
                    if resubmit_count.get(original, 0) >= spec.resubmit_cap:
                        continue  # give up: stays on the failed list
                    alias = manager.resubmit(original)
                    family[alias] = original
                    latest[original] = alias
                    resubmit_count[original] = (
                        resubmit_count.get(original, 0) + 1
                    )

                # condemnation -> epoch recovery
                freshly_condemned = watchdog.take_condemned()
                if freshly_condemned:
                    condemned_all.extend(
                        k for k in freshly_condemned
                        if k not in condemned_all
                    )
                    old = net
                    try:
                        net = manager.recover(
                            condemned_all,
                            drain_limit=spec.recovery_drain_limit,
                            stall_limit=spec.recovery_stall_limit,
                            reconfiguration_cycles=(
                                spec.reconfiguration_cycles
                            ),
                        )
                    except UnroutableError:
                        # cannot reroute around this set; carry on in
                        # the degraded epoch
                        pass
                    else:
                        sim.network = net
                        if sim.obs is not None:
                            # so the run's stream covers every epoch
                            sim.obs.attach_network(net, sim.obs_run)
                        retired.append(old)
                        recovery_cycles.append(net.cycle)
                        audits.append(validator.report)
                        validator = NetworkValidator(net)
                        watchdog.attach(net)
                        # the new epoch restarts every undelivered
                        # packet under its original id: reset the
                        # attempt tracking and flush drop notices from
                        # the drained epoch (drop-only mode keeps
                        # purging condemned links during the drain;
                        # resubmitting those now-restarted packets
                        # again would deliver them twice)
                        watchdog.take_dropped()
                        latest.clear()
                        last_progress_cycle = net.cycle

            # progress = deliveries, drops, or ladder/recovery activity
            sig = (
                net.stats.flits_ejected,
                net.stats.dropped_flits,
                len(retired),
                watchdog.activity if watchdog is not None else 0,
            )
            if sig != progress_sig:
                progress_sig = sig
                last_progress_cycle = net.cycle
            elif net.cycle - last_progress_cycle > spec.deadlock_window:
                deadlocked = True
                break

            # early exit once the schedule is exhausted and all is quiet
            # (a drained network has emitted all of its traffic)
            if (
                cycle > horizon
                and net.drained
                and not manager.undelivered()
            ):
                break

        validator.check(raise_on_violation=False)
        audits.append(validator.report)
        epochs = [*retired, net]
        undelivered = manager.undelivered()
        transient = len(scenario.faults)

        report = CampaignReport(
            name=scenario.name,
            seed=scenario.seed,
            cycles=net.cycle,
            epochs=len(epochs),
            deadlocked=deadlocked,
            drained=net.drained,
            watchdog_enabled=watchdog is not None,
            packets_offered=manager.offered,
            packets_delivered=manager.delivered,
            packets_failed=len(undelivered),
            duplicate_deliveries=manager.duplicate_deliveries(),
            resubmissions=sum(n.stats.packets_resubmitted for n in epochs)
            + sum(r.packets_resubmitted for r in manager.reports),
            packets_dropped=(
                watchdog.packets_dropped if watchdog is not None else 0
            ),
            flits_degraded=sum(n.stats.degraded_flits for n in epochs),
            backoffs=(
                watchdog.backoffs_applied if watchdog is not None else 0
            ),
            obfuscations_forced=(
                watchdog.obfuscations_forced if watchdog is not None else 0
            ),
            condemned_links=tuple(condemned_all),
            recovery_cycles=tuple(recovery_cycles),
            escalation_stages=(
                watchdog.stages_taken() if watchdog is not None else ()
            ),
            first_fault_cycle=(
                min(onset for onset, _ in windows) if windows else None
            ),
            first_escalation_cycle=(
                watchdog.first_event_cycle if watchdog is not None else None
            ),
            faults_injected=sum(t.faults_injected for t in sim.trojans)
            + sum(a.events for a in sim.attacks)
            + sum(m.events for m in sim.faults[:transient])
            + sum(m.activations for m in sim.faults[transient:]),
            corrupted_traversals=sum(
                link.corrupted_traversals
                for n in epochs
                for link in n.links.values()
            ),
            invariant_checks=sum(audit.checks for audit in audits),
            violations=tuple(v for audit in audits for v in audit.violations),
        )
        if sim.obs is not None:
            # close this run's series window so the next simulation
            # observed by the same (ambient) bundle may start at cycle 0
            sim.obs.finalize(sim)
        from repro.obs.collectors import campaign_metrics

        return dataclasses.replace(
            report, metrics=campaign_metrics(report)
        )


# -- campaign scenarios ----------------------------------------------------

def targeted_stream(
    cfg: NoCConfig,
    src_core: int,
    dst_core: int,
    count: int,
    start: int = 0,
    interval: int = 6,
    payload_flits: int = 3,
    base_id: int = 0,
    seed: int = 0,
) -> tuple[PacketSpec, ...]:
    """A steady victim flow from one core to another."""
    stream = SeededStream(seed, "targeted", src_core, dst_core)
    return tuple(
        PacketSpec(
            pkt_id=base_id + i,
            src_core=src_core,
            dst_core=dst_core,
            inject_at=start + i * interval,
            payload=tuple(stream.bits(60) for _ in range(payload_flits)),
        )
        for i in range(count)
    )


def uniform_traffic(
    cfg: NoCConfig,
    seed: int,
    count: int,
    start: int = 0,
    interval: int = 3,
    payload_flits: int = 3,
    base_id: int = 10_000,
) -> tuple[PacketSpec, ...]:
    """Uniform-random background pairs (src != dst)."""
    stream = SeededStream(seed, "uniform-traffic")
    schedule = []
    for i in range(count):
        src = stream.randint(0, cfg.num_cores - 1)
        dst = stream.randint(0, cfg.num_cores - 1)
        while dst == src:
            dst = stream.randint(0, cfg.num_cores - 1)
        schedule.append(
            PacketSpec(
                pkt_id=base_id + i,
                src_core=src,
                dst_core=dst,
                inject_at=start + i * interval,
                payload=tuple(stream.bits(60) for _ in range(payload_flits)),
            )
        )
    return tuple(schedule)


def random_events(
    cfg: NoCConfig,
    seed: int,
    *,
    horizon: int = 400,
    max_events: int = 4,
) -> dict[str, tuple]:
    """A seeded composition of transient bursts, stuck-at onsets,
    trojan activations and link kills on a couple of links — the
    fuzz-campaign generator.

    Returns the ``trojans``, ``faults`` and ``wire_faults`` fields of a
    :class:`Scenario`, each in onset order.
    """
    stream = SeededStream(seed, "random-scenario")
    links = all_links(cfg)
    stream.shuffle(links)
    victims = links[: max(1, min(2, len(links)))]
    events: list[tuple[int, object]] = []
    count = stream.randint(2, max_events)
    for i in range(count):
        link = victims[stream.randint(0, len(victims) - 1)]
        onset = stream.randint(10, horizon // 2)
        kind = stream.weighted_choice(
            [0, 1, 2, 3], [0.35, 0.3, 0.25, 0.1]
        )
        if kind == 0:
            duration = stream.randint(40, horizon // 2)
            spec = TransientFaultSpec(
                link=link,
                rate=0.01 + 0.04 * stream.random(),
                double_fraction=0.2 + 0.3 * stream.random(),
                seed=seed * 1000 + i,
                labels=("burst", link[0], link[1].name, onset),
                enable_at=onset,
                disable_at=onset + duration,
            )
        elif kind == 1:
            spec = StuckAtSpec(
                link=link,
                at=onset,
                positions=(stream.randint(0, SECDED_72_64.codeword_bits - 1),),
                value=(
                    StuckAtKind.ONE if stream.chance(0.5) else StuckAtKind.ZERO
                ),
            )
        elif kind == 2:
            dst_router = stream.randint(0, cfg.num_routers - 1)
            # a fifth of trojans never deassert their kill switch
            duration = (
                None
                if stream.chance(0.2)
                else stream.randint(60, horizon // 2)
            )
            spec = TrojanSpec(
                link=link,
                target=TargetSpec.for_dest(dst_router),
                config=dataclasses.replace(TaspConfig(), seed=seed + i),
                enabled=False,
                enable_at=onset,
                disable_at=None if duration is None else onset + duration,
            )
        else:
            spec = LinkKillSpec(link=link, at=onset)
        events.append((onset, spec))
    events.sort(key=lambda event: event[0])
    fields = {
        "trojans": TrojanSpec,
        "faults": TransientFaultSpec,
        "wire_faults": (StuckAtSpec, LinkKillSpec),
    }
    return {
        name: tuple(spec for _, spec in events if isinstance(spec, cls))
        for name, cls in fields.items()
    }
