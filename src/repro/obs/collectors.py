"""Scrape live simulator components into a metrics registry.

The simulator's components already count everything the paper's
evaluation needs — ECC receivers, threat detectors, L-Ob encoders,
links, the watchdog ladder, :class:`~repro.noc.stats.NetworkStats`.
Those counters are the one statistics core: the collectors here copy
them into labelled registry series with one naming scheme, so
exporters and the runner's ``metrics`` section read the same numbers
from the same place.

Link labels use the same ``"<router>-><DIRECTION>"`` spelling as
:mod:`repro.experiments.export` flattens link-key dict keys to, and
:func:`parse_link_label` inverts it — so a reader of a metrics
snapshot recovers the original keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.noc.topology import Direction, LinkKey
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


def link_label(key: LinkKey) -> str:
    return f"{key[0]}->{key[1].name}"


def parse_link_label(label: str) -> LinkKey:
    router, _, direction = label.partition("->")
    return (int(router), Direction[direction])


def _run_labels(run: Optional[str]) -> dict:
    return {"run": run} if run is not None else {}


# ---------------------------------------------------------------------------
# security posture: detector verdicts, L-Ob sends, link traversals
# ---------------------------------------------------------------------------
def collect_security(
    network: "Network",
    registry: Optional[MetricsRegistry] = None,
    run: Optional[str] = None,
) -> MetricsRegistry:
    """Scrape detector / L-Ob / link state of a mitigated network.

    Raises ``ValueError`` when the network has no threat detectors
    (built without :func:`repro.core.build_mitigated_network`).
    """
    from repro.core.mitigation import DetectingReceiver

    registry = registry if registry is not None else MetricsRegistry()
    extra = _run_labels(run)
    saw_detector = False
    for key, link in network.links.items():
        receiver = network.receiver_of(key)
        if not isinstance(receiver, DetectingReceiver):
            continue
        saw_detector = True
        label = link_label(key)
        detector = receiver.detector
        registry.gauge(
            "detector_faults_observed",
            "faults the link's threat detector observed",
            link=label, **extra,
        ).set(detector.faults_observed)
        registry.gauge(
            "detector_obfuscation_successes",
            "retransmissions that succeeded because L-Ob was engaged",
            link=label, **extra,
        ).set(detector.obfuscation_successes)
        registry.gauge(
            "detector_bist_scans",
            "BIST scans the detector requested on the link",
            link=label, **extra,
        ).set(detector.bist_scans)
        registry.gauge(
            "detector_transient_resolutions",
            "faults resolved by plain retransmission (transient noise)",
            link=label, **extra,
        ).set(detector.transient_resolutions)
        registry.gauge(
            "detector_verdict",
            "1 for the link's current verdict label",
            link=label, verdict=detector.verdict.value, **extra,
        ).set(1)
        registry.gauge(
            "link_corrupted_traversals",
            "ground-truth corrupted traversals on the wire",
            link=label, **extra,
        ).set(link.corrupted_traversals)
        registry.gauge(
            "link_traversals",
            "codewords launched onto the link",
            link=label, **extra,
        ).set(link.traversals)
        lob = network.output_port_of(key).lob
        if lob is not None:
            for method, count in lob.obfuscated_sends.items():
                registry.gauge(
                    "lob_obfuscated_sends",
                    "obfuscated launches per L-Ob method",
                    link=label, method=method.value, **extra,
                ).set(count)
            registry.gauge(
                "lob_preemptive_sends",
                "launches obfuscated preemptively (suspicious link)",
                link=label, **extra,
            ).set(lob.preemptive_sends)
    if not saw_detector:
        raise ValueError(
            "network has no threat detectors; build it with "
            "build_mitigated_network()"
        )
    return registry


# ---------------------------------------------------------------------------
# receive pipeline / ECC / retransmission state (any network)
# ---------------------------------------------------------------------------
def collect_links(
    network: "Network",
    registry: MetricsRegistry,
    run: Optional[str] = None,
) -> None:
    """Per-link receive-pipeline, retransmission-buffer and corrupted
    traversal series."""
    extra = _run_labels(run)
    for key, link in network.links.items():
        label = link_label(key)
        if link.corrupted_traversals:
            registry.gauge(
                "link_corrupted_traversals",
                "ground-truth corrupted traversals on the wire",
                link=label, **extra,
            ).set(link.corrupted_traversals)
        receiver = network.receiver_of(key)
        values = {
            "ecc_flits_accepted": receiver.flits_accepted,
            "ecc_flits_corrected": receiver.flits_corrected,
            "ecc_faults_detected": receiver.faults_detected,
            "ecc_nacks_sent": receiver.nacks_sent,
            "ecc_deob_stall_cycles": receiver.deob_stall_cycles,
            "ecc_flits_discarded": receiver.flits_discarded,
        }
        for name, value in values.items():
            if value:
                registry.gauge(name, link=label, **extra).set(value)
        occupancy = network.output_port_of(key).retrans.occupancy
        if occupancy:
            registry.gauge(
                "retrans_occupancy",
                "retransmission-buffer slots held (back-pressure)",
                link=label, **extra,
            ).set(occupancy)
        if link.disabled:
            registry.gauge(
                "link_disabled", link=label, **extra
            ).set(1)


def collect_stats(
    stats,
    registry: MetricsRegistry,
    run: Optional[str] = None,
) -> None:
    """Chip-wide NetworkStats aggregates as ``stats_*`` gauges, plus
    the packet latency histogram over completed packets."""
    extra = _run_labels(run)
    for name, value in stats.summary().items():
        if value is None:
            continue
        registry.gauge(f"stats_{name}", **extra).set(value)
    latency = registry.histogram(
        "packet_total_latency_cycles",
        "creation-to-ejection latency of completed packets",
        **extra,
    )
    for record in stats.completed_records():
        latency.observe(record.total_latency)


def collect_watchdog(
    watchdog,
    registry: MetricsRegistry,
    run: Optional[str] = None,
) -> None:
    if watchdog is None:
        return
    extra = _run_labels(run)
    registry.gauge(
        "watchdog_backoffs", "escalation ladder: backoffs applied",
        **extra,
    ).set(watchdog.backoffs_applied)
    registry.gauge(
        "watchdog_obfuscations", "escalation ladder: forced L-Ob",
        **extra,
    ).set(watchdog.obfuscations_forced)
    registry.gauge(
        "watchdog_drops", "escalation ladder: packets dropped",
        **extra,
    ).set(watchdog.packets_dropped)
    registry.gauge(
        "watchdog_condemned", "escalation ladder: links condemned",
        **extra,
    ).set(watchdog.links_condemned)


def collect_containment(
    containment,
    registry: MetricsRegistry,
    run: Optional[str] = None,
) -> None:
    """Containment coordinator posture: reroutes, refusals, seals,
    quarantines, gate pressure and per-link time-to-contain."""
    if containment is None:
        return
    extra = _run_labels(run)
    gauges = {
        "containment_links_rerouted": containment.links_rerouted,
        "containment_links_refused": containment.links_refused,
        "containment_links_sealed": containment.links_sealed,
        "containment_quarantines": containment.quarantines,
        "containment_actions_allowed": containment.actions_allowed,
        "containment_actions_denied": containment.actions_denied,
        "containment_partition_risks": len(containment.partition_risks),
    }
    for name, value in gauges.items():
        registry.gauge(name, **extra).set(value)
    for key, cycles in containment.time_to_contain.items():
        registry.gauge(
            "containment_time_to_contain",
            "cycles from a link's first ladder action to containment",
            link=link_label(key), **extra,
        ).set(cycles)


def collect_trojans(
    trojans,
    registry: MetricsRegistry,
    run: Optional[str] = None,
) -> None:
    """Ground-truth attack-side counters (evaluation only: a real chip
    cannot read its trojan's internals)."""
    extra = _run_labels(run)
    for index, trojan in enumerate(trojans):
        labels = {"trojan": str(index), **extra}
        registry.gauge(
            "trojan_flits_inspected",
            "flits the trojan's comparator examined",
            **labels,
        ).set(trojan.flits_inspected)
        registry.gauge(
            "trojan_triggers", "payload activations", **labels
        ).set(trojan.triggers)
        registry.gauge(
            "trojan_faults_injected", "codewords tampered", **labels
        ).set(trojan.faults_injected)


def collect_simulation(sim, registry: MetricsRegistry, run: str) -> None:
    """Final scrape of one finished (or failed) simulation under its
    ``run`` label."""
    net = sim.network
    registry.gauge("sim_cycles", "network clock at scrape", run=run).set(
        net.cycle
    )
    collect_stats(net.stats, registry, run=run)
    collect_links(net, registry, run=run)
    collect_watchdog(sim.watchdog, registry, run=run)
    collect_containment(
        getattr(sim, "containment", None), registry, run=run
    )
    collect_trojans(sim.trojans, registry, run=run)
    if sim.sentinel is not None:
        registry.gauge(
            "sentinel_checks", "sentinel audit rounds", run=run
        ).set(sim.sentinel.checks)
    try:
        collect_security(net, registry, run=run)
    except ValueError:
        pass  # baseline network: no detectors to scrape


# ---------------------------------------------------------------------------
# chaos campaigns
# ---------------------------------------------------------------------------
def campaign_metrics(report) -> dict:
    """A deterministic metrics snapshot derived from a
    :class:`~repro.resilience.campaign.CampaignReport`.

    Counter-valued only (no wall-clock), so two identical campaign runs
    embed byte-identical metrics — the CI resume job byte-compares the
    chaos experiment's JSON output.
    """
    registry = MetricsRegistry()
    run = report.name
    gauges = {
        "campaign_cycles": report.cycles,
        "campaign_epochs": report.epochs,
        "campaign_deadlocked": int(report.deadlocked),
        "campaign_packets_offered": report.packets_offered,
        "campaign_packets_delivered": report.packets_delivered,
        "campaign_packets_failed": report.packets_failed,
        "campaign_resubmissions": report.resubmissions,
        "campaign_packets_dropped": report.packets_dropped,
        "campaign_flits_degraded": report.flits_degraded,
        "campaign_backoffs": report.backoffs,
        "campaign_obfuscations_forced": report.obfuscations_forced,
        "campaign_faults_injected": report.faults_injected,
        "campaign_corrupted_traversals": report.corrupted_traversals,
        "campaign_invariant_checks": report.invariant_checks,
        "campaign_violations": len(report.violations),
    }
    for name, value in gauges.items():
        registry.gauge(name, run=run).set(value)
    for key in report.condemned_links:
        registry.gauge(
            "campaign_condemned_link", run=run, link=link_label(key)
        ).set(1)
    return registry.snapshot()
