"""Chip-level security telemetry.

Aggregates every per-link threat detector and L-Ob encoder into one
security posture report — what a runtime monitor (or the OS deciding
between L-Ob, rerouting and migration) would consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import LinkVerdict
from repro.core.lob import ObMethod
from repro.noc.network import Network
from repro.noc.topology import LinkKey


@dataclass(frozen=True)
class LinkSecurityStatus:
    """One link's security posture."""

    link: LinkKey
    verdict: LinkVerdict
    faults_observed: int
    obfuscation_successes: int
    bist_scans: int
    #: corrupted traversals seen on the wire (ground truth the monitor
    #: does not have in hardware; exposed for evaluation)
    corrupted_traversals: int


@dataclass(frozen=True)
class SecurityReport:
    """Chip-wide aggregate."""

    links: dict[LinkKey, LinkSecurityStatus]
    obfuscated_sends: dict[ObMethod, int]
    preemptive_sends: int

    @property
    def suspicious_links(self) -> list[LinkKey]:
        return sorted(
            key
            for key, status in self.links.items()
            if status.verdict in (LinkVerdict.TROJAN, LinkVerdict.PERMANENT)
        )

    @property
    def trojan_links(self) -> list[LinkKey]:
        return sorted(
            key
            for key, status in self.links.items()
            if status.verdict is LinkVerdict.TROJAN
        )

    @property
    def permanent_links(self) -> list[LinkKey]:
        return sorted(
            key
            for key, status in self.links.items()
            if status.verdict is LinkVerdict.PERMANENT
        )

    @property
    def total_faults(self) -> int:
        return sum(s.faults_observed for s in self.links.values())

    def summary(self) -> str:
        lines = [
            f"security report: {len(self.links)} monitored links, "
            f"{self.total_faults} faults observed",
        ]
        for key in self.suspicious_links:
            status = self.links[key]
            lines.append(
                f"  link {key[0]:2d}->{key[1].name:5s}: "
                f"{status.verdict.value:9s} "
                f"({status.faults_observed} faults, "
                f"{status.obfuscation_successes} obfuscation successes, "
                f"{status.bist_scans} BIST scans)"
            )
        if not self.suspicious_links:
            lines.append("  no condemned links")
        ob_total = sum(self.obfuscated_sends.values())
        if ob_total:
            methods = ", ".join(
                f"{m.value}={n}"
                for m, n in self.obfuscated_sends.items()
                if n
            )
            lines.append(
                f"  L-Ob traffic: {ob_total} obfuscated sends "
                f"({methods}); {self.preemptive_sends} preemptive"
            )
        return "\n".join(lines)


def security_report(network: Network) -> SecurityReport:
    """Collect the posture of a mitigated network.

    Raises ``ValueError`` when the network has no threat detectors
    (built without :func:`repro.core.build_mitigated_network`).

    This is a thin adapter over
    :func:`repro.obs.collectors.collect_security` — the metrics
    registry is the single source of truth for the security posture,
    and this function merely reshapes one snapshot of it into the
    report dataclasses.
    """
    from repro.obs.collectors import collect_security, parse_link_label

    snapshot = collect_security(network).snapshot()

    def series(name: str) -> list[dict]:
        return snapshot.get(name, {}).get("series", [])

    def per_link(name: str) -> dict[LinkKey, int]:
        return {
            parse_link_label(child["labels"]["link"]): child["value"]
            for child in series(name)
        }

    faults = per_link("detector_faults_observed")
    ob_successes = per_link("detector_obfuscation_successes")
    bist = per_link("detector_bist_scans")
    corrupted = per_link("link_corrupted_traversals")
    verdicts = {
        parse_link_label(child["labels"]["link"]): LinkVerdict(
            child["labels"]["verdict"]
        )
        for child in series("detector_verdict")
    }
    links = {
        key: LinkSecurityStatus(
            link=key,
            verdict=verdict,
            faults_observed=faults[key],
            obfuscation_successes=ob_successes[key],
            bist_scans=bist[key],
            corrupted_traversals=corrupted[key],
        )
        for key, verdict in verdicts.items()
    }
    ob_sends: dict[ObMethod, int] = {m: 0 for m in ObMethod}
    for child in series("lob_obfuscated_sends"):
        ob_sends[ObMethod(child["labels"]["method"])] += child["value"]
    return SecurityReport(
        links=links,
        obfuscated_sends=ob_sends,
        preemptive_sends=sum(
            child["value"] for child in series("lob_preemptive_sends")
        ),
    )
