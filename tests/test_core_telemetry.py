"""Chip-level security posture, read from the security collector.

``collect_security`` scrapes every per-link threat detector and L-Ob
encoder of a mitigated network into one registry snapshot; these tests
read verdicts and send totals back out of it.
"""

import pytest

from repro.core import (
    LinkVerdict,
    TargetSpec,
    TaspTrojan,
    build_mitigated_network,
)
from repro.faults import PermanentFault, StuckAtKind
from repro.noc import Network, Packet, PAPER_CONFIG
from repro.noc.topology import Direction
from repro.obs.collectors import collect_security, parse_link_label


def attack_and_run(net, count=15):
    for pid in range(count):
        net.add_packet(
            Packet(pkt_id=pid, src_core=0, dst_core=63, vc_class=pid % 4,
                   mem_addr=0x11, payload=[0xEE], created_cycle=0)
        )
    net.run_until_drained(8000, stall_limit=2000)


def series(snapshot, name):
    return snapshot.get(name, {}).get("series", [])


def per_link(snapshot, name):
    return {
        parse_link_label(child["labels"]["link"]): child["value"]
        for child in series(snapshot, name)
    }


def verdicts(snapshot):
    return {
        parse_link_label(child["labels"]["link"]): LinkVerdict(
            child["labels"]["verdict"]
        )
        for child in series(snapshot, "detector_verdict")
    }


def links_judged(snapshot, *judged):
    return sorted(
        key for key, verdict in verdicts(snapshot).items()
        if verdict in judged
    )


def suspects(snapshot):
    return links_judged(snapshot, LinkVerdict.TROJAN, LinkVerdict.PERMANENT)


class TestSecurityReport:
    def test_clean_network_reports_no_suspects(self):
        net = build_mitigated_network(PAPER_CONFIG)
        attack_and_run(net)
        snapshot = collect_security(net).snapshot()
        assert len(verdicts(snapshot)) == 48
        assert suspects(snapshot) == []

    def test_trojan_link_identified(self):
        net = build_mitigated_network(PAPER_CONFIG)
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        attack_and_run(net)
        snapshot = collect_security(net).snapshot()
        assert links_judged(snapshot, LinkVerdict.TROJAN) == [
            (0, Direction.EAST)
        ]
        assert links_judged(snapshot, LinkVerdict.PERMANENT) == []
        corrupted = per_link(snapshot, "link_corrupted_traversals")
        assert corrupted[(0, Direction.EAST)] > 0
        assert sum(per_link(snapshot, "detector_faults_observed").values()) > 0

    def test_permanent_link_identified(self):
        net = build_mitigated_network(PAPER_CONFIG)
        # stuck wires chosen against a real codeword
        flit = Packet(pkt_id=0, src_core=0, dst_core=63).build_flits(
            PAPER_CONFIG
        )[0]
        cw = net.codec.encode(flit.data)
        zero = next(i for i in range(72) if not cw >> i & 1)
        one = next(i for i in range(72) if cw >> i & 1)
        net.attach_tamperer(
            (0, Direction.EAST),
            PermanentFault(
                72, {zero: StuckAtKind.ONE, one: StuckAtKind.ZERO}
            ),
        )
        attack_and_run(net, count=5)
        snapshot = collect_security(net).snapshot()
        assert (0, Direction.EAST) in links_judged(
            snapshot, LinkVerdict.PERMANENT
        )

    def test_lob_traffic_aggregated(self):
        net = build_mitigated_network(PAPER_CONFIG)
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        attack_and_run(net, count=25)
        snapshot = collect_security(net).snapshot()
        sends = series(snapshot, "lob_obfuscated_sends")
        assert sum(child["value"] for child in sends) > 0
        assert sum(
            per_link(snapshot, "lob_preemptive_sends").values()
        ) > 0

    def test_two_suspects_both_listed(self):
        net = build_mitigated_network(PAPER_CONFIG)
        for key in ((0, Direction.EAST), (2, Direction.EAST)):
            trojan = TaspTrojan(TargetSpec.for_dest(15))
            trojan.enable()
            net.attach_tamperer(key, trojan)
        attack_and_run(net, count=15)
        snapshot = collect_security(net).snapshot()
        assert len(suspects(snapshot)) == 2

    def test_unmitigated_network_rejected(self):
        with pytest.raises(ValueError):
            collect_security(Network(PAPER_CONFIG))
