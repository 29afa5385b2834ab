"""Tests for epoch-based recovery (freeze / drain / reroute / resubmit)."""

import dataclasses
import pickle

import pytest

from repro.core import TargetSpec, TaspTrojan
from repro.core.mitigation import DetectingReceiver, build_mitigated_network
from repro.core.recovery import RecoveryManager
from repro.experiments.chaos import campaigns
from repro.noc import Network, NoCConfig, Packet, PAPER_CONFIG
from repro.noc.topology import Direction
from repro.obs.profiler import PhaseProfiler
from repro.resilience.campaign import ChaosCampaign

INFECTED = (0, Direction.EAST)


def offered(net, packets):
    """A manager whose ledger holds ``packets``, all offered to ``net``."""
    manager = RecoveryManager(net, packets)
    for packet in packets:
        net.add_packet(packet)
    return manager


def attacked_manager(packets=15, payload=1):
    net = Network(PAPER_CONFIG)
    trojan = TaspTrojan(TargetSpec.for_dest(15))
    trojan.enable()
    net.attach_tamperer(INFECTED, trojan)
    manager = offered(net, [
        Packet(pkt_id=pid, src_core=0, dst_core=63, vc_class=pid % 4,
               payload=[pid] * payload, created_cycle=0)
        for pid in range(packets)
    ])
    return manager, trojan


class TestLedger:
    def test_offer_tracks_packets(self):
        net = Network(PAPER_CONFIG)
        manager = offered(net, [Packet(pkt_id=1, src_core=0, dst_core=4)])
        assert len(manager.undelivered()) == 1
        net.run_until_drained(500)
        assert manager.undelivered() == []
        assert manager.delivered == 1

    def test_duplicate_pkt_id_rejected(self):
        first = Packet(pkt_id=1, src_core=0, dst_core=4)
        with pytest.raises(ValueError):
            RecoveryManager(
                Network(PAPER_CONFIG),
                [first, Packet(pkt_id=1, src_core=0, dst_core=8)],
            )

    def test_ledger_copies_are_pristine(self):
        pkt = Packet(pkt_id=1, src_core=0, dst_core=4, payload=[7])
        manager = offered(Network(PAPER_CONFIG), [pkt])
        pkt.payload[0] = 99  # caller mutates after offering
        assert manager._ledger[1].payload == [7]


class TestRecoverySequence:
    def test_exactly_once_delivery_across_epochs(self):
        manager, trojan = attacked_manager()
        # epoch 0: the attack pins the targeted flow
        assert not manager.run_epoch(2500, stall_limit=600)
        delivered_before = manager.delivered
        assert delivered_before < 15

        # detect -> condemn -> recover
        fresh = manager.recover([INFECTED])
        assert fresh is manager.network
        assert manager.run_epoch(6000)
        assert manager.delivered == 15
        assert manager.undelivered() == []
        # ledger-level exactly-once: every pkt_id complete exactly once
        assert sum(
            1 for pid in range(15)
            if manager.network.stats.packets[pid].complete
        ) == 15

    def test_report_contents(self):
        manager, _ = attacked_manager(packets=8)
        manager.run_epoch(2000, stall_limit=500)
        manager.recover([INFECTED], reconfiguration_cycles=100)
        report = manager.reports[-1]
        assert report.condemned == (INFECTED,)
        assert not report.drained_cleanly  # the trojan pinned packets
        assert report.packets_resubmitted > 0
        assert report.downtime_cycles >= 100

    def test_condemned_links_unused_in_new_epoch(self):
        manager, trojan = attacked_manager(packets=10)
        manager.run_epoch(2000, stall_limit=500)
        before = manager.network.links[INFECTED].traversals
        fresh = manager.recover([INFECTED])
        manager.run_epoch(6000)
        assert fresh.links[INFECTED].traversals == 0
        assert trojan.triggers > 0  # it did fire in epoch 0

    def test_trojans_persist_across_epochs(self):
        # the implant is in the silicon: carrying it over matters when
        # the new routes still cross other infected links
        manager, trojan = attacked_manager(packets=6)
        manager.run_epoch(1500, stall_limit=400)
        fresh = manager.recover([INFECTED])
        assert trojan in fresh.links[INFECTED].tamperers

    def test_clean_network_recovery_is_cheap(self):
        # recovering a healthy network: drains fully, resubmits nothing
        net = Network(PAPER_CONFIG)
        manager = offered(net, [
            Packet(pkt_id=pid, src_core=0, dst_core=63, created_cycle=0)
            for pid in range(5)
        ])
        manager.run_epoch(2000)
        manager.recover([(5, Direction.NORTH)])
        report = manager.reports[-1]
        assert report.drained_cleanly
        assert report.packets_resubmitted == 0
        assert manager.delivered == 5

    def test_new_epoch_clock_includes_downtime(self):
        manager, _ = attacked_manager(packets=5)
        manager.run_epoch(1500, stall_limit=400)
        old_cycle = manager.network.cycle
        fresh = manager.recover([INFECTED], reconfiguration_cycles=64)
        assert fresh.cycle >= old_cycle + 64

    def test_multiple_recoveries(self):
        manager, _ = attacked_manager(packets=10)
        manager.run_epoch(1500, stall_limit=400)
        manager.recover([INFECTED])
        # a second condemnation later (another link) must also work
        manager.run_epoch(4000)
        manager.recover([INFECTED, (4, Direction.EAST)])
        assert manager.run_epoch(6000)
        assert manager.delivered == 10
        assert len(manager.reports) == 2


def assert_mitigated(net):
    for key in net.links:
        assert isinstance(net.receiver_of(key), DetectingReceiver), key
        assert net.output_port_of(key).lob is not None, key


class TestEpochHardware:
    """A new epoch is the old network's hardware on new routes."""

    def test_a_mitigated_network_recovers_mitigated(self):
        net = build_mitigated_network(PAPER_CONFIG)
        net.sample_interval = 7
        net.profiler = PhaseProfiler()
        fresh = RecoveryManager(net, []).recover([INFECTED])
        assert_mitigated(fresh)
        assert fresh.sample_interval == 7
        assert fresh.profiler is net.profiler
        # checkpoints pickle networks, and with them what rebuilds them
        assert_mitigated(pickle.loads(pickle.dumps(fresh)))

    def test_a_mitigated_campaign_keeps_its_defense_after_recovery(
        self, monkeypatch
    ):
        epochs = []
        recover = RecoveryManager.recover

        def kept(manager, *args, **kwargs):
            epochs.append(recover(manager, *args, **kwargs))
            return epochs[-1]

        monkeypatch.setattr(RecoveryManager, "recover", kept)
        ladder = campaigns()[0]
        assert ladder.scenario.defense.mitigated
        report = ChaosCampaign(dataclasses.replace(
            ladder,
            scenario=dataclasses.replace(ladder.scenario, sample_interval=7),
        )).run()
        assert report.epochs == len(epochs) + 1 >= 2
        for net in epochs:
            assert_mitigated(net)
            assert net.sample_interval == 7
