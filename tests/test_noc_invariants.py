"""Fault-injection campaigns with continuous invariant auditing.

Every conservation law must hold each cycle no matter what combination
of trojans, stuck wires, transient noise, obfuscation and QoS policies
is active — this is the harness that catches flow-control bugs.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import TdmConfig, TdmPolicy
from repro.core import TargetSpec, TaspConfig, TaspTrojan, build_mitigated_network
from repro.faults import PermanentFault, StuckAtKind, TransientFaultModel
from repro.noc import Network, NoCConfig, Packet, PAPER_CONFIG
from repro.noc.invariants import InvariantViolation, NetworkValidator
from repro.noc.topology import Direction
from repro.traffic import SyntheticConfig, SyntheticSource, uniform_random
from repro.util.rng import SeededStream


def audited_run(net, cycles, every=3):
    validator = NetworkValidator(net)
    for i in range(cycles):
        net.step()
        if i % every == 0:
            validator.check()
    validator.check()
    return validator.report


class TestCleanNetworkInvariants:
    def test_idle_network(self):
        report = audited_run(Network(PAPER_CONFIG), 50)
        assert report.ok and report.checks > 10

    def test_loaded_network(self):
        net = Network(PAPER_CONFIG)
        net.set_traffic(
            SyntheticSource(
                PAPER_CONFIG, uniform_random,
                SyntheticConfig(injection_rate=0.03, duration=150,
                                payload_words=2),
                seed=1,
            )
        )
        assert audited_run(net, 400).ok

    def test_multi_flit_contention(self):
        net = Network(PAPER_CONFIG)
        for pid in range(60):
            net.add_packet(
                Packet(pkt_id=pid, src_core=(pid * 4) % 64, dst_core=21,
                       vc_class=pid % 4, payload=[pid] * 3, created_cycle=0)
            )
        assert audited_run(net, 600).ok


class TestInvariantsUnderAttack:
    def test_unmitigated_trojan_deadlock_conserves(self):
        # even a deadlocking network must never corrupt flow control
        net = Network(PAPER_CONFIG)
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        for pid in range(40):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63,
                       vc_class=pid % 4, created_cycle=0)
            )
        assert audited_run(net, 800).ok

    def test_mitigated_trojan_conserves(self):
        net = build_mitigated_network(PAPER_CONFIG)
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        for pid in range(30):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63,
                       vc_class=pid % 4, payload=[0xAB], created_cycle=0)
            )
        assert audited_run(net, 800).ok

    def test_scramble_heavy_mitigation_conserves(self):
        from repro.core import Granularity, MitigationConfig, ObMethod

        mcfg = MitigationConfig(
            method_sequence=(
                (ObMethod.SCRAMBLE, Granularity.FULL),
                (ObMethod.INVERT, Granularity.FULL),
            )
        )
        net = build_mitigated_network(PAPER_CONFIG, mcfg)
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        for pid in range(25):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63,
                       vc_class=pid % 4, payload=[0xCD], created_cycle=0)
            )
        assert audited_run(net, 1000).ok

    def test_transient_storm_conserves(self):
        net = Network(PAPER_CONFIG)
        for i, key in enumerate([(0, Direction.EAST), (5, Direction.NORTH),
                                 (10, Direction.WEST)]):
            net.attach_tamperer(
                key,
                TransientFaultModel(
                    net.codec.codeword_bits, 0.3,
                    SeededStream(i, "storm"), double_fraction=0.5,
                ),
            )
        net.set_traffic(
            SyntheticSource(
                PAPER_CONFIG, uniform_random,
                SyntheticConfig(injection_rate=0.02, duration=200),
                seed=4,
            )
        )
        assert audited_run(net, 500).ok

    def test_tdm_policy_conserves(self):
        policy = TdmPolicy(TdmConfig(2), 4)
        net = Network(PAPER_CONFIG, policy=policy)
        for pid in range(40):
            domain = pid % 2
            net.add_packet(
                Packet(pkt_id=pid, src_core=domain, dst_core=63,
                       vc_class=policy.vc_for(domain), domain=domain,
                       created_cycle=0)
            )
        assert audited_run(net, 500).ok

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_fault_campaign_property(self, seed):
        """Random combination of fault sources: conservation always holds."""
        stream = SeededStream(seed, "campaign")
        net = Network(PAPER_CONFIG)
        from repro.noc.topology import all_links

        links = all_links(PAPER_CONFIG)
        for key in stream.sample(links, 3):
            kind = stream.randint(0, 2)
            if kind == 0:
                net.attach_tamperer(
                    key,
                    TransientFaultModel(
                        net.codec.codeword_bits,
                        stream.random() * 0.3,
                        stream.child("t", key),
                    ),
                )
            elif kind == 1:
                net.attach_tamperer(
                    key,
                    PermanentFault.single(
                        net.codec.codeword_bits,
                        stream.randint(0, 71),
                        StuckAtKind(stream.randint(0, 1)),
                    ),
                )
            else:
                trojan = TaspTrojan(
                    TargetSpec.for_dest(stream.randint(0, 15)),
                    TaspConfig(seed=seed),
                )
                trojan.enable()
                net.attach_tamperer(key, trojan)
        net.set_traffic(
            SyntheticSource(
                PAPER_CONFIG, uniform_random,
                SyntheticConfig(injection_rate=0.02, duration=120),
                seed=seed,
            )
        )
        assert audited_run(net, 300, every=7).ok


class TestValidatorDetectsCorruption:
    def test_buffer_overflow_detected(self):
        net = Network(PAPER_CONFIG)
        vc = net.routers[0].inputs[("inj", 0)].vcs[0]
        flit = Packet(pkt_id=1, src_core=0, dst_core=4).build_flits(
            PAPER_CONFIG
        )[0]
        vc.buffer.extend([flit] * 5)  # force over capacity
        validator = NetworkValidator(net)
        with pytest.raises(InvariantViolation):
            validator.check()

    def test_credit_leak_detected(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1  # leak a credit
        validator = NetworkValidator(net)
        with pytest.raises(InvariantViolation):
            validator.check()

    def test_holder_corruption_detected(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.holders[0] = (("inj", 0), 1)
        net.routers[0].inputs[("inj", 0)].vcs[1].out_vc = 3  # disagree
        validator = NetworkValidator(net)
        with pytest.raises(InvariantViolation):
            validator.check()

    @pytest.mark.parametrize("state, sends", [("READY", 1), ("IN_FLIGHT", 2)])
    def test_rearmed_entry_off_the_retrying_set_detected(self, state, sends):
        """Only a NACK re-arms an entry, and the ACK phase then puts its
        link on ``Network.retrying`` for the watchdog; an entry re-armed
        anywhere else would hide from the ladder."""
        from repro.noc.retrans import EntryState

        net = Network(PAPER_CONFIG)
        key = (0, Direction.EAST)
        out = net.output_port_of(key)
        flit = Packet(pkt_id=1, src_core=0, dst_core=4).build_flits(
            PAPER_CONFIG
        )[0]
        entry = out.retrans.get(out.retrans.admit(flit, 0, 0, 0))
        validator = NetworkValidator(net, families=("counters",))
        entry.state, entry.send_count = EntryState.IN_FLIGHT, 1
        validator.check()  # sent once, awaiting its ACK: not a retry
        entry.state, entry.send_count = EntryState[state], sends
        report = validator.check(raise_on_violation=False)
        assert report.violations == [
            f"link {key}: a re-armed retransmission entry on a link the "
            "watchdog does not walk"
        ]
        net.retrying.add(key)
        assert NetworkValidator(net, families=("counters",)).check().ok

    def test_report_collects_without_raise(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1
        validator = NetworkValidator(net)
        report = validator.check(raise_on_violation=False)
        assert not report.ok
        assert "credit conservation" in report.violations[0]


class TestReportHygiene:
    def test_violation_is_runtime_error_with_report(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1
        validator = NetworkValidator(net)
        with pytest.raises(InvariantViolation) as excinfo:
            validator.check()
        assert isinstance(excinfo.value, RuntimeError)
        assert not isinstance(excinfo.value, AssertionError)
        assert excinfo.value.report is validator.report

    def test_identical_messages_fold_into_duplicates(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1
        validator = NetworkValidator(net)
        for _ in range(5):
            validator.check(raise_on_violation=False)
        report = validator.report
        assert len(report.violations) == 1
        assert report.duplicates == 4
        assert report.total_failures == 5
        assert report.by_family == {"credit": 1}

    def test_distinct_overflow_past_the_cap(self):
        from repro.noc.invariants import ValidationReport

        report = ValidationReport(max_violations=2)
        for i in range(5):
            report.record("credit", f"violation {i}")
        assert len(report.violations) == 2
        assert report.overflow == 3
        assert report.duplicates == 0
        assert report.total_failures == 5
        assert report.by_family == {"credit": 5}

    def test_family_selection_skips_unselected_checks(self):
        net = Network(PAPER_CONFIG)
        out = net.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1  # a credit-family corruption
        scoped = NetworkValidator(net, families=("buffer", "holder"))
        assert scoped.check().ok  # credit family never ran
        assert not NetworkValidator(net).check(
            raise_on_violation=False
        ).ok

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="families"):
            NetworkValidator(Network(PAPER_CONFIG), families=("karma",))

    def test_unknown_flit_scope_rejected(self):
        with pytest.raises(ValueError, match="flit_scope"):
            NetworkValidator(Network(PAPER_CONFIG), flit_scope="mostly")

    def test_active_scope_agrees_on_flit_conservation(self):
        """Active-scoped and full flit sweeps reach the same verdict on
        a live network (settled components hold no flits)."""
        net = Network(PAPER_CONFIG)
        for pid in range(10):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63,
                       vc_class=pid % 4, created_cycle=0)
            )
        active = NetworkValidator(net, families=("flit",),
                                  flit_scope="active")
        full = NetworkValidator(net, families=("flit",))
        for _ in range(300):
            net.step()
            assert active.check().ok == full.check().ok
