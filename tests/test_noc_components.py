"""Unit tests for arbiters, credits, retransmission buffers and links."""

import typing
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.credit import CreditTracker
from repro.noc.flit import FlitType, Packet
from repro.noc.link import AckMessage, Link, Transmission
from repro.noc.retrans import EntryState, NackAdvice, RetransBuffer
from repro.noc import PAPER_CONFIG
from repro.noc.topology import Direction


def make_flit(pkt_id=1, src=0, dst=63):
    return Packet(pkt_id=pkt_id, src_core=src, dst_core=dst).build_flits(
        PAPER_CONFIG
    )[0]


class TestRoundRobinArbiter:
    def test_grants_only_requester(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, True, False, False]) == 1

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False] * 4) is None

    def test_rotates_priority(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_starvation_freedom(self):
        arb = RoundRobinArbiter(4)
        seen = set()
        for _ in range(8):
            seen.add(arb.grant([True] * 4))
        assert seen == {0, 1, 2, 3}

    def test_skips_non_requesters(self):
        arb = RoundRobinArbiter(3)
        arb.grant([True, True, True])  # winner 0, pointer at 1
        assert arb.grant([True, False, False]) == 0

    def test_grant_indices(self):
        arb = RoundRobinArbiter(5)
        assert arb.grant_indices([3]) == 3
        assert arb.grant_indices([]) is None

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(2).grant([True])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sparse_grant_matches_request_vector(self, data):
        """grant_indices picks from the index set exactly what grant
        picks from the equivalent boolean vector, and leaves the same
        pointer and grant count behind."""
        size = data.draw(st.integers(1, 36))
        rounds = data.draw(
            st.lists(st.lists(st.integers(0, size - 1), max_size=8),
                     max_size=25)
        )
        sparse, vector = RoundRobinArbiter(size), RoundRobinArbiter(size)
        for indices in rounds:
            requests = [i in indices for i in range(size)]
            assert sparse.grant_indices(indices) == vector.grant(requests)
            assert sparse.peek_priority() == vector.peek_priority()
            assert sparse.grants == vector.grants

    @pytest.mark.parametrize("bad", [-1, -5, 5, 6])
    def test_grant_indices_rejects_out_of_range(self, bad):
        arb = RoundRobinArbiter(5)
        arb.grant_indices([2])
        with pytest.raises(ValueError):
            arb.grant_indices([1, bad])
        # a rejected request leaves the arbiter untouched
        assert arb.peek_priority() == 3 and arb.grants == 1


class TestCreditTracker:
    def test_initial_credits(self):
        t = CreditTracker(4, 4)
        assert all(t.available(v) == 4 for v in range(4))

    def test_consume_release_roundtrip(self):
        t = CreditTracker(2, 2, latency=1)
        t.consume(0)
        assert t.available(0) == 1
        t.release(0, cycle=5)
        t.tick(5)  # not yet visible
        assert t.available(0) == 1
        t.tick(6)
        assert t.available(0) == 2

    def test_consume_without_credit_raises(self):
        t = CreditTracker(1, 1)
        t.consume(0)
        with pytest.raises(RuntimeError):
            t.consume(0)

    def test_overflow_detected(self):
        t = CreditTracker(1, 1, latency=0)
        t.release(0, 0)
        with pytest.raises(RuntimeError):
            t.tick(0)

    def test_credit_conservation(self):
        t = CreditTracker(1, 4, latency=2)
        for _ in range(4):
            t.consume(0)
        for c in range(3):
            t.release(0, c)
        t.tick(10)
        # outstanding = depth - credits - pending = 4 - 3 - 0
        assert t.outstanding(0) == 1
        assert t.available(0) == 3

    def test_zero_latency(self):
        t = CreditTracker(1, 1, latency=0)
        t.consume(0)
        t.release(0, 3)
        t.tick(3)
        assert t.available(0) == 1

    def test_next_visible_cycle_annotation_resolves(self):
        hints = typing.get_type_hints(CreditTracker.next_visible_cycle)
        assert hints["return"] == Optional[int]


class TestRetransBuffer:
    def test_admit_until_full(self):
        buf = RetransBuffer(2)
        assert buf.admit(make_flit(1), 0, 0) is not None
        assert buf.admit(make_flit(2), 0, 0) is not None
        assert buf.is_full
        assert buf.admit(make_flit(3), 0, 0) is None

    def test_tags_unique_and_monotonic(self):
        buf = RetransBuffer(4)
        tags = [buf.admit(make_flit(i), 0, 0) for i in range(4)]
        assert tags == sorted(set(tags))

    def test_pick_ready_oldest_first(self):
        buf = RetransBuffer(4)
        t1 = buf.admit(make_flit(1), 0, 0)
        t2 = buf.admit(make_flit(2), 0, 1)
        assert buf.pick_ready(5).tag == t1
        buf.mark_launched(t1, 5)
        assert buf.pick_ready(5).tag == t2

    def test_ack_frees_slot(self):
        buf = RetransBuffer(1)
        tag = buf.admit(make_flit(1), 0, 0)
        buf.mark_launched(tag, 0)
        buf.on_ack(tag)
        assert buf.is_empty
        assert buf.admit(make_flit(2), 0, 1) is not None

    def test_nack_rearms_entry(self):
        buf = RetransBuffer(2)
        tag = buf.admit(make_flit(1), 0, 0)
        buf.mark_launched(tag, 0)
        assert buf.pick_ready(1) is None  # in flight
        buf.on_nack(tag)
        entry = buf.pick_ready(1)
        assert entry.tag == tag
        assert entry.state is EntryState.READY
        assert entry.flit.retransmissions == 1

    def test_nack_carries_advice(self):
        buf = RetransBuffer(2)
        tag = buf.admit(make_flit(1), 0, 0)
        buf.mark_launched(tag, 0)
        advice = NackAdvice(enable_obfuscation=True, method_index=2)
        buf.on_nack(tag, advice)
        assert buf.get(tag).ob_advice.method_index == 2

    def test_double_launch_raises(self):
        buf = RetransBuffer(2)
        tag = buf.admit(make_flit(1), 0, 0)
        buf.mark_launched(tag, 0)
        with pytest.raises(RuntimeError):
            buf.mark_launched(tag, 1)

    def test_selective_repeat_interleave(self):
        # A NACKed older entry does not block a younger ready entry once
        # the older one is in flight again (paper Fig. 7: flit 3 passes
        # while flit 2 awaits retransmission).
        buf = RetransBuffer(4)
        t1 = buf.admit(make_flit(1), 0, 0)
        t2 = buf.admit(make_flit(2), 0, 0)
        buf.mark_launched(t1, 0)
        buf.on_nack(t1)
        assert buf.pick_ready(1).tag == t1  # retransmit first (oldest)
        buf.mark_launched(t1, 1)
        assert buf.pick_ready(2).tag == t2  # younger proceeds meanwhile

    def test_defer_until_reorder(self):
        buf = RetransBuffer(4)
        t1 = buf.admit(make_flit(1), 0, 0)
        t2 = buf.admit(make_flit(2), 0, 0)
        buf.get(t1).defer_until = 10
        assert buf.pick_ready(5).tag == t2
        assert buf.pick_ready(10).tag == t1

    def test_oldest_wait(self):
        buf = RetransBuffer(2)
        buf.admit(make_flit(1), 0, 3)
        assert buf.oldest_wait(10) == 7
        assert RetransBuffer(2).oldest_wait(10) == 0

    def test_ack_unknown_tag_ignored(self):
        buf = RetransBuffer(2)
        assert buf.on_ack(999) is None
        buf.on_nack(999)  # no crash


class TestLink:
    def _link(self):
        return Link(0, Direction.EAST, 1, latency=1, ack_latency=1)

    def _tx(self, codeword=0xABC):
        return Transmission(
            tag=0, vc=0, vc_seq=0, codeword=codeword, flit=make_flit(),
            ob=None, launch_cycle=0,
        )

    def test_delivery_after_latency(self):
        link = self._link()
        link.launch(self._tx(), cycle=5)
        assert link.pop_arrivals(5) == []
        arrivals = link.pop_arrivals(6)
        assert len(arrivals) == 1

    def test_tamper_chain_applied_at_launch(self):
        link = self._link()

        class Flip:
            def tamper(self, cw, cycle):
                return cw ^ 0b11

        link.tamperers.append(Flip())
        tx = self._tx(codeword=0)
        link.launch(tx, 0)
        assert tx.codeword == 0b11
        assert link.corrupted_traversals == 1

    def test_acks_delayed(self):
        link = self._link()
        link.send_ack(AckMessage(tag=7, ok=True), cycle=3)
        assert link.pop_acks(3) == []
        acks = link.pop_acks(4)
        assert len(acks) == 1 and acks[0].tag == 7

    def test_idle_tracking(self):
        link = self._link()
        assert link.idle
        link.launch(self._tx(), 0)
        assert not link.idle
        link.pop_arrivals(1)
        assert link.idle

    def test_traversal_counter(self):
        link = self._link()
        for c in range(5):
            link.launch(self._tx(), c)
        assert link.traversals == 5
