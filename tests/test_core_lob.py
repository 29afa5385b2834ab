"""Unit + property tests for the L-Ob obfuscation codec and encoder."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    DEFAULT_METHOD_SEQUENCE,
    Granularity,
    LObCodec,
    LObEncoder,
    ObDescriptor,
    ObMethod,
    PENALTY_CYCLES,
    TargetSpec,
    build_mitigated_network,
)
from repro.noc import PAPER_CONFIG, Packet
from repro.noc.retrans import NackAdvice, RetransBuffer
from repro.util.bits import mask

WORDS = st.integers(min_value=0, max_value=mask(64))
PURE_METHODS = [ObMethod.INVERT, ObMethod.SHUFFLE]
GRANULARITIES = list(Granularity)


class TestLObCodec:
    @given(WORDS, st.sampled_from(PURE_METHODS), st.sampled_from(GRANULARITIES))
    def test_undo_inverts_apply(self, data, method, gran):
        codec = LObCodec(seed=11)
        assert codec.undo(codec.apply(data, method, gran), method, gran) == data

    @given(WORDS)
    def test_invert_full_is_complement(self, data):
        codec = LObCodec()
        assert codec.apply(data, ObMethod.INVERT, Granularity.FULL) == (
            data ^ mask(64)
        )

    def test_header_granularity_preserves_payload_bits(self):
        codec = LObCodec(seed=3)
        data = 0xFFFF_FFFF_FFFF_FFFF
        out = codec.apply(data, ObMethod.INVERT, Granularity.HEADER)
        # header window is bits 0..41; bits 42..63 untouched
        assert out >> 42 == data >> 42
        assert out & mask(42) == 0

    def test_payload_granularity_preserves_header_bits(self):
        codec = LObCodec(seed=3)
        data = mask(64)
        out = codec.apply(data, ObMethod.INVERT, Granularity.PAYLOAD)
        assert out & mask(42) == mask(42)
        assert out >> 42 == 0

    def test_shuffle_changes_header_pattern(self):
        codec = LObCodec(seed=5)
        data = 0x0000_0000_0000_00F0  # dest field = 15
        out = codec.apply(data, ObMethod.SHUFFLE, Granularity.FULL)
        assert out != data

    def test_different_links_different_secrets(self):
        a, b = LObCodec(seed=1), LObCodec(seed=2)
        data = 0x123456789ABCDEF0
        assert a.apply(data, ObMethod.SHUFFLE, Granularity.FULL) != b.apply(
            data, ObMethod.SHUFFLE, Granularity.FULL
        )

    def test_same_seed_same_transform(self):
        a, b = LObCodec(seed=9), LObCodec(seed=9)
        data = 0xCAFEBABE
        assert a.apply(data, ObMethod.SHUFFLE, Granularity.FULL) == b.apply(
            data, ObMethod.SHUFFLE, Granularity.FULL
        )

    def test_mitigated_build_defers_shuffle_tables(self):
        net = build_mitigated_network(PAPER_CONFIG)
        perms = [
            perm
            for router in net.routers
            for out in router.out_ports
            if out.lob is not None
            for perm in out.lob.codec._perms.values()
        ]
        assert len(perms) == len(net.links) * len(Granularity)
        assert all(
            p._fwd_tables is None and p._inv_tables is None for p in perms
        )

    def test_scramble_not_a_codec_transform(self):
        codec = LObCodec()
        with pytest.raises(ValueError):
            codec.apply(0, ObMethod.SCRAMBLE, Granularity.FULL)

    @given(WORDS, st.sampled_from(GRANULARITIES))
    def test_obfuscation_defeats_dest_target(self, mem_bits, gran):
        # Inverting or shuffling the header must change the dest field
        # pattern for (almost) any flit; specifically dest=15 -> not 15
        # after invert.
        codec = LObCodec(seed=2)
        data = (15 << 4) | (mem_bits & ~(0xF << 4))
        out = codec.apply(data, ObMethod.INVERT, Granularity.FULL)
        assert (out >> 4) & 0xF != 15

    def test_penalties_match_paper(self):
        # 1 cycle for invert/shuffle, 1-2 for scramble (we charge 2)
        assert PENALTY_CYCLES[ObMethod.INVERT] == 1
        assert PENALTY_CYCLES[ObMethod.SHUFFLE] == 1
        assert PENALTY_CYCLES[ObMethod.SCRAMBLE] == 2


def make_entry(buf, pkt_id=1, dst=60, vc=0, cycle=0):
    flit = Packet(
        pkt_id=pkt_id, src_core=0, dst_core=dst, vc_class=vc, mem_addr=0x42
    ).build_flits(PAPER_CONFIG)[0]
    tag = buf.admit(flit, vc, cycle)
    entry = buf.get(tag)
    entry.vc_seq = tag
    return entry


class TestLObEncoder:
    def _encoder(self, **kw):
        return LObEncoder(LObCodec(seed=4), **kw)

    def test_plain_send_without_advice(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        entry = make_entry(buf)
        got = enc.select_and_encode([entry], 0)
        assert got == (entry, entry.flit.data, None)

    def test_advised_entry_gets_obfuscated(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        entry = make_entry(buf)
        entry.ob_advice = NackAdvice(enable_obfuscation=True, method_index=0)
        sel, data, desc = enc.select_and_encode([entry], 0)
        assert sel is entry
        assert desc.method is ObMethod.INVERT
        assert data == entry.flit.data ^ mask(64)

    def test_method_index_walks_sequence(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        entry = make_entry(buf)
        entry.ob_advice = NackAdvice(enable_obfuscation=True, method_index=1)
        _, _, desc = enc.select_and_encode([entry], 0)
        assert (desc.method, desc.granularity) == DEFAULT_METHOD_SEQUENCE[1]

    def test_scramble_picks_partner(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        target = make_entry(buf, pkt_id=1)
        partner = make_entry(buf, pkt_id=2, dst=8)
        scramble_idx = DEFAULT_METHOD_SEQUENCE.index(
            (ObMethod.SCRAMBLE, Granularity.FULL)
        )
        target.ob_advice = NackAdvice(True, scramble_idx)
        sel, data, desc = enc.select_and_encode([target, partner], 0)
        assert sel is target
        assert desc.method is ObMethod.SCRAMBLE
        assert desc.partner_tag == partner.tag
        assert data == target.flit.data ^ partner.flit.data

    def test_scramble_without_partner_falls_back(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        target = make_entry(buf)
        scramble_idx = DEFAULT_METHOD_SEQUENCE.index(
            (ObMethod.SCRAMBLE, Granularity.FULL)
        )
        target.ob_advice = NackAdvice(True, scramble_idx)
        sel, data, desc = enc.select_and_encode([target], 0)
        assert sel is target
        assert desc.method is not ObMethod.SCRAMBLE

    def test_reorder_defers_and_sends_next(self):
        enc = LObEncoder(
            LObCodec(seed=4),
            method_sequence=((ObMethod.REORDER, Granularity.FULL),),
            reorder_window=6,
        )
        buf = RetransBuffer(4)
        target = make_entry(buf, pkt_id=1)
        other = make_entry(buf, pkt_id=2)
        target.ob_advice = NackAdvice(True, 0)
        sel, data, desc = enc.select_and_encode([target, other], cycle=10)
        assert sel is other
        assert desc is None
        assert target.defer_until == 16
        assert enc.reorders == 1

    def test_reorder_alone_idles_link(self):
        enc = LObEncoder(
            LObCodec(seed=4),
            method_sequence=((ObMethod.REORDER, Granularity.FULL),),
        )
        buf = RetransBuffer(4)
        target = make_entry(buf)
        target.ob_advice = NackAdvice(True, 0)
        assert enc.select_and_encode([target], 0) is None

    def test_success_logging_enables_preemption(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        first = make_entry(buf, pkt_id=1)
        first.ob_advice = NackAdvice(True, 0)
        enc.select_and_encode([first], 0)
        assert enc.link_suspicious
        enc.record_success(
            first.flit.flow_signature,
            ObDescriptor(ObMethod.INVERT, Granularity.FULL),
        )
        # a later flit of the same flow is pre-obfuscated without advice
        later = make_entry(buf, pkt_id=2)
        sel, data, desc = enc.select_and_encode([later], 5)
        assert desc is not None
        assert desc.method is ObMethod.INVERT
        assert enc.preemptive_sends == 1

    def test_no_preemption_while_link_clean(self):
        enc = self._encoder()
        enc.record_success(
            (0, 15, 0), ObDescriptor(ObMethod.INVERT, Granularity.FULL)
        )
        buf = RetransBuffer(4)
        entry = make_entry(buf)
        _, _, desc = enc.select_and_encode([entry], 0)
        assert desc is None  # link never showed trouble

    def test_counters(self):
        enc = self._encoder()
        buf = RetransBuffer(4)
        e = make_entry(buf)
        e.ob_advice = NackAdvice(True, 0)
        enc.select_and_encode([e], 0)
        assert enc.obfuscated_sends[ObMethod.INVERT] == 1

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            LObEncoder(LObCodec(), method_sequence=())
