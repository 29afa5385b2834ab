"""The per-hop path's invariants, each checked against a plain reference.

A flit-hop is one launch, one arrival and one ACK, and the stepping
path leans on a few facts to keep each of them cheap: both wires of a
link are FIFOs, a retransmission buffer's dict keeps admission order,
a flit's head/tail kind is fixed at construction, the SECDED byte-table
fold equals the bit-by-bit code, the synthetic source draws exactly what
``SeededStream.chance`` would, every link with an ACK on its wire is
in the active sets the ACK phase walks, and a word crossing a link with
no tamperer and no launch hook needs no SECDED round trip.
"""

import random

import pytest

from repro.ecc import DecodeStatus, Secded
from repro.faults import PermanentFault, StuckAtKind, TransientFaultModel
from repro.noc import FlitType, Packet, PAPER_CONFIG
from repro.noc.flit import Flit
from repro.noc.link import AckMessage, Link, Transmission
from repro.noc.retrans import EntryState, RetransBuffer
from repro.noc.topology import Direction
from repro.traffic.synthetic import (
    SyntheticConfig,
    SyntheticSource,
    uniform_random,
)
from tests.test_ecc_widths import WIDTHS
from repro.util.rng import SeededStream
from tests.test_noc_incremental import NETWORKS, offer, with_faults


def make_flit(pkt_id=1):
    return Packet(pkt_id=pkt_id, src_core=0, dst_core=63).build_flits(
        PAPER_CONFIG
    )[0]


# -- FIFO wires ----------------------------------------------------------------
@pytest.mark.parametrize("latency", [1, 2, 3])
@pytest.mark.parametrize("ack_latency", [0, 1, 2])
def test_wires_pop_like_a_filter(latency, ack_latency):
    rng = random.Random(latency * 10 + ack_latency)
    link = Link(0, Direction.EAST, 1, latency, ack_latency)
    forward: list = []  # (arrival cycle, item), the filter reference
    reverse: list = []
    flit = make_flit()
    for cycle in range(300):
        due = [tx for when, tx in forward if when <= cycle]
        forward = [(w, tx) for w, tx in forward if w > cycle]
        assert link.pop_arrivals(cycle) == due
        due = [ack for when, ack in reverse if when <= cycle]
        reverse = [(w, ack) for w, ack in reverse if w > cycle]
        assert link.pop_acks(cycle) == due
        whens = [w for w, _ in forward + reverse]
        assert link.next_event_cycle() == (min(whens) if whens else None)
        if rng.random() < 0.6:
            tx = Transmission(cycle, 0, cycle, cycle, flit, None, cycle)
            link.launch(tx, cycle)
            forward.append((cycle + latency, tx))
        for _ in range(rng.randrange(3)):
            ack = AckMessage(cycle, rng.random() < 0.5)
            link.send_ack(ack, cycle)
            reverse.append((cycle + ack_latency, ack))


# -- retransmission buffer order ------------------------------------------------
class ListBuffer:
    """The admission-order list the buffer used to keep beside its dict."""

    def __init__(self):
        self.order: list[int] = []
        self.admitted: dict[int, int] = {}

    def admit(self, tag, cycle):
        self.order.append(tag)
        self.admitted[tag] = cycle

    def retire(self, tag):
        self.order.remove(tag)

    def oldest_wait(self, cycle):
        return cycle - self.admitted[self.order[0]] if self.order else 0


@pytest.mark.parametrize("seed", range(4))
def test_buffer_keeps_admission_order(seed):
    rng = random.Random(seed)
    buf = RetransBuffer(6)
    ref = ListBuffer()
    for cycle in range(400):
        action = rng.random()
        tags = [entry.tag for entry in buf]
        if action < 0.35:
            tag = buf.admit(make_flit(cycle), rng.randrange(4), cycle, cycle)
            if tag is not None:
                ref.admit(tag, cycle)
                assert buf.get(tag).vc_seq == cycle
        elif action < 0.55 and tags:
            ready = [e.tag for e in buf if e.state is EntryState.READY]
            if ready:
                buf.mark_launched(rng.choice(ready), cycle)
        elif action < 0.75 and tags:
            tag = rng.choice(tags)  # out of order
            assert buf.on_ack(tag).tag == tag
            ref.retire(tag)
        elif action < 0.85 and tags:
            buf.on_nack(rng.choice(tags))
        elif tags:
            ready = [e.tag for e in buf if e.state is EntryState.READY]
            if ready:
                tag = rng.choice(ready)
                assert buf.drop(tag).tag == tag
                ref.retire(tag)
        assert [entry.tag for entry in buf] == ref.order
        assert buf.oldest_wait(cycle) == ref.oldest_wait(cycle)
        ready = [e for e in buf if e.state is EntryState.READY]
        assert buf.ready_entries(cycle) == ready
        assert buf.pick_ready(cycle) is (ready[0] if ready else None)


def test_failed_drop_keeps_order():
    buf = RetransBuffer(4)
    tags = [buf.admit(make_flit(i), 0, 0) for i in range(3)]
    buf.mark_launched(tags[0], 1)
    with pytest.raises(RuntimeError):
        buf.drop(tags[0])
    assert [entry.tag for entry in buf] == tags


# -- flit kind ---------------------------------------------------------------------
@pytest.mark.parametrize("ftype", list(FlitType))
def test_head_and_tail_fixed_at_construction(ftype):
    flit = Flit(1, 0, 5, 0, 1, 0, 0, ftype, 0, 1, 0)
    assert flit.is_head == (ftype in (FlitType.HEAD, FlitType.SINGLE))
    assert flit.is_tail == (ftype in (FlitType.TAIL, FlitType.SINGLE))


@pytest.mark.parametrize("payload", [0, 1, 3])
def test_built_packets_mark_head_and_tail(payload):
    flits = Packet(
        pkt_id=1, src_core=0, dst_core=9, payload=[7] * payload
    ).build_flits(PAPER_CONFIG)
    assert [f.is_head for f in flits] == [True] + [False] * payload
    assert [f.is_tail for f in flits] == [False] * payload + [True]


# -- SECDED against the bit-by-bit code -------------------------------------------
def data_positions(data_bits):
    positions, pos = [], 1
    while len(positions) < data_bits:
        if pos & (pos - 1):
            positions.append(pos - 1)
        pos += 1
    return positions


def ref_encode(codec, data):
    cw = 0
    for i, idx in enumerate(data_positions(codec.data_bits)):
        cw |= (data >> i & 1) << idx
    hamming_len = codec.codeword_bits - 1
    for i in range(codec.check_bits):
        bit = 0
        for idx in range(hamming_len):
            if (idx + 1) >> i & 1:
                bit ^= cw >> idx & 1
        cw |= bit << ((1 << i) - 1)
    return cw | (bin(cw).count("1") & 1) << hamming_len


def ref_decode(codec, cw):
    hamming_len = codec.codeword_bits - 1
    syndrome = 0
    for idx in range(hamming_len):
        if cw >> idx & 1:
            syndrome ^= idx + 1
    overall = bin(cw).count("1") & 1

    def data(word):
        return sum(
            (word >> idx & 1) << i
            for i, idx in enumerate(data_positions(codec.data_bits))
        )

    if syndrome == 0:
        if overall == 0:
            return (DecodeStatus.CLEAN, data(cw), 0, None)
        return (DecodeStatus.CORRECTED, data(cw), 0, hamming_len)
    if overall == 1 and syndrome <= hamming_len:
        fixed = cw ^ 1 << (syndrome - 1)
        return (DecodeStatus.CORRECTED, data(fixed), syndrome, syndrome - 1)
    return (DecodeStatus.DETECTED, data(cw), syndrome, None)


@pytest.mark.parametrize("width", WIDTHS)
def test_codec_matches_bit_by_bit_reference(width):
    codec = Secded(width)
    rng = random.Random(width)
    n = codec.codeword_bits
    for _ in range(4):
        data = rng.getrandbits(width)
        cw = codec.encode(data)
        assert cw == ref_encode(codec, data)
        flips = [1 << i for i in range(n)]
        flips += [
            1 << a | 1 << b
            for a, b in (rng.sample(range(n), 2) for _ in range(60))
        ]
        for flip in [0] + flips:
            got = codec.decode(cw ^ flip)
            assert tuple(got) == ref_decode(codec, cw ^ flip)
            if flip and flip & (flip - 1):  # two bits
                assert got.status is DecodeStatus.DETECTED


def test_decode_result_is_read_only():
    result = Secded(8).decode(0)
    with pytest.raises(AttributeError):
        result.data = 1
    assert not result.needs_retransmission


# -- synthetic source draws ----------------------------------------------------------
def reference_generate(source, cycle):
    """SyntheticSource.generate as written with ``stream.chance``."""
    config, cfg, stream = source.config, source.cfg, source.stream
    if config.duration is not None and cycle >= config.duration:
        return []
    out = []
    for src in range(cfg.num_cores):
        if not stream.chance(config.injection_rate):
            continue
        dst = source.pattern(cfg, src, stream)
        if dst == src:
            continue
        out.append(
            Packet(
                pkt_id=source._next_pkt_id,
                src_core=src,
                dst_core=dst,
                vc_class=stream.randint(0, cfg.num_vcs - 1),
                mem_addr=stream.bits(32),
                payload=[stream.bits(cfg.flit_bits)
                         for _ in range(config.payload_words)],
                created_cycle=cycle,
            )
        )
        source._next_pkt_id += 1
    return out


@pytest.mark.parametrize("rate", [0.0, 0.005, 0.5, 1.0])
def test_synthetic_source_draws_like_chance(rate):
    config = SyntheticConfig(injection_rate=rate, duration=30)
    source = SyntheticSource(PAPER_CONFIG, uniform_random, config, seed=3)
    reference = SyntheticSource(PAPER_CONFIG, uniform_random, config, seed=3)
    emitted = 0
    for cycle in range(40):
        got = source.generate(cycle)
        assert got == reference_generate(reference, cycle)
        emitted += len(got)
    assert source.stream.getstate() == reference.stream.getstate()
    assert (emitted > 0) == (rate > 0)


# -- link-major ACK processing ---------------------------------------------------
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_links_with_acks_are_in_the_active_sets(kind):
    """The ACK phase walks the active-link snapshot instead of every
    output of every active router; that visits the same ACKs only if a
    link with an ACK on its wire is active and so is its source
    router."""
    rng = random.Random(7)
    net = with_faults(kind)
    pkt_id = 0
    with_acks = 0
    for cycle in range(400):
        if cycle < 200:
            pkt_id = offer(net, rng, pkt_id, 0.05)
        for key, link in net.links.items():
            if link._acks:
                with_acks += 1
                assert key in net._active_links
                assert key[0] in net._active_routers
        net.step()
    assert with_acks > 100


# -- SECDED only where a word can change -------------------------------------------
class CountingCodec:
    """The network's codec, counting the words launches encode."""

    def __init__(self, codec):
        self.codec = codec
        self.encodes = 0

    def encode(self, data):
        self.encodes += 1
        return self.codec.encode(data)


class IdentityTamperer:
    """Alters nothing; being a tamperer, it makes its link encode."""

    def tamper(self, codeword, cycle):
        return codeword


RECEIVER_COUNTERS = (
    "flits_accepted", "flits_corrected", "faults_detected", "nacks_sent",
    "deob_stall_cycles", "flits_discarded", "scrambles_resolved",
)


def protected_run(kind, seed, force_encode):
    """A seeded run with transient double flips (or TASP), a stuck-at
    wire and, on the mitigated network, a transient storm too; with
    ``force_encode`` every link carries an identity tamperer."""
    rng = random.Random(seed)
    net = with_faults(kind)
    width = net.codec.codeword_bits
    keys = list(net.links)
    net.attach_tamperer(
        keys[4], PermanentFault.single(width, 20, StuckAtKind.ONE)
    )
    if kind == "mitigated":
        net.attach_tamperer(
            keys[13],
            TransientFaultModel(
                width, 0.2, SeededStream(seed, "storm"), double_fraction=0.5
            ),
        )
    if force_encode:
        for key in keys:
            net.attach_tamperer(key, IdentityTamperer())
    codec = net.codec = CountingCodec(net.codec)
    pkt_id = 0
    for _ in range(200):
        pkt_id = offer(net, rng, pkt_id, 0.05)
        net.step()
    net.run_until_drained(3000)
    stats = net.stats
    outcome = {
        "stats": stats.summary(),
        "packets": [
            (r.pkt_id, r.created_cycle, r.head_injected_cycle,
             r.tail_ejected_cycle, r.hops, r.retransmissions, r.misdelivered)
            for r in stats.packets.values()
        ],
        "links": [
            (link.traversals, link.corrupted_traversals)
            for link in net.links.values()
        ],
        "receivers": [
            tuple(
                getattr(net.receiver_of(key), name, None)
                for name in RECEIVER_COUNTERS
            )
            for key in net.links
        ],
    }
    tampered_hops = sum(
        link.traversals for link in net.links.values() if link.tamperers
    )
    return outcome, codec.encodes, tampered_hops


@pytest.mark.parametrize("kind", sorted(NETWORKS))
@pytest.mark.parametrize("seed", [1, 2])
def test_encoding_only_alterable_links_changes_nothing(kind, seed):
    """Forced-encode oracle: an identity tamperer on every link sends
    every word through SECDED, as every launch did before links without
    a tamperer stopped encoding; the two runs must agree on every
    statistic, packet timeline, traversal count and receiver counter."""
    plain, plain_encodes, tampered_hops = protected_run(kind, seed, False)
    forced, forced_encodes, _ = protected_run(kind, seed, True)
    assert plain == forced
    hops = sum(traversals for traversals, _ in forced["links"])
    assert forced_encodes == hops
    assert plain_encodes == tampered_hops < hops
    # the runs corrected single flips and NACKed detected ones
    receivers = forced["receivers"]
    assert sum(counters[1] for counters in receivers) > 0
    assert sum(counters[2] for counters in receivers) > 0


# -- back-pressure sampling -------------------------------------------------------
def test_is_blocked_matches_its_definition():
    from repro.noc import Network

    rng = random.Random(11)
    net = Network(PAPER_CONFIG)
    out = net.routers[5].out_ports[0]
    for trial in range(300):
        out.retrans = RetransBuffer(PAPER_CONFIG.retrans_depth)
        for i in range(rng.randrange(PAPER_CONFIG.retrans_depth + 1)):
            out.retrans.admit(make_flit(i), 0, rng.randrange(100))
        out.credits._credits = [
            rng.choice([0, 0, 1, 2]) for _ in range(PAPER_CONFIG.num_vcs)
        ]
        out.last_ack_cycle = rng.randrange(-1, 100)
        cycle = 100 + rng.randrange(40)
        expected = (
            out.retrans.is_full
            or not any(out.credits.snapshot())
            or (
                out.retrans.oldest_wait(cycle) > 24
                and cycle - out.last_ack_cycle > 24
            )
        )
        assert out.is_blocked(cycle) == expected


def test_sample_counts_settled_router_whose_credits_are_held():
    """A router with nothing to step still counts as blocked while its
    downstream holds every credit, so sampling visits every router."""
    from repro.noc import Network

    net = Network(PAPER_CONFIG)
    router = net.routers[5]
    out = router.out_ports[0]
    for vc in range(PAPER_CONFIG.num_vcs):
        for _ in range(PAPER_CONFIG.vc_depth):
            out.credits.consume(vc)
    assert net._router_settled(router)
    assert net.collect_sample().routers_with_blocked_port == 1
