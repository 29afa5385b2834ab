"""Incremental router state: the tallies, worklists and staged counts the
routers and receivers keep in step with their buffers.

Each cycle of a randomized run, the ``counters`` validator family
recounts that state from the VC buffers and staging stores, and the
network's tally-based settle/drain/next-event answers are checked
against a brute-force walk of the same buffers.  The runs go through every site
that changes a buffer: link deliveries, injection, switch traversal,
direct ``VCState.push`` seating, ``purge_packet``, and
``disable_link``/``reinstate_link``.
"""

import gc
import random

import pytest

from repro.core import TargetSpec, TaspTrojan, build_mitigated_network
from repro.faults import TransientFaultModel
from repro.noc import Network, NoCConfig, Packet, PAPER_CONFIG
from repro.noc.invariants import NetworkValidator
from repro.noc.topology import Direction
from repro.util.rng import SeededStream

TORUS = NoCConfig(topology="torus")


def settled_by_walk(net, router):
    for port in router.inputs.values():
        if any(vc.buffer for vc in port.vcs):
            return False
        receiver = port.receiver
        if receiver is not None and any(receiver._staging.values()):
            return False
    for out in router.outputs.values():
        if list(out.retrans) or not out.link.idle or out.credits.in_flight:
            return False
    return not any(eject.queue for eject in router.ejects.values())


def holds_flits_by_walk(router):
    return (
        any(vc.buffer for port in router.inputs.values() for vc in port.vcs)
        or any(
            any(port.receiver._staging.values())
            for port in router.inputs.values()
            if port.receiver is not None
        )
        or any(eject.queue for eject in router.ejects.values())
    )


def next_event_by_walk(router, cycle):
    if holds_flits_by_walk(router):
        return cycle
    whens = []
    for out in router.outputs.values():
        whens.append(out.retrans.next_event_cycle(cycle))
        if out.credits.in_flight:
            whens.append(min(v for v, _ in out.credits._pending))
    whens = [max(w, cycle) for w in whens if w is not None]
    return min(whens) if whens else None


def drained_by_walk(net):
    # a core's backlog is a key only while it holds flits
    if net._backlogs:
        return False
    if net.traffic is not None and not net.traffic.done(net.cycle):
        return False
    for router in net.routers:
        if holds_flits_by_walk(router) or any(
            list(out.retrans) for out in router.outputs.values()
        ):
            return False
    return all(link.idle for link in net.links.values())


def audit(net, validator):
    validator.check()
    for router in net.routers:
        assert net._router_settled(router) == settled_by_walk(net, router)
        assert router.next_event_cycle(net.cycle) == next_event_by_walk(
            router, net.cycle
        )
    assert net.drained == drained_by_walk(net)


def offer(net, rng, pkt_id, rate):
    cfg = net.cfg
    for src in range(cfg.num_cores):
        if rng.random() < rate:
            dst = rng.randrange(cfg.num_cores - 1)
            dst += dst >= src
            vcs = cfg.num_vcs // 2 if cfg.topology == "torus" else cfg.num_vcs
            net.add_packet(
                Packet(
                    pkt_id=pkt_id, src_core=src, dst_core=dst,
                    vc_class=rng.randrange(vcs),
                    payload=[rng.getrandbits(64)] * rng.randrange(3),
                    created_cycle=net.cycle,
                )
            )
            pkt_id += 1
    return pkt_id


def in_flight_packet(net, rng):
    buffered = [
        vc.buffer[-1].pkt_id
        for router in net.routers
        for port in router.inputs.values()
        for vc in port.vcs
        if vc.buffer
    ]
    return rng.choice(buffered) if buffered else None


def seat_head(net, rng, pkt_id):
    """Seat a single-flit packet straight into an idle injection VC, as
    the router stage tests do, and wake its router."""
    cfg = net.cfg
    src, dst = rng.sample(range(cfg.num_cores), 2)
    flit = Packet(pkt_id=pkt_id, src_core=src, dst_core=dst).build_flits(
        cfg
    )[0]
    router = net.routers[cfg.router_of_core(src)]
    vc = router.inputs[("inj", cfg.local_index(src))].vcs[0]
    if vc.buffer or vc.route_out is not None:
        return False
    flit.last_move_cycle = net.cycle - 1
    vc.push(flit)
    net.wake_router(router.id)
    return True


NETWORKS = {
    "mesh": lambda: Network(PAPER_CONFIG),
    "torus": lambda: Network(TORUS),
    "mitigated": lambda: build_mitigated_network(PAPER_CONFIG),
}


def with_faults(kind):
    """The network with faults that keep flits staged across cycle
    boundaries: transient double-bit flips (NACKs, retransmissions,
    resequencing holes) on a plain network, an armed TASP trojan
    (L-Ob deobfuscation penalties, scramble waiters) on the mitigated
    one."""
    net = NETWORKS[kind]()
    if kind == "mitigated":
        trojan = TaspTrojan(TargetSpec.for_dest(5))
        trojan.enable()
        net.attach_tamperer((4, Direction.EAST), trojan)
        return net
    for i, key in enumerate(list(net.links)[::9]):
        net.attach_tamperer(
            key,
            TransientFaultModel(
                net.codec.codeword_bits, 0.2, SeededStream(i, "storm"),
                double_fraction=0.5,
            ),
        )
    return net


@pytest.mark.parametrize("kind", sorted(NETWORKS))
@pytest.mark.parametrize("seed", [1, 2])
def test_counters_track_buffers_every_cycle(kind, seed):
    rng = random.Random(seed)
    net = with_faults(kind)
    validator = NetworkValidator(net, families=("counters",))

    staged_at_step_end = 0

    def step():
        nonlocal staged_at_step_end
        net.step()
        audit(net, validator)
        staged_at_step_end += any(
            net.receiver_of(key).staged_count for key in net.links
        )

    # traffic, with packets seated straight into VCs now and then
    pkt_id = seated = 0
    for cycle in range(150):
        pkt_id = offer(net, rng, pkt_id, 0.05)
        step()
        if cycle % 25 == 24:
            seated += seat_head(net, rng, 10_000 + cycle)
            audit(net, validator)
    assert seated
    for _ in range(3000):
        if net.drained:
            break
        step()
    assert net.drained

    # a quiet link out of service and back again
    key = (5, Direction.EAST)
    net.disable_link(key)
    audit(net, validator)
    for _ in range(3):
        step()
    net.reinstate_link(key)
    audit(net, validator)

    # more traffic, purging in-flight packets now and then
    purges = 0
    for cycle in range(150):
        pkt_id = offer(net, rng, pkt_id, 0.05)
        step()
        if cycle % 30 == 29:
            doomed = in_flight_packet(net, rng)
            if doomed is not None:
                assert net.purge_packet(doomed, net.cycle) > 0
                purges += 1
                audit(net, validator)
    assert purges
    assert validator.report.checks > 300
    assert staged_at_step_end


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_dropped_networks_leave_no_cycles(kind):
    """A network is an acyclic object graph, so refcounting frees it the
    moment it is dropped and the cyclic collector finds nothing (VCs
    hold a shared counter object, never their port or router)."""
    gc.collect()
    net = NETWORKS[kind]()
    for pid in range(20):
        net.add_packet(Packet(pkt_id=pid, src_core=pid, dst_core=63 - pid))
    net.run(40)
    del net
    assert gc.collect() == 0
