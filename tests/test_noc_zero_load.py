"""Exact zero-load latency: a first-principles check of the pipeline.

A lone packet of ``f`` flits crossing an empty network between cores
whose routers are ``h`` hops apart is delivered exactly

    5*h + (f - 1) + 3

cycles after it was created, and its head counts ``h`` link hops.  The
terms, for the default configuration (link, ACK and credit latency 1):

* **injection** costs nothing extra: the network interface writes the
  head into its injection VC in the cycle the packet is created;
* **5 per hop**: route compute, VC allocation, switch allocation and
  traversal into the output's retransmission buffer, the link launch,
  and the arrival, which the receiver decodes and writes into the next
  router's input VC in the same cycle;
* **3 at the destination router**: route compute to the ejection
  port, switch traversal into the ejection queue, and the core taking
  the flit off the queue;
* **f - 1**: the body and tail flits follow the head one cycle apart
  through every stage, so only their serialization adds.

Every ordered pair of distinct routers is checked, plus a pair of
cores on one router (``h = 0``), with 1- and 4-flit packets, on the
paper's 4x4 mesh under each routing function, the 8x8 torus and an 8x8
mesh with span-2 express channels.  One network carries every packet
of a configuration; packets are created farther apart than twice the
longest latency, so each crosses a network holding nothing of the one
before it (ACKs and credit returns included).  The event engine skips
the empty cycles in between and steps the rest exactly as the sweep
does.  The VC buffers and ejection queues every flit passes through
are where a container change would show first.

The same formula holds for a containment detour, with ``h`` the length
of the path the reroute function actually takes: west-first with
non-minimal detours on the 4x4 mesh, clear-arc routing on the 8x8
torus, each around an avoid set.  ``h`` is found by walking the route
function over an idle network's routers, not read back from the run,
and each configuration has pairs whose detour is longer than their
minimal distance.
"""

import pytest

from repro.noc import Direction, Network, NoCConfig
from repro.noc.adaptive import avoid_routing
from repro.noc.topology import OPPOSITE, neighbor
from repro.sim import Scenario, Simulation
from repro.sim.scenario import ExplicitTraffic, PacketSpec

FLITS = (1, 4)

CONFIGS = [
    pytest.param(NoCConfig(routing=routing), id=f"mesh4-{routing}")
    for routing in ("xy", "yx", "west-first", "odd-even")
] + [
    pytest.param(NoCConfig(8, 8, topology="torus"), id="torus8"),
    pytest.param(NoCConfig(8, 8, express_interval=2), id="express8"),
]

DETOURS = [
    pytest.param(
        NoCConfig(routing="west-first"),
        "west-first",
        {(5, Direction.EAST), (9, Direction.NORTH)},
        id="mesh4-west-first-avoid",
    ),
    pytest.param(
        NoCConfig(8, 8, topology="torus"),
        "torus-arc",
        {(9, Direction.EAST), (18, Direction.NORTH)},
        id="torus8-arc-avoid",
    ),
]


def zero_load_latency(hops: int, flits: int) -> int:
    return 5 * hops + (flits - 1) + 3


def walked_hops(network: Network, route_fn, src: int, dst: int) -> int:
    """Links ``route_fn`` takes from router ``src`` to ``dst`` over the
    idle ``network``, each router seeing the input port the head
    arrives on (detour routing refuses 180-degree turns)."""
    cfg = network.cfg
    cur, arrival, hops = src, ("inj", 0), 0
    while cur != dst:
        router = network.routers[cur]
        router.routing_input = arrival
        direction = route_fn(cur, dst, src, router)
        assert direction is not None and hops < cfg.num_routers, (src, dst)
        cur, arrival = neighbor(cfg, cur, direction), OPPOSITE[direction]
        hops += 1
    return hops


def lone_packets(cfg: NoCConfig, hops) -> tuple[PacketSpec, ...]:
    """One packet per (size, router pair), each alone in the network."""
    routers = range(cfg.num_routers)
    pairs = [(a, b) for a in routers for b in routers if a != b]
    pairs.append((0, 0))
    longest = max(
        zero_load_latency(hops(a, b), max(FLITS)) for a, b in pairs
    )
    gap = 2 * longest + 1
    specs = []
    for flits in FLITS:
        for src_router, dst_router in pairs:
            same = src_router == dst_router
            specs.append(
                PacketSpec(
                    pkt_id=len(specs),
                    src_core=cfg.core_of(src_router, 0),
                    dst_core=cfg.core_of(dst_router, 1 if same else 0),
                    inject_at=len(specs) * gap,
                    payload=tuple(range(flits - 1)),
                )
            )
    return tuple(specs)


def assert_latency_is_exact(cfg: NoCConfig, hops, route_fn=None) -> None:
    """Every lone packet lands exactly ``zero_load_latency`` after it
    was created, over ``hops(src router, dst router)`` links."""
    packets = lone_packets(cfg, hops)
    sim = Simulation(
        Scenario(
            name="zero-load",
            cfg=cfg,
            traffic=(ExplicitTraffic(packets),),
            sample_interval=0,
            max_cycles=packets[-1].inject_at + 1000,
        ),
        engine="event",
    )
    if route_fn is not None:
        sim.network.set_route_fn(route_fn)
    sim.run()
    stats = sim.network.stats
    assert stats.packets_completed == len(packets)
    wrong = []
    for spec in packets:
        record = stats.packets[spec.pkt_id]
        h = hops(
            cfg.router_of_core(spec.src_core),
            cfg.router_of_core(spec.dst_core),
        )
        expected = zero_load_latency(h, 1 + len(spec.payload))
        if record.total_latency != expected or record.hops != h:
            wrong.append(
                (spec.src_core, spec.dst_core, record.num_flits,
                 record.total_latency, expected, record.hops, h)
            )
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_lone_packet_latency_is_exact(cfg):
    assert_latency_is_exact(cfg, cfg.hop_distance)


@pytest.mark.parametrize("cfg, model, avoid", DETOURS)
def test_detour_latency_is_exact(cfg, model, avoid):
    route_fn = avoid_routing(cfg, model, avoid).route
    idle = Network(cfg)
    routers = range(cfg.num_routers)
    paths = {
        (a, b): walked_hops(idle, route_fn, a, b)
        for a in routers
        for b in routers
    }
    assert any(h > cfg.hop_distance(a, b) for (a, b), h in paths.items())
    assert_latency_is_exact(cfg, lambda a, b: paths[a, b], route_fn)
