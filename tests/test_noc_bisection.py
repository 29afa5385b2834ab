"""A first-principles oracle: no network delivers past its bisection.

Cut the routers at x = k/2.  Every flit of a packet sent from the left
half to the right half crosses one of the left-to-right cut links, and
a link carries at most one flit per cycle, so those packets' ejected
flits cannot exceed (left-to-right cut links) x cycles.  The same holds
right to left.  The 4x4 paper mesh has k cut links per direction; the
8x8 torus has 2k, its wrap links included.

Uniform traffic sends half of all flits across the cut on average
(N/2 of the N - 1 other cores lie on the far side), which turns the cut
into a bound on the whole chip's delivered throughput: 4k(N-1)/N
flits/cycle on the mesh and 8k(N-1)/N on the torus, N being the number
of cores.  Both checks run from an empty network, below and past
saturation, under xy and west-first routing on the mesh and xy on the
torus.  Neither asserts symmetry between the two directions: past
saturation the torus serves its source columns unevenly.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.noc.config import PAPER_CONFIG, NoCConfig
from repro.noc.topology import link_endpoints
from repro.sim import Scenario, Simulation, SyntheticTraffic

CYCLES = 900
#: delivered throughput is measured from here to CYCLES
WARMUP = 300
RATES = (0.1, 0.3)

NETWORKS = {
    "mesh4-xy": PAPER_CONFIG,
    "mesh4-west-first": dataclasses.replace(
        PAPER_CONFIG, routing="west-first"
    ),
    "torus8": NoCConfig(mesh_width=8, mesh_height=8, topology="torus"),
}

CASES = [(name, rate) for name in NETWORKS for rate in RATES]


def left_half(cfg: NoCConfig, router: int) -> bool:
    return cfg.router_xy(router)[0] < cfg.mesh_width // 2


@dataclasses.dataclass
class Crossings:
    """Ejected flits of packets that had to cross the cut, per
    direction, and every ejected flit after the warm-up."""

    cfg: NoCConfig
    left_to_right: int = 0
    right_to_left: int = 0
    delivered: int = 0

    def __call__(self, flit, cycle: int, core: int) -> None:
        cfg = self.cfg
        src_left = left_half(cfg, cfg.router_of_core(flit.src_core))
        if src_left != left_half(cfg, cfg.router_of_core(core)):
            if src_left:
                self.left_to_right += 1
            else:
                self.right_to_left += 1
        if cycle >= WARMUP:
            self.delivered += 1


def cut_links(net) -> tuple[int, int]:
    """(left-to-right, right-to-left) links across x = k/2."""
    cfg = net.cfg
    forward = backward = 0
    for key in net.links:
        src, dst = link_endpoints(cfg, key)
        src_left = left_half(cfg, src)
        if src_left != left_half(cfg, dst):
            if src_left:
                forward += 1
            else:
                backward += 1
    return forward, backward


@lru_cache(maxsize=None)
def run(name: str, rate: float):
    cfg = NETWORKS[name]
    sim = Simulation(
        Scenario(
            name=f"bisection-{name}-{rate}",
            cfg=cfg,
            traffic=(
                SyntheticTraffic(
                    injection_rate=rate, payload_words=1, seed=5
                ),
            ),
        )
    )
    crossings = Crossings(cfg)
    sim.network.ejection_hooks.append(crossings)
    sim.advance_to(CYCLES)
    return crossings, cut_links(sim.network)


@pytest.mark.parametrize("name,rate", CASES)
def test_cut_traffic_fits_the_cut_links(name, rate):
    crossings, (forward, backward) = run(name, rate)
    k = NETWORKS[name].mesh_width
    per_direction = 2 * k if NETWORKS[name].topology == "torus" else k
    assert forward == backward == per_direction
    assert 0 < crossings.left_to_right <= forward * CYCLES
    assert 0 < crossings.right_to_left <= backward * CYCLES


@pytest.mark.parametrize("name,rate", CASES)
def test_delivered_throughput_within_the_uniform_bound(name, rate):
    crossings, (forward, _) = run(name, rate)
    cores = NETWORKS[name].num_cores
    # each direction of the cut carries N/(4(N-1)) of uniform traffic
    bound = 4 * forward * (cores - 1) / cores
    throughput = crossings.delivered / (CYCLES - WARMUP)
    assert 0 < throughput <= bound
