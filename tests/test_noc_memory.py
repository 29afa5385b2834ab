"""Memory budgets: a network costs what it holds.

Bounded FIFOs (VC buffers, ejection queues, link wires) are lists, and
state that is unbounded or rarely used (injection backlogs, a
receiver's skip sets and poison log) exists only while in use.  The
budgets are traced Python allocation per router of a freshly built
network, the same on Python 3.11 and 3.12; see "Memory per router" in
docs/performance.md for the figures per component.
"""

import pytest

from repro.core.mitigation import build_mitigated_network
from repro.experiments.chaos import campaigns
from repro.noc import Network, NoCConfig, PAPER_CONFIG
from repro.noc.invariants import NetworkValidator
from repro.obs.perf import traced_build
from repro.sim import Simulation

KIB = 1024


@pytest.mark.parametrize(
    "build, budget_kib",
    [
        pytest.param(lambda: Network(NoCConfig(16, 16)), 26, id="mesh16"),
        pytest.param(
            lambda: Network(NoCConfig(8, 8, topology="torus")), 26,
            id="torus8",
        ),
        # measured 40.4 KiB per router (71.0 with deque FIFOs), plus 15%
        pytest.param(
            lambda: build_mitigated_network(PAPER_CONFIG), 46.5,
            id="mitigated4",
        ),
    ],
)
def test_build_stays_within_budget(build, budget_kib):
    net, held = traced_build(build)
    assert held / net.cfg.num_routers <= budget_kib * KIB


def test_drained_run_keeps_no_empty_containers():
    # the unmitigated TASP run the watchdog defends by dropping pinned
    # packets, which skips their sequence numbers downstream
    bare_watchdog = campaigns()[2].scenario
    sim = Simulation(bare_watchdog)
    net = sim.network
    receivers = [net.receiver_of(key) for key in net.links]
    skipped = False
    for _ in range(bare_watchdog.max_cycles):
        if net.drained:
            break
        sim.step()
        skipped = skipped or any(r._skipped for r in receivers)
    assert net.drained and skipped
    assert net._backlogs == {}
    assert all(
        skips for r in receivers for skips in r._skipped.values()
    )
    assert NetworkValidator(net, families=("counters",)).check(
        raise_on_violation=False
    ).ok


def test_poison_log_evicts_the_oldest_beyond_capacity():
    net = Network(PAPER_CONFIG)
    receiver = net.receiver_of(next(iter(net.links)))
    for pkt_id in range(10):
        receiver.poison_packet(pkt_id, capacity=4)
    assert list(receiver.poisoned_packets) == [6, 7, 8, 9]
    receiver.poison_packet(7, capacity=4)  # already condemned: no refresh
    receiver.poison_packet(10, capacity=4)
    assert list(receiver.poisoned_packets) == [7, 8, 9, 10]
    for pkt_id in range(11, 300):
        receiver.poison_packet(pkt_id)
    assert list(receiver.poisoned_packets) == list(range(44, 300))
