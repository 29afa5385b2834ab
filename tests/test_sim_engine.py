"""Engine semantics: scenario wiring and active-set/full-sweep identity."""

import dataclasses

import pytest

from repro.core import TargetSpec
from repro.experiments.export import to_jsonable
from repro.faults.models import StuckAtKind
from repro.noc.config import PAPER_CONFIG
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.topology import Direction
from repro.resilience.watchdog import WatchdogConfig
from repro.sim import (
    AppTraffic,
    DefenseSpec,
    ExplicitTraffic,
    PacketSpec,
    Scenario,
    Simulation,
    SyntheticTraffic,
    TransientFaultSpec,
    TrojanSpec,
    engine,
)
from repro.sim.engine import ScheduledSource
from repro.sim.scenario import LinkKillSpec, StuckAtSpec


def stats_snapshot(net: Network) -> dict:
    """Every NetworkStats field (counters, per-packet records, samples)
    as plain JSON types, for bit-exact comparison."""
    return to_jsonable(vars(net.stats))


def fig2_style() -> Scenario:
    """Drain-heavy targeted flow through an infected, mitigated link."""
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0, dst_core=PAPER_CONFIG.core_of(11, 1),
                   mem_addr=0x100, inject_at=i * 40)
        for i in range(8)
    )
    return Scenario(
        name="fig2-style",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(11)),
        ),
        defense=DefenseSpec(mitigated=True),
        max_cycles=4000,
        stall_limit=1500,
    )


def chaos_style() -> Scenario:
    """Watchdog ladder + delayed trojan over live app traffic."""
    return Scenario(
        name="chaos-style",
        cfg=PAPER_CONFIG,
        traffic=(
            AppTraffic(profile="blackscholes", duration=400),
            SyntheticTraffic(injection_rate=0.01, duration=400, seed=7),
        ),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(15),
                       enabled=False, enable_at=50),
        ),
        defense=DefenseSpec(watchdog=WatchdogConfig()),
        max_cycles=3000,
        stall_limit=1200,
    )


def mixed_faults() -> Scenario:
    """A trojan window, a windowed burst, a stuck-at onset and a link
    kill on the (0..3, EAST) row under sparse traffic, so the event
    engine has cycles to skip between the edges.  Every fifth packet
    heads for router 14, the trojan's target."""
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0, dst_core=56 if i % 5 == 3 else 63,
                   inject_at=i * 40, payload=(i, i + 1))
        for i in range(20)
    )
    return Scenario(
        name="mixed-faults",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(14),
                       enabled=False, enable_at=80, disable_at=300),
        ),
        faults=(
            TransientFaultSpec((1, Direction.EAST), rate=0.2,
                               double_fraction=0.3, seed=4,
                               labels=("burst", 1, "EAST", 100),
                               enable_at=100, disable_at=250),
        ),
        wire_faults=(
            StuckAtSpec((1, Direction.EAST), at=150, positions=(7,),
                        value=StuckAtKind.ONE),
            LinkKillSpec((2, Direction.EAST), at=200),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=3000,
        stall_limit=1200,
    )


def fault_counters(sim: Simulation) -> dict:
    """Ground truth of every fault and per-link traffic, for comparing
    two runs of one scenario."""
    burst, stuck, kill = sim.faults
    return {
        "trojans": [t.faults_injected for t in sim.trojans],
        "faults": [burst.events, burst.bits_flipped, stuck.activations,
                   kill.activations],
        "links": {
            repr(key): (link.traversals, link.corrupted_traversals)
            for key, link in sim.network.links.items()
        },
    }


class TestScheduledFaults:
    """Windowed and onset faults are scenario specs fired from the
    simulation's one edge list."""

    def test_faults_join_and_leave_the_tamper_chain(self):
        sim = Simulation(mixed_faults())
        chain = sim.network.links[(1, Direction.EAST)].tamperers
        burst, stuck, kill = sim.faults
        sim.advance_to(99)
        assert chain == []
        sim.advance_to(100)
        assert chain == [burst]
        sim.advance_to(150)
        assert chain == [burst, stuck]  # stacked in onset order
        assert sim.network.links[(2, Direction.EAST)].tamperers == []
        sim.advance_to(200)
        assert sim.network.links[(2, Direction.EAST)].tamperers == [kill]
        sim.advance_to(250)
        assert chain == [stuck]

    def test_every_fault_fired(self):
        sim = Simulation(mixed_faults())
        sim.run()
        counters = fault_counters(sim)
        assert counters["trojans"][0] > 0
        assert all(counters["faults"])

    def test_sweep_and_event_engines_agree(self):
        sims = {
            mode: Simulation(mixed_faults(), engine=mode)
            for mode in ("sweep", "event")
        }
        runs = {
            mode: (sim.run(), stats_snapshot(sim.network),
                   fault_counters(sim))
            for mode, sim in sims.items()
        }
        assert runs["sweep"] == runs["event"]
        assert sims["event"].event_core.cycles_skipped > 0

    @pytest.mark.parametrize("mode", ["sweep", "event"])
    def test_restore_mid_window_matches_straight_run(self, mode):
        straight = Simulation(mixed_faults(), engine=mode)
        expected = (straight.run(), stats_snapshot(straight.network),
                    fault_counters(straight))
        sim = Simulation(mixed_faults(), engine=mode)
        sim.advance_to(180)  # inside the burst and the trojan window
        resumed = Simulation.restore(sim.snapshot())
        got = (resumed.run(), stats_snapshot(resumed.network),
               fault_counters(resumed))
        assert got == expected


class TestActiveSetIdentity:
    def run_both(self, scenario):
        active = Simulation(scenario)
        full = Simulation(scenario, full_sweep=True)
        assert not active.network.full_sweep
        assert full.network.full_sweep
        ra = active.run()
        rf = full.run()
        return active, full, ra, rf

    def test_fig2_style_bit_identical(self):
        active, full, ra, rf = self.run_both(fig2_style())
        assert ra == rf
        assert stats_snapshot(active.network) == stats_snapshot(full.network)

    def test_chaos_style_bit_identical(self):
        active, full, ra, rf = self.run_both(chaos_style())
        assert ra == rf
        assert stats_snapshot(active.network) == stats_snapshot(full.network)
        # the delayed trojan really fired in both runs
        assert active.trojans[0].triggers == full.trojans[0].triggers > 0

    def test_settled_network_prunes_to_empty(self):
        sim = Simulation(fig2_style())
        sim.run()
        net = sim.network
        for _ in range(5):
            net.step()
        assert not net._active_routers
        assert not net._active_links


class TestEngineWiring:
    def test_scheduled_source_matches_add_packet(self):
        """ExplicitTraffic replays exactly like pre-loading the backlog."""
        specs = tuple(
            PacketSpec(pkt_id=i, src_core=0, dst_core=63, vc_class=i % 4,
                       mem_addr=0x55)
            for i in range(10)
        )
        via_engine = engine.build(
            Scenario(cfg=PAPER_CONFIG,
                     traffic=(ExplicitTraffic(packets=specs),))
        )
        via_engine.run_until_drained(3000)

        manual = Network(PAPER_CONFIG)
        for s in specs:
            manual.add_packet(
                Packet(pkt_id=s.pkt_id, src_core=s.src_core,
                       dst_core=s.dst_core, vc_class=s.vc_class,
                       mem_addr=s.mem_addr, created_cycle=0)
            )
        manual.run_until_drained(3000)
        assert stats_snapshot(via_engine) == stats_snapshot(manual)

    def test_scheduled_source_emits_past_due_packets(self):
        """After a clock jump every packet due at or before the cycle
        comes out at once, in schedule order."""
        source = ScheduledSource(ExplicitTraffic(packets=(
            PacketSpec(pkt_id=1, src_core=0, dst_core=4, inject_at=5),
            PacketSpec(pkt_id=2, src_core=0, dst_core=8, inject_at=7),
            PacketSpec(pkt_id=3, src_core=1, dst_core=8, inject_at=20),
        )))
        assert source.generate(3) == []
        assert source.next_active_cycle(3) == 5
        assert source.next_active_cycle(10) == 10  # two are past due
        emitted = source.generate(10)
        assert [p.pkt_id for p in emitted] == [1, 2]
        assert {p.created_cycle for p in emitted} == {10}
        assert source.next_active_cycle(10) == 20
        assert not source.done(10)
        assert [p.pkt_id for p in source.generate(20)] == [3]
        assert source.done(20)
        assert source.next_active_cycle(20) is None

    def test_run_returns_result(self):
        result = engine.run(fig2_style())
        assert result.completed
        assert result.packets_completed == 8
        assert result.name == "fig2-style"

    def test_build_applies_defense_stack(self):
        scenario = dataclasses.replace(
            fig2_style(),
            defense=DefenseSpec(
                mitigated=True, e2e=True, tdm_domains=2,
                watchdog=WatchdogConfig(),
            ),
        )
        sim = Simulation(scenario)
        assert sim.network.e2e is not None
        assert sim.network.policy is not None
        assert sim.watchdog is not None

    def test_reroute_defense_avoids_condemned_link(self):
        scenario = dataclasses.replace(
            fig2_style(),
            trojans=(),
            defense=DefenseSpec(rerouted_links=((0, Direction.EAST),)),
        )
        result = engine.run(scenario)
        assert result.completed
        assert result.packets_completed == 8
