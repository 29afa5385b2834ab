"""Online sentinel: pure-observer identity, detectors, codec.

The two load-bearing guarantees: a sentinel-monitored run is
bit-identical to an unmonitored one (the sentinel never mutates
network state), and the active-scoped flit sweep reaches the same
verdict — same failure kind at the same cycle — as the exhaustive
full-sweep audit.
"""

import dataclasses
import json

import pytest

from repro.noc.topology import Direction
from repro.sim import (
    DefenseSpec,
    ExplicitTraffic,
    PacketSpec,
    Scenario,
    Sentinel,
    SentinelSpec,
    SentinelTrip,
    Simulation,
    planted_deadlock_scenario,
)
from tests.test_sim_engine import chaos_style, fig2_style, stats_snapshot


def undefended_chaos_style() -> Scenario:
    """chaos_style without the watchdog: the TASP trojan farms
    retransmissions forever, the paper's baseline livelock."""
    return dataclasses.replace(chaos_style(), defense=DefenseSpec())


def with_sentinel(scenario: Scenario, **kwargs) -> Scenario:
    return dataclasses.replace(scenario, sentinel=SentinelSpec(**kwargs))


class TestPureObserver:
    """Sentinel on vs off: bit-identical results and stats."""

    def run_pair(self, scenario, **spec_kwargs):
        bare = Simulation(scenario)
        monitored = Simulation(with_sentinel(scenario, **spec_kwargs))
        assert monitored.sentinel is not None
        rb = bare.run()
        rm = monitored.run()
        return bare, monitored, rb, rm

    def test_fig2_style_bit_identical(self):
        bare, monitored, rb, rm = self.run_pair(fig2_style())
        assert rb == rm
        assert stats_snapshot(bare.network) == stats_snapshot(
            monitored.network
        )
        assert monitored.sentinel.checks > 0
        assert monitored.sentinel.report.ok

    def test_chaos_style_bit_identical(self):
        # without the watchdog, chaos_style genuinely livelocks (the
        # bare run gives up via its stall limit), so run the invariant
        # families only: the progress detectors would — correctly —
        # trip first
        bare, monitored, rb, rm = self.run_pair(
            undefended_chaos_style(), livelock_sends=0, deadlock_window=0
        )
        assert not rb.completed  # the workload really is pathological
        assert rb == rm
        assert stats_snapshot(bare.network) == stats_snapshot(
            monitored.network
        )

    def test_chaos_style_defended_completes(self):
        """With the watchdog ladder (and the network-wide purge behind
        its drop stage) the same trojaned workload drains cleanly —
        and the sentinel certifies it."""
        bare, monitored, rb, rm = self.run_pair(chaos_style())
        assert rb.completed
        assert rb == rm
        assert monitored.sentinel.checks > 0
        assert monitored.sentinel.report.ok

    def test_chaos_style_livelock_caught_early(self):
        """On the undefended, retry-forever chaos workload the default
        sentinel calls livelock long before the engine's stall limit
        gives up."""
        bare = Simulation(undefended_chaos_style())
        stalled_at = bare.run().cycles
        with pytest.raises(SentinelTrip) as excinfo:
            Simulation(with_sentinel(undefended_chaos_style())).run()
        assert excinfo.value.kind == "livelock"
        assert excinfo.value.cycle < stalled_at

    def test_every_zero_disables(self):
        sim = Simulation(with_sentinel(fig2_style(), every=0))
        assert sim.sentinel is None
        assert not sim.network.monitors


class TestDetectors:
    def test_planted_scenario_trips_livelock(self):
        sim = Simulation(planted_deadlock_scenario())
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        trip = excinfo.value
        assert trip.kind == "livelock"
        assert trip.cycle > 0
        assert "re-sent" in str(trip)

    def test_active_scope_agrees_with_full_sweep(self):
        """Same verdict — kind and cycle — under active-set stepping
        with the sampled sweep and under full sweep with the
        exhaustive one."""
        scenario = planted_deadlock_scenario()
        trips = {}
        for label, scope, full_sweep in (
            ("active", "active", False),
            ("full", "full", True),
        ):
            scn = dataclasses.replace(
                scenario,
                sentinel=dataclasses.replace(
                    scenario.sentinel, flit_scope=scope
                ),
            )
            with pytest.raises(SentinelTrip) as excinfo:
                Simulation(scn, full_sweep=full_sweep).run()
            trips[label] = (excinfo.value.kind, excinfo.value.cycle)
        assert trips["active"] == trips["full"]

    def test_deadlock_detector(self):
        """Disabling every link freezes all movement with flits still
        in-network: the sentinel must call global deadlock."""
        packets = tuple(
            PacketSpec(pkt_id=i, src_core=0, dst_core=63,
                       inject_at=0, payload=(0xAA, 0xBB))
            for i in range(4)
        )
        scenario = Scenario(
            name="manufactured-deadlock",
            traffic=(ExplicitTraffic(packets=packets),),
            max_cycles=4000,
            sentinel=SentinelSpec(
                every=8, deadlock_window=64, livelock_sends=0
            ),
        )
        sim = Simulation(scenario)
        for _ in range(6):
            sim.step()
        stats = sim.network.stats
        assert stats.flits_injected > stats.flits_ejected
        for link in sim.network.links.values():
            link.disabled = True
        with pytest.raises(SentinelTrip) as excinfo:
            for _ in range(500):
                sim.step()
        assert excinfo.value.kind == "deadlock"
        assert "no movement" in str(excinfo.value)

    def test_invariant_trip_carries_report(self):
        """Corrupting a credit counter mid-run trips the credit family
        with the validator's report attached."""
        sim = Simulation(with_sentinel(fig2_style(), every=4))
        for _ in range(8):
            sim.step()
        out = sim.network.output_port_of((0, Direction.EAST))
        out.credits._credits[0] -= 1
        with pytest.raises(SentinelTrip) as excinfo:
            for _ in range(50):
                sim.step()
        trip = excinfo.value
        assert trip.kind == "invariant:credit"
        assert trip.report is not None
        assert not trip.report.ok
        assert "credit conservation" in trip.report.violations[0]

    def test_trip_is_an_invariant_violation(self):
        from repro.noc.invariants import InvariantViolation

        trip = SentinelTrip("deadlock", 7, "frozen")
        assert isinstance(trip, InvariantViolation)
        assert isinstance(trip, RuntimeError)
        assert (trip.kind, trip.cycle) == ("deadlock", 7)


class TestSpecValidation:
    def test_unknown_family_rejected_at_build(self):
        with pytest.raises(ValueError, match="families"):
            Sentinel(SentinelSpec(families=("credit", "karma")))

    def test_unknown_scope_rejected_at_build(self):
        with pytest.raises(ValueError, match="flit_scope"):
            Sentinel(SentinelSpec(flit_scope="sometimes"))


class TestScenarioCodec:
    def test_round_trip(self):
        scenario = with_sentinel(
            fig2_style(), every=32, families=("credit", "flit"),
            flit_scope="full", deadlock_window=250, livelock_sends=9,
        )
        back = Scenario.from_json(scenario.to_json())
        assert back == scenario
        assert back.sentinel == scenario.sentinel
        assert back.content_hash() == scenario.content_hash()

    def test_none_round_trips(self):
        scenario = fig2_style()
        assert scenario.sentinel is None
        assert Scenario.from_json(scenario.to_json()).sentinel is None

    def test_pre_sentinel_json_still_decodes(self):
        """Scenario files written before the sentinel existed have no
        "sentinel" key; they must keep decoding."""
        data = json.loads(fig2_style().to_json())
        del data["sentinel"]
        back = Scenario.from_dict(data)
        assert back.sentinel is None
        assert back.name == "fig2-style"
