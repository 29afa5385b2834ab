"""Event engine: engine selection, oracle identity, skip decisions.

The sweep engine is the oracle: every behaviour-bearing artifact
(stats, results, checkpoints) produced under ``engine="event"`` must be
bit-identical to the sweep run of the same scenario.  Cross-process
``PYTHONHASHSEED`` immunity lives in ``tests/test_engine_oracle.py``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.export import to_jsonable
from repro.sim import (
    ENGINE_ENV,
    EventCore,
    Scenario,
    ScenarioDecodeError,
    Simulation,
    SyntheticTraffic,
    engine,
)

from tests.test_sim_engine import chaos_style, fig2_style, stats_snapshot

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def canonical(result, net) -> str:
    return json.dumps(
        {
            "result": dataclasses.asdict(result),
            "stats": stats_snapshot(net),
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_default_is_sweep(self):
        sim = Simulation(fig2_style())
        assert sim.engine == "sweep"
        assert sim.event_core is None

    def test_explicit_event(self):
        sim = Simulation(fig2_style(), engine="event")
        assert sim.engine == "event"
        assert isinstance(sim.event_core, EventCore)

    def test_scenario_field_selects_event(self):
        scenario = dataclasses.replace(fig2_style(), engine="event")
        sim = Simulation(scenario)
        assert sim.engine == "event"

    def test_env_var_overrides_scenario(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "event")
        sim = Simulation(fig2_style())
        assert sim.engine == "event"

    def test_explicit_param_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "event")
        sim = Simulation(fig2_style(), engine="sweep")
        assert sim.engine == "sweep"

    def test_full_sweep_forces_sweep_engine(self):
        sim = Simulation(fig2_style(), full_sweep=True, engine="event")
        assert sim.engine == "sweep"
        assert sim.event_core is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulation(fig2_style(), engine="warp")

    def test_unknown_env_engine_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp")
        with pytest.raises(ValueError, match="unknown engine"):
            Simulation(fig2_style())


class TestScenarioEngineField:
    def test_round_trip(self):
        scenario = dataclasses.replace(fig2_style(), engine="event")
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_sweep_not_emitted(self):
        # older scenario files stay byte-stable: the default engine is
        # omitted from the encoding entirely
        assert "engine" not in fig2_style().to_dict()

    def test_content_hash_ignores_engine(self):
        # both engines produce identical artifacts, so cache entries
        # and checkpoints are shared across them by design
        base = fig2_style()
        event = dataclasses.replace(base, engine="event")
        assert base.content_hash() == event.content_hash()

    def test_unknown_engine_value_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(fig2_style(), engine="warp")

    def test_unknown_encoded_engine_rejected(self):
        data = fig2_style().to_dict()
        data["engine"] = "warp"
        with pytest.raises(ScenarioDecodeError):
            Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# oracle identity
# ---------------------------------------------------------------------------
class TestEventVsSweepIdentity:
    def run_both(self, scenario):
        sweep = Simulation(scenario, engine="sweep")
        event = Simulation(scenario, engine="event")
        return sweep, event, sweep.run(), event.run()

    @pytest.mark.parametrize("build", [fig2_style, chaos_style])
    def test_bit_identical(self, build):
        sweep, event, rs, re_ = self.run_both(build())
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)

    def test_event_engine_actually_skips(self):
        _, event, _, result = self.run_both(fig2_style())
        core = event.event_core
        assert core.cycles_skipped > 0
        assert core.leaps > 0
        # every skipped cycle still counts against the simulated total
        assert result.cycles == event.network.cycle

    def test_wake_accounting_is_deterministic(self):
        a = Simulation(fig2_style(), engine="event")
        b = Simulation(fig2_style(), engine="event")
        a.run()
        b.run()
        assert a.event_core.pinned_by == b.event_core.pinned_by
        assert a.event_core.cycles_skipped == b.event_core.cycles_skipped

    def test_delayed_trojan_fires_identically(self):
        # chaos_style arms its trojan at cycle 50 via a scheduled
        # enable; the event engine must not teleport past the edge
        sweep, event, _, _ = self.run_both(chaos_style())
        assert event.trojans[0].triggers == sweep.trojans[0].triggers > 0

    def test_torus_defense_stack_identical(self):
        # wrap routing, dateline VCs, and the detect->localize->
        # targeted-quarantine pipeline under both engines
        from repro.core import TargetSpec
        from repro.noc.config import NoCConfig
        from repro.noc.topology import Direction
        from repro.resilience.containment import ContainmentConfig
        from repro.resilience.detect import DetectConfig
        from repro.resilience.localize import LocalizeConfig
        from repro.resilience.watchdog import WatchdogConfig
        from repro.sim import DefenseSpec, TrojanSpec

        scenario = Scenario(
            name="torus-oracle",
            cfg=NoCConfig(mesh_width=4, mesh_height=4, topology="torus"),
            traffic=(
                SyntheticTraffic(injection_rate=0.03, duration=1400,
                                 seed=7),
            ),
            trojans=(
                TrojanSpec((5, Direction.EAST), TargetSpec.for_vc(0),
                           enabled=False, enable_at=700),
            ),
            defense=DefenseSpec(
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
                detector=DetectConfig(),
                localizer=LocalizeConfig(),
            ),
            duration=1600,
        )
        sweep, event, rs, re_ = self.run_both(scenario)
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)
        assert (
            sweep.localizer.summary() == event.localizer.summary()
        )
        assert (
            sweep.containment.summary() == event.containment.summary()
        )

    def test_express_mesh_identical(self):
        from repro.noc.config import NoCConfig

        scenario = Scenario(
            name="express-oracle",
            cfg=NoCConfig(mesh_width=6, mesh_height=6,
                          express_interval=2),
            traffic=(
                SyntheticTraffic(injection_rate=0.03, duration=800,
                                 seed=5),
            ),
            duration=1000,
        )
        sweep, event, rs, re_ = self.run_both(scenario)
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)

    def test_stall_abort_identical(self):
        # a flow that dies mid-run must abort at the same cycle: the
        # trojan drops everything and nothing is mitigated
        from repro.sim import DefenseSpec

        scenario = dataclasses.replace(
            fig2_style(),
            defense=DefenseSpec(),
            max_cycles=4000,
            stall_limit=300,
        )
        sweep, event, rs, re_ = self.run_both(scenario)
        assert not rs.completed
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)

    def test_advance_to_duration_identical(self):
        scenario = chaos_style()
        sweep = Simulation(scenario, engine="sweep")
        event = Simulation(scenario, engine="event")
        for target in (30, 49, 50, 51, 400, 1500):
            sweep.advance_to(target)
            event.advance_to(target)
            assert sweep.network.cycle == event.network.cycle == target
            assert stats_snapshot(sweep.network) == stats_snapshot(
                event.network
            )

    def test_synthetic_traffic_pins_the_clock(self):
        # Bernoulli sources draw RNG every non-done cycle, so nothing
        # may be skipped while one is live
        scenario = Scenario(
            cfg=fig2_style().cfg,
            traffic=(SyntheticTraffic(injection_rate=0.005, duration=300),),
            max_cycles=2000,
            stall_limit=800,
        )
        sweep, event, rs, re_ = self.run_both(scenario)
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)

    def test_sentinel_cadence_identical(self):
        from repro.sim.sentinel import SentinelSpec

        scenario = dataclasses.replace(
            fig2_style(), sentinel=SentinelSpec(every=50)
        )
        sweep, event, rs, re_ = self.run_both(scenario)
        assert rs == re_
        assert sweep.sentinel.checks == event.sentinel.checks > 0
        assert canonical(rs, sweep.network) == canonical(re_, event.network)


# ---------------------------------------------------------------------------
# checkpoints carry the scheduler
# ---------------------------------------------------------------------------
_CHILD = """
import dataclasses, json, sys
from repro.experiments.export import to_jsonable
from repro.sim import Simulation
sim = Simulation.restore(sys.argv[1])
result = sim.run()
print(json.dumps(
    {
        "engine": sim.engine,
        "result": dataclasses.asdict(result),
        "stats": to_jsonable(vars(sim.network.stats)),
    },
    sort_keys=True,
))
"""


class TestEventCheckpoints:
    def test_mid_run_restore_continues_identically(self):
        scenario = fig2_style()
        straight = Simulation(scenario, engine="event")
        expected_result = straight.run()
        expected = canonical(expected_result, straight.network)

        sim = Simulation(scenario, engine="event")
        sim.advance_to(120)
        resumed = Simulation.restore(sim.snapshot())
        assert resumed.engine == "event"
        assert resumed.event_core is not None
        resumed_result = resumed.run()
        assert resumed_result == expected_result
        assert canonical(resumed_result, resumed.network) == expected

    def test_restore_in_fresh_process(self, tmp_path):
        scenario = fig2_style()
        straight = Simulation(scenario, engine="event")
        expected = {
            "engine": "event",
            "result": dataclasses.asdict(straight.run()),
            "stats": stats_snapshot(straight.network),
        }

        sim = Simulation(scenario, engine="event")
        sim.advance_to(120)
        path = sim.snapshot().save(tmp_path / "state.ckpt")

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == json.dumps(expected, sort_keys=True)

    def test_periodic_checkpoints_identical_under_event(self, tmp_path):
        # the checkpoint cadence lands cycles, so checkpointed event
        # runs still match the sweep bit-for-bit
        scenario = fig2_style()
        sweep = Simulation(scenario, engine="sweep")
        rs = sweep.run()

        event = Simulation(scenario, engine="event")
        event.configure_checkpoints(tmp_path, interval=60)
        re_ = event.run()
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)
        assert list(tmp_path.glob("*.ckpt"))

    def test_engine_mode_survives_resume_or_build(self, tmp_path):
        scenario = fig2_style()
        sim = Simulation(scenario, engine="event")
        sim.configure_checkpoints(tmp_path, interval=50)
        sim.advance_to(130)  # "killed" here; checkpoints exist

        resumed = engine.resume_or_build(
            scenario, tmp_path, engine="event"
        )
        assert resumed.resumed_from_cycle is not None
        assert resumed.engine == "event"
        result = resumed.run()

        straight = Simulation(scenario, engine="sweep").run()
        assert result == straight


# ---------------------------------------------------------------------------
# pinned_by: the hook behind each landing
# ---------------------------------------------------------------------------
def sparse_event_scenario(seed: int = 1, packets: int = 60) -> Scenario:
    """The shape of the sparse-event-mesh4 benchmark: the paper's 4x4
    L-Ob mesh, one TASP trojan, the watchdog, packets between random
    distinct cores with exponential gaps of mean 300 cycles, and no
    sampling."""
    import random

    from repro.core.targets import TargetSpec
    from repro.noc.config import PAPER_CONFIG
    from repro.noc.topology import Direction
    from repro.resilience.watchdog import WatchdogConfig
    from repro.sim import DefenseSpec, ExplicitTraffic, PacketSpec, TrojanSpec

    rng = random.Random(seed)
    cores = PAPER_CONFIG.num_cores
    cycle = 0
    specs = []
    for pkt_id in range(packets):
        cycle += max(1, round(rng.expovariate(1 / 300)))
        src = rng.randrange(cores)
        dst = rng.randrange(cores - 1)
        specs.append(
            PacketSpec(
                pkt_id=pkt_id, src_core=src, dst_core=dst + (dst >= src),
                inject_at=cycle, mem_addr=rng.getrandbits(32),
                payload=(rng.getrandbits(64), rng.getrandbits(64)),
            )
        )
    return Scenario(
        name="sparse-event",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=tuple(specs)),),
        trojans=(
            TrojanSpec(
                link=(0, Direction.EAST), target=TargetSpec.for_dest(1)
            ),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=cycle + 5000,
        sample_interval=0,
        seed=seed,
    )


def attack_quiescent_scenario() -> Scenario:
    """The engine bench's attack-quiescent run at its quick size: a
    short flood through the infected link, then sparse probes."""
    from repro.core.targets import TargetSpec
    from repro.noc.config import PAPER_CONFIG
    from repro.noc.topology import Direction
    from repro.resilience.watchdog import WatchdogConfig
    from repro.sim import (
        DefenseSpec,
        ExplicitTraffic,
        FloodTraffic,
        PacketSpec,
        TrojanSpec,
    )

    probes = tuple(
        PacketSpec(pkt_id=100 + i, src_core=2,
                   dst_core=PAPER_CONFIG.core_of(13, 0),
                   mem_addr=0x200, inject_at=400 + i * 8000)
        for i in range(3)
    )
    return Scenario(
        name="attack-quiescent",
        cfg=PAPER_CONFIG,
        traffic=(
            FloodTraffic(
                rogue_cores=(0,),
                victim_cores=(PAPER_CONFIG.core_of(15, 1),),
                rate=0.5,
                stop_cycle=120,
                seed=3,
            ),
            ExplicitTraffic(packets=probes),
        ),
        trojans=(
            TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(15)),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=400 + 3 * 8000 + 6000,
        stall_limit=8000 + 2000,
        sample_interval=0,
    )


PINNED_SCENARIOS = {
    "sparse-event": sparse_event_scenario,
    "attack-quiescent": attack_quiescent_scenario,
}


class TestPinnedBy:
    @pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
    def test_every_landing_names_one_hook(self, name):
        scenario = PINNED_SCENARIOS[name]()
        sweep = Simulation(scenario, engine="sweep")
        event = Simulation(scenario, engine="event")
        rs, re_ = sweep.run(), event.run()
        assert rs == re_
        assert canonical(rs, sweep.network) == canonical(re_, event.network)
        core = event.event_core
        assert core.leaps > 0
        assert sum(core.pinned_by.values()) == core.decisions - core.leaps
        # a landing after a leap is the leap's; the rest are pinned,
        # mostly by flits still moving
        assert core.pinned_by["component"] > core.decisions // 2
        assert core.pinned_by.keys() <= {
            "component", "traffic", "monitor:RetransWatchdog", "edge",
            "stall-abort",
        }

    @pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
    def test_every_leap_lands_on_a_live_demand(self, name):
        # a leap that a step follows must end on a cycle some candidate
        # demands when judged afresh from live state: never on a wake
        # left over from an earlier decision
        scenario = PINNED_SCENARIOS[name]()
        sim = Simulation(scenario, engine="event")
        core = sim.event_core
        step = sim.step
        seen = {"leaps": 0, "checked": 0}
        undemanded = []

        def checked_step():
            if core.leaps > seen["leaps"]:
                seen["leaps"] = core.leaps
                seen["checked"] += 1
                cycle = sim.network.cycle
                last = sim.network.stats.last_delivery_cycle
                stall = None
                if scenario.stall_limit is not None and last >= 0:
                    stall = last + scenario.stall_limit
                if EventCore(sim)._next_due(cycle + 1, stall) != cycle:
                    undemanded.append(cycle)
            step()

        sim.step = checked_step
        sim.run()
        assert seen["checked"] > 0
        assert undemanded == []

    def test_pins_survive_a_checkpoint(self):
        scenario = sparse_event_scenario(packets=20)
        straight = Simulation(scenario, engine="event")
        straight.run()
        sim = Simulation(scenario, engine="event")
        sim.advance_to(1500)
        resumed = Simulation.restore(sim.snapshot())
        assert resumed.event_core.pinned_by == sim.event_core.pinned_by
        resumed.run()
        assert resumed.event_core.pinned_by == straight.event_core.pinned_by
