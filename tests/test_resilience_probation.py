"""Probation and reinstatement: the containment recovery loop.

The load-bearing guarantees, mirroring the admission safety the
condemnation path already proves:

* a reinstated link is *actually* clean — the prober never lets an
  active trojan earn a clean streak, so the only way back into service
  is genuinely passing the BIST sweep;
* reinstatement is the seal run in reverse — the link re-enables, the
  avoid-set shrinks, the ladder restarts from rung zero and the
  receiver starts a fresh sequencing epoch — and it never strands a
  src/dst pair, under any interleaving of condemnations, probes and
  reinstatements (hypothesis-driven);
* a flapping attacker cannot farm reinstatements: exponential flap
  damping converges to permanent condemnation.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TargetSpec, TaspConfig, TaspTrojan
from repro.noc.adaptive import (
    AdaptiveRouting,
    avoid_routing,
    turn_model_connected,
)
from repro.noc.config import PAPER_CONFIG
from repro.noc.flit import layout_for
from repro.noc.network import Network
from repro.noc.topology import Direction
from repro.resilience.containment import (
    ContainmentConfig,
    ContainmentCoordinator,
    ProbationConfig,
)
from repro.resilience.detect import DetectConfig
from repro.resilience.probe import LinkProber, ProbeConfig, ProbeVerdict
from repro.resilience.watchdog import RetransWatchdog, WatchdogConfig
from repro.sim import (
    DefenseSpec,
    Scenario,
    SentinelSpec,
    Simulation,
    SyntheticTraffic,
    TrojanSpec,
)
from tests.test_resilience_containment import walk

CFG = PAPER_CONFIG
EAST = Direction.EAST
WEST = Direction.WEST
LINK = (0, EAST)


class _StuckAt:
    """A permanent wire fault: a double-bit flip on every word, past
    SECDED correction (a single stuck bit would be corrected away)."""

    def tamper(self, codeword: int, cycle: int) -> int:
        return codeword ^ 0b11


def _trojan(net: Network, key, target=None) -> TaspTrojan:
    trojan = TaspTrojan(
        target or TargetSpec.for_vc(0),
        TaspConfig(),
        layout=layout_for(net.cfg),
    )
    net.links[key].tamperers.append(trojan)
    return trojan


class TestProberVerdicts:
    def probe(self, net: Network, key=LINK, trial_index=0):
        prober = LinkProber(net.cfg, ProbeConfig())
        return prober.trial(net.links[key], cycle=100,
                            trial_index=trial_index)

    def test_clean_link_scans_clean(self):
        trial = self.probe(Network(CFG))
        assert trial.verdict is ProbeVerdict.CLEAN
        assert trial.plain_failed == 0 and trial.ob_failed == 0
        assert trial.plain_sent > 0 and trial.ob_sent > 0

    def test_active_trojan_never_scans_clean(self):
        """Whatever the comparator keys on, the id/vc sweep trips it —
        an armed trojan must not earn a clean trial."""
        for target in (
            TargetSpec.for_vc(0),
            TargetSpec.for_dest(5),
            TargetSpec.for_src(3),
        ):
            net = Network(CFG)
            trojan = _trojan(net, LINK, target)
            trojan.enable()
            trial = self.probe(net)
            assert trial.verdict is not ProbeVerdict.CLEAN, target

    def test_dormant_trojan_scans_clean(self):
        # kill switch off: the trigger cannot fire, the wire is clean —
        # exactly the state that *should* reinstate
        net = Network(CFG)
        _trojan(net, LINK)  # never enabled
        assert self.probe(net).verdict is ProbeVerdict.CLEAN

    def test_stuck_fault_is_infected(self):
        net = Network(CFG)
        net.links[LINK].tamperers.append(_StuckAt())
        trial = self.probe(net)
        assert trial.verdict is ProbeVerdict.INFECTED
        assert trial.plain_failed == trial.plain_sent
        assert trial.ob_failed == trial.ob_sent

    def test_trials_are_cycle_independent(self):
        """Probe content depends on (seed, link, trial_index) only, so
        the sweep and event engines — which probe at identical cycles
        but via different control flow — generate identical words."""
        net = Network(CFG)
        prober = LinkProber(CFG, ProbeConfig())
        a = prober.trial(net.links[LINK], cycle=100, trial_index=0)
        b = prober.trial(net.links[LINK], cycle=9999, trial_index=0)
        assert (a.plain_sent, a.ob_sent, a.verdict) == \
            (b.plain_sent, b.ob_sent, b.verdict)

    def test_distinct_trials_vary_their_random_probes(self):
        prober = LinkProber(CFG, ProbeConfig(sweep_ids=False,
                                             random_probes=8))
        words_0 = prober._probe_words(Network(CFG).links[LINK], 0)
        words_1 = prober._probe_words(Network(CFG).links[LINK], 1)
        assert words_0 != words_1

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ProbeConfig(random_probes=-1)
        with pytest.raises(ValueError):
            ProbeConfig(sweep_ids=False, random_probes=0)


# ---------------------------------------------------------------------------
# unit-level lifecycle (idle network, hand-driven clock)
# ---------------------------------------------------------------------------
PROBATION = ProbationConfig(
    start_after=50, probe_period=25, required_clean=2, max_trials=8,
    flap_multiplier=2, max_flaps=2,
)


def _attach(probation=PROBATION):
    net = Network(CFG)
    watchdog = RetransWatchdog(WatchdogConfig()).attach(net)
    coordinator = ContainmentCoordinator(
        ContainmentConfig(), probation=probation
    ).attach(net, watchdog)
    return net, watchdog, coordinator


def _condemn(watchdog, *keys):
    watchdog._condemned.update(keys)
    watchdog._pending_condemned.extend(keys)


def _advance(net, coordinator, start: int, until: int, step: int = 25):
    """Hand the coordinator a monotonic clock (the mesh itself stays
    idle, so every probe window is quiescent)."""
    cycle = start
    while cycle < until:
        cycle += step
        coordinator.on_cycle(net, cycle)
    return cycle


class TestProbationLifecycle:
    def seal(self, net, wd, co, key=LINK, cycle=100):
        _condemn(wd, key)
        co.on_cycle(net, cycle)  # idle mesh: contains and seals at once
        assert co.link_states[key] == "sealed"
        return cycle

    def test_first_probe_waits_for_start_after(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        assert co._probe_due[LINK] == 150  # 100 + start_after
        co.on_cycle(net, 149)
        assert co.prober.trials_run == 0
        co.on_cycle(net, 150)
        assert co.prober.trials_run == 1

    def test_clean_streak_reinstates(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        _advance(net, co, 100, 200)
        assert co.links_reinstated == 1
        assert not co.link_states
        assert not net.links[LINK].disabled
        assert co.avoid == frozenset()
        assert net.route_fn is co._base_route_fn  # xy restored
        assert co.time_to_reinstate[LINK] > 0
        assert [e.kind for e in co.events][-1] == "reinstate"

    def test_reinstatement_restarts_the_ladder_at_rung_zero(self):
        net, wd, co = _attach()
        wd.mark_suspect(LINK)  # detector flag: thresholds halved
        halved = wd._ladder_thresholds(LINK)
        self.seal(net, wd, co)
        _advance(net, co, 100, 200)
        assert LINK not in wd.condemned_links
        assert wd._ladder_thresholds(LINK) != halved
        # the reinstated link's thresholds match a never-suspected one
        assert wd._ladder_thresholds(LINK) == \
            wd._ladder_thresholds((1, EAST))

    def test_reinstatement_opens_a_fresh_sequencing_epoch(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        receiver = net.receiver_of(LINK)
        receiver.skip_seq(0, 5)
        receiver._expected_seq[0] = 17       # sealed-era divergence
        receiver.poison_packet(123)
        assert receiver._skipped == {0: {5}}
        _advance(net, co, 100, 200)
        assert receiver._expected_seq == [0] * CFG.num_vcs
        assert not receiver._skipped
        assert not receiver.poisoned_packets

    def test_infected_probe_resets_the_streak(self):
        net, wd, co = _attach()
        stuck = _StuckAt()
        net.links[LINK].tamperers.append(stuck)
        self.seal(net, wd, co)
        _advance(net, co, 100, 175)  # two failing trials
        assert co._clean_trials[LINK] == 0
        assert co.links_reinstated == 0
        net.links[LINK].tamperers.remove(stuck)  # fault clears
        _advance(net, co, 175, 250)
        assert co.links_reinstated == 1

    def test_probe_budget_exhaustion_is_permanent(self):
        net, wd, co = _attach()
        net.links[LINK].tamperers.append(_StuckAt())
        self.seal(net, wd, co)
        _advance(net, co, 100, 2000)
        assert co.prober.trials_run == PROBATION.max_trials
        assert co.links_permanent == 1
        assert co.link_states[LINK] == "sealed"  # still contained
        assert LINK not in co._probe_due  # probing stopped for good
        assert any(
            e.kind == "flap_damp" and "budget" in e.detail
            for e in co.events
        )

    def test_flap_damping_multiplies_the_probe_delay(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        _advance(net, co, 100, 200)
        assert co.links_reinstated == 1
        # the attacker re-arms: second condemnation is a flap
        _condemn(wd, LINK)
        co.on_cycle(net, 1000)
        assert co.flap_counts[LINK] == 1
        assert co._probe_due[LINK] == 1000 + PROBATION.start_after * 2

    def test_max_flaps_condemns_permanently(self):
        net, wd, co = _attach()
        cycle = self.seal(net, wd, co)
        for flap in range(PROBATION.max_flaps):
            _advance(net, co, cycle, cycle + 4000)
            assert co.links_reinstated == flap + 1
            cycle += 5000
            _condemn(wd, LINK)
            co.on_cycle(net, cycle)
        assert co.flap_counts[LINK] == PROBATION.max_flaps
        assert co.links_permanent == 1
        assert co.link_states[LINK] == "sealed"
        assert LINK not in co._probe_due

    def test_drop_only_links_probe_too(self):
        """A refused (westbound) condemnation still enters probation:
        drop-only links have no avoid-set entry to retract, but they
        reinstate the same way."""
        net, wd, co = _attach()
        key = (1, WEST)
        _condemn(wd, key)
        co.on_cycle(net, 100)
        assert co.link_states[key] == "drop_only"
        _advance(net, co, 100, 300)
        assert co.links_reinstated == 1
        assert key not in co.link_states

    def test_probation_disabled_means_no_probing(self):
        net, wd, co = _attach(probation=None)
        _condemn(wd, LINK)
        co.on_cycle(net, 100)
        _advance(net, co, 100, 5000)
        assert co.links_reinstated == 0
        assert co.prober is None
        assert co.summary()["probation"] is None

    def test_next_event_cycle_exposes_probe_schedule(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        # full-sweep stepping is never quiescent: conservative "now"
        assert co.next_event_cycle(net, 120) == 120
        # under active-set stepping the idle mesh is quiescent (one
        # step prunes the initially-full active sets) and the probe
        # schedule is the only remaining wake
        net._full_sweep = False
        net.step()
        assert net.quiescent
        assert co.next_event_cycle(net, 120) == 150
        assert co.next_event_cycle(net, 160) == 160  # overdue pins now

    def test_summary_shape(self):
        net, wd, co = _attach()
        self.seal(net, wd, co)
        _advance(net, co, 100, 200)
        summary = co.summary()["probation"]
        assert summary["links_reinstated"] == 1
        assert summary["links_permanent"] == 0
        assert summary["still_contained"] == 0
        assert summary["trials_run"] == PROBATION.required_clean
        assert summary["max_time_to_reinstate"] > 0

    def test_rejects_bad_knobs(self):
        for kwargs in (
            {"start_after": 0},
            {"probe_period": 0},
            {"required_clean": 0},
            {"max_trials": 1, "required_clean": 2},
            {"flap_multiplier": 0},
            {"max_flaps": 0},
            {"random_probes": -1},
        ):
            with pytest.raises(ValueError):
                ProbationConfig(**kwargs)


# ---------------------------------------------------------------------------
# property: no interleaving strands a pair
# ---------------------------------------------------------------------------
#: condemnable pool mixing admissible (east) and refusable (west) links
POOL = [(0, EAST), (5, EAST), (9, EAST), (1, WEST), (6, WEST)]


class TestInterleavingsNeverStrand:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(POOL),
                st.sampled_from(["condemn", "wait", "wait-long"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_condemn_probe_reinstate_interleavings(self, script):
        """Random interleavings of condemnations (some repeat = flaps),
        probe windows and reinstatements: the avoid-set stays connected
        at every step, and every src/dst pair stays walkable."""
        net, wd, co = _attach()
        cycle = 100
        for key, op in script:
            if op == "condemn":
                if key not in co.link_states:
                    _condemn(wd, key)
                    co.on_cycle(net, cycle)
            elif op == "wait":
                cycle = _advance(net, co, cycle, cycle + 100)
            else:
                cycle = _advance(net, co, cycle, cycle + 1000)
            cycle += 25
            assert turn_model_connected(CFG, "west-first", co.avoid)
        routing = AdaptiveRouting(CFG, "west-first", co.avoid)
        for a in range(CFG.num_routers):
            for b in range(CFG.num_routers):
                if a != b:
                    walk(routing, a, b)


#: the same no-stranding property beyond the plain mesh: every
#: topology pairs its config with a condemnable pool (wrap links on
#: the torus, an express channel on the express mesh)
TOPOLOGY_POOLS = [
    pytest.param(CFG, POOL, id="mesh"),
    pytest.param(
        dataclasses.replace(CFG, topology="torus"),
        [(0, EAST), (5, EAST), (3, EAST), (1, WEST), (6, WEST),
         (12, Direction.NORTH)],
        id="torus",
    ),
    pytest.param(
        dataclasses.replace(CFG, express_interval=2),
        [(0, EAST), (5, EAST), (9, EAST), (1, WEST),
         (0, Direction.EXPRESS_EAST), (4, Direction.EXPRESS_NORTH)],
        id="express",
    ),
]


class TestInterleavingsNeverStrandAnyTopology:
    """Condemn/probe/reinstate interleavings keep every src/dst pair
    routable on the torus (clear-arc reachability) and on the express
    mesh (express channels folded into the avoid machinery), exactly
    as on the plain mesh."""

    @pytest.mark.parametrize("cfg,pool", TOPOLOGY_POOLS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_condemn_probe_reinstate_interleavings(self, cfg, pool, data):
        script = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.sampled_from(["condemn", "wait", "wait-long"]),
                ),
                min_size=1,
                max_size=10,
            )
        )
        net = Network(cfg)
        wd = RetransWatchdog(WatchdogConfig()).attach(net)
        co = ContainmentCoordinator(
            ContainmentConfig(), probation=PROBATION
        ).attach(net, wd)
        model = co.reroute_model
        assert model == ("torus-arc" if cfg.topology == "torus"
                         else "west-first")
        cycle = 100
        for key, op in script:
            if op == "condemn":
                if key not in co.link_states:
                    _condemn(wd, key)
                    co.on_cycle(net, cycle)
            elif op == "wait":
                cycle = _advance(net, co, cycle, cycle + 100)
            else:
                cycle = _advance(net, co, cycle, cycle + 1000)
            cycle += 25
            assert turn_model_connected(cfg, model, co.avoid)
        routing = avoid_routing(cfg, model, co.avoid)
        for a in range(cfg.num_routers):
            for b in range(cfg.num_routers):
                if a != b:
                    walk(routing, a, b)


# ---------------------------------------------------------------------------
# end to end: a deactivating trojan heals, identically on both engines
# ---------------------------------------------------------------------------
def _healing_scenario(engine: str = "sweep") -> Scenario:
    return Scenario(
        name="probation-heal",
        cfg=CFG,
        traffic=(
            SyntheticTraffic(pattern="uniform", injection_rate=0.03,
                             payload_words=2, duration=5500, seed=7),
        ),
        trojans=(
            # armed after the detector's warmup (8 windows x 64 cycles)
            # so the baseline it deviates from is attack-free
            TrojanSpec(link=LINK, target=TargetSpec.for_vc(0),
                       config=TaspConfig(), enabled=False,
                       enable_at=600, disable_at=1800),
        ),
        defense=DefenseSpec(
            watchdog=WatchdogConfig(),
            containment=ContainmentConfig(),
            probation=ProbationConfig(start_after=300, probe_period=150,
                                      required_clean=3),
            detector=DetectConfig(),
        ),
        duration=6000,
        sentinel=SentinelSpec(every=200),
        engine=engine,
        seed=3,
    )


class TestDeactivatingTrojanE2E:
    def run_engine(self, engine: str) -> Simulation:
        sim = Simulation(_healing_scenario(engine))
        sim.run()  # sentinel trips raise: finishing proves zero trips
        return sim

    def test_condemned_then_reinstated(self):
        sim = self.run_engine("sweep")
        co = sim.containment
        assert co.links_reinstated == 1
        assert not co.link_states
        assert not sim.network.links[LINK].disabled
        assert co.avoid == frozenset()
        kinds = [e.kind for e in co.events]
        assert "contain" in kinds and "reinstate" in kinds
        # traffic kept flowing after the heal
        assert sim.network.stats.completed_records()
        assert sim.sentinel.checks > 0

    def test_detector_flagged_the_attacked_link_first(self):
        sim = self.run_engine("sweep")
        assert LINK in sim.detector.suspect_links
        flagged_at = min(
            e.cycle for e in sim.detector.events if e.link == LINK
        )
        condemned_at = min(
            e.cycle for e in sim.containment.events if e.kind == "contain"
        )
        assert flagged_at <= condemned_at

    def test_engines_agree_bit_for_bit(self):
        sweep = self.run_engine("sweep")
        event = self.run_engine("event")
        assert sweep.containment.summary() == event.containment.summary()
        assert sweep.detector.summary() == event.detector.summary()
        assert [
            (e.cycle, e.kind, e.link, e.detail)
            for e in sweep.containment.events
        ] == [
            (e.cycle, e.kind, e.link, e.detail)
            for e in event.containment.events
        ]
        assert event.event_core.cycles_skipped > 0  # it really skipped
