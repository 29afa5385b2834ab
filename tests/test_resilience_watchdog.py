"""Watchdog escalation ladder: acceptance and regression campaigns.

The acceptance scenario pins a retransmission slot with TASP and then
kills the link outright; the watchdog must walk the whole ladder
(backoff -> forced obfuscation -> drop-with-notify -> condemn) and end
in epoch recovery with every packet delivered exactly once.  The
regression scenario proves graceful degradation is strictly opt-in:
with the watchdog disabled the paper's TASP deadlock reproduces
unchanged and nothing is ever dropped.
"""

import pytest

from repro.core.targets import TargetSpec
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction
from repro.resilience import (
    EscalationStage,
    RetransWatchdog,
    WatchdogConfig,
)
from repro.resilience.campaign import (
    CampaignSpec,
    ChaosCampaign,
    targeted_stream,
    uniform_traffic,
)
from repro.sim.scenario import (
    DefenseSpec,
    ExplicitTraffic,
    LinkKillSpec,
    Scenario,
    TrojanSpec,
)

ATTACK_LINK = (0, Direction.EAST)
TARGET = TargetSpec.for_dest(15)


def _victim_traffic(heavy=False):
    if heavy:
        packets = targeted_stream(
            PAPER_CONFIG, 0, 63, 40, interval=4
        ) + uniform_traffic(PAPER_CONFIG, 1, 60, interval=2)
    else:
        packets = targeted_stream(
            PAPER_CONFIG, 0, 63, 10, interval=10
        ) + uniform_traffic(PAPER_CONFIG, 1, 24, interval=6)
    return (ExplicitTraffic(packets),)


def _tasp(at):
    return TrojanSpec(link=ATTACK_LINK, target=TARGET, enabled=False,
                      enable_at=at)


@pytest.fixture(scope="module")
def ladder_report():
    spec = CampaignSpec(
        Scenario(
            name="ladder",
            cfg=PAPER_CONFIG,
            traffic=_victim_traffic(),
            trojans=(_tasp(20),),
            wire_faults=(LinkKillSpec(link=ATTACK_LINK, at=60),),
            defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
            max_cycles=6000,
        )
    )
    return ChaosCampaign(spec).run()


@pytest.fixture(scope="module")
def deadlock_report():
    spec = CampaignSpec(
        Scenario(
            name="no-watchdog",
            cfg=PAPER_CONFIG,
            traffic=_victim_traffic(heavy=True),
            trojans=(_tasp(10),),
            max_cycles=2500,
        ),
        deadlock_window=400,
    )
    return ChaosCampaign(spec).run()


@pytest.fixture(scope="module")
def bare_watchdog_report():
    spec = CampaignSpec(
        Scenario(
            name="bare-watchdog",
            cfg=PAPER_CONFIG,
            traffic=_victim_traffic(heavy=True),
            trojans=(_tasp(10),),
            defense=DefenseSpec(watchdog=WatchdogConfig()),
            max_cycles=8000,
        )
    )
    return ChaosCampaign(spec).run()


class TestEscalationLadder:
    """Acceptance: TASP + link kill on a mitigated network."""

    def test_campaign_ends_live(self, ladder_report):
        assert not ladder_report.deadlocked
        assert ladder_report.drained

    def test_full_ladder_walked(self, ladder_report):
        stages = ladder_report.escalation_stages
        assert stages == tuple(
            s.value for s in EscalationStage
        ), f"expected the full ladder, got {stages}"

    def test_ladder_counters_nonzero(self, ladder_report):
        assert ladder_report.backoffs > 0
        assert ladder_report.obfuscations_forced > 0
        assert ladder_report.packets_dropped > 0
        assert ladder_report.flits_degraded > 0

    def test_condemnation_triggers_epoch_recovery(self, ladder_report):
        assert ATTACK_LINK in ladder_report.condemned_links
        assert ladder_report.epochs >= 2
        assert ladder_report.recovery_cycles

    def test_exactly_once_delivery(self, ladder_report):
        assert ladder_report.delivered_all
        assert ladder_report.duplicate_deliveries == 0
        assert ladder_report.resubmissions > 0

    def test_invariants_hold_throughout(self, ladder_report):
        assert ladder_report.invariant_checks > 0
        assert ladder_report.violations == ()

    def test_detection_latency_bounded(self, ladder_report):
        assert ladder_report.time_to_detect is not None
        assert ladder_report.time_to_detect < 100
        assert ladder_report.time_to_recover is not None


class TestDeadlockRegression:
    """Without the watchdog the paper's DoS deadlock must reproduce."""

    def test_tasp_deadlocks_without_watchdog(self, deadlock_report):
        assert deadlock_report.deadlocked
        assert deadlock_report.cycles < 1500

    def test_degradation_is_opt_in(self, deadlock_report):
        # no watchdog => nothing may ever be dropped or resubmitted
        assert deadlock_report.flits_degraded == 0
        assert deadlock_report.packets_dropped == 0
        assert deadlock_report.resubmissions == 0
        assert deadlock_report.backoffs == 0

    def test_victim_packets_starve(self, deadlock_report):
        assert not deadlock_report.delivered_all
        assert deadlock_report.packets_failed > 0

    def test_deadlock_still_conserves(self, deadlock_report):
        # a wedged network must not corrupt flow control
        assert deadlock_report.violations == ()


class TestBareWatchdogSurvival:
    """No L-Ob rung available: retries, drops and rerouting must do."""

    def test_survives_and_delivers(self, bare_watchdog_report):
        assert not bare_watchdog_report.deadlocked
        assert bare_watchdog_report.delivered_all
        assert bare_watchdog_report.duplicate_deliveries == 0

    def test_obfuscation_rung_skipped(self, bare_watchdog_report):
        # unmitigated network has no L-Ob hardware to engage
        assert bare_watchdog_report.obfuscations_forced == 0
        assert bare_watchdog_report.packets_dropped > 0
        assert bare_watchdog_report.epochs >= 2

    def test_invariants_hold(self, bare_watchdog_report):
        assert bare_watchdog_report.violations == ()


class TestPartitionRisk:
    """Condemnations that strand minimal-xy traffic must say so."""

    def _condemn(self, link, cycle=100):
        from repro.noc.network import Network

        net = Network(PAPER_CONFIG)
        watchdog = RetransWatchdog(WatchdogConfig()).attach(net)
        watchdog._drops_per_link[link] = (
            watchdog.config.condemn_after_drops
        )
        watchdog._maybe_condemn(net, link, cycle, ladder_active=False)
        return watchdog

    def test_corner_router_east_strands_three_quadrants(self):
        """Regression: the corner router's east link is the sole xy
        first hop for every destination off its column — the risk event
        must name all twelve."""
        watchdog = self._condemn((0, Direction.EAST))
        risks = watchdog.take_partition_risks()
        assert len(risks) == 1
        risk = risks[0]
        assert risk.link == (0, Direction.EAST)
        assert len(risk.stranded_dsts) == 12
        assert set(risk.stranded_dsts) == {
            r for r in range(16) if r % 4 != 0
        }

    def test_corner_router_north_strands_own_column(self):
        watchdog = self._condemn((0, Direction.NORTH))
        (risk,) = watchdog.take_partition_risks()
        assert set(risk.stranded_dsts) == {4, 8, 12}

    def test_risk_rides_along_with_condemnation(self):
        watchdog = self._condemn((0, Direction.EAST))
        assert watchdog.take_condemned() == [(0, Direction.EAST)]
        assert watchdog.partition_risks  # kept beyond the take() queue


class TestSharedRouterLadders:
    """Two infected links on one router run independent ladders."""

    @pytest.fixture(scope="class")
    def shared(self):
        from repro.resilience.containment import ContainmentConfig
        from repro.sim import (
            DefenseSpec,
            Scenario,
            SentinelSpec,
            Simulation,
            SyntheticTraffic,
            TrojanSpec,
        )

        scenario = Scenario(
            name="shared-router",
            cfg=PAPER_CONFIG,
            traffic=(
                SyntheticTraffic(
                    injection_rate=0.04, duration=1500, seed=5
                ),
            ),
            trojans=(
                TrojanSpec((5, Direction.EAST), TargetSpec.for_vc(0),
                           enable_at=100),
                TrojanSpec((5, Direction.NORTH), TargetSpec.for_vc(0),
                           enable_at=100),
            ),
            defense=DefenseSpec(
                watchdog=WatchdogConfig(),
                containment=ContainmentConfig(),
            ),
            duration=2200,
            sentinel=SentinelSpec(every=100),
            seed=9,
        )
        sim = Simulation(scenario)
        ladder_links = set()
        sim.watchdog.event_hooks.append(
            lambda event: ladder_links.add(event.link)
        )
        sim.run()  # sentinel trip raises; finishing proves zero trips
        return sim, ladder_links

    def test_both_ladders_escalated(self, shared):
        _, ladder_links = shared
        assert {(5, Direction.EAST), (5, Direction.NORTH)} <= ladder_links

    def test_both_links_contained_without_tripping(self, shared):
        sim, _ = shared
        assert sim.sentinel.report.ok
        contained = sim.containment.contained_links
        assert {(5, Direction.EAST), (5, Direction.NORTH)} <= contained

    def test_vertical_link_fell_back_to_drop_only(self, shared):
        """(5, NORTH) is a sole route for its column under west-first
        (no vertical detours exist), so the coordinator must refuse the
        reroute and leave the ladder in drop-only mode — while (5,
        EAST) is rerouted around."""
        sim, _ = shared
        states = sim.containment.link_states
        assert states[(5, Direction.NORTH)] == "drop_only"
        assert states[(5, Direction.EAST)] in ("draining", "sealed")


class TestWatchdogConfig:
    def test_rejects_misordered_ladder(self):
        with pytest.raises(ValueError):
            WatchdogConfig(backoff_after=5, obfuscate_after=3)
        with pytest.raises(ValueError):
            WatchdogConfig(obfuscate_after=8, max_retries=7)
        with pytest.raises(ValueError):
            WatchdogConfig(backoff_base=0)

    def test_rejects_backing_off_a_first_send(self):
        """A port that never took a NACK holds entries sent at most
        once; a ladder starting there would act on unwatched ports."""
        with pytest.raises(ValueError, match="backoff_after"):
            WatchdogConfig(backoff_after=1)
        WatchdogConfig(backoff_after=2)

    def test_rejects_condemning_a_link_that_never_dropped(self):
        with pytest.raises(ValueError, match="condemn_after_drops"):
            WatchdogConfig(condemn_after_drops=0)
        WatchdogConfig(condemn_after_drops=1)

    def test_default_ladder_is_ordered(self):
        cfg = WatchdogConfig()
        assert cfg.backoff_after < cfg.obfuscate_after < cfg.max_retries

    def test_attach_is_idempotent_across_epochs(self):
        from repro.noc.network import Network

        watchdog = RetransWatchdog(WatchdogConfig())
        first = Network(PAPER_CONFIG)
        watchdog.attach(first)
        second = Network(PAPER_CONFIG)
        watchdog.attach(second)
        assert watchdog not in first.monitors
        assert second.monitors == [watchdog]


def test_ladder_visits_links_in_canonical_order():
    """The containment gate draws jitter per denial, so the ladder must
    consult it link by link in canonical (router, then output) order,
    whatever order the buffers filled in."""
    import random

    from repro.noc import Network, Packet

    net = Network(PAPER_CONFIG)
    watchdog = RetransWatchdog().attach(net)
    asked = []
    watchdog.action_gate = lambda stage, key, cycle: asked.append(key) and False
    keys = list(net.links)
    pinned = random.Random(5).sample(keys, 8)
    for pkt_id, key in enumerate(pinned):
        flit = Packet(pkt_id=pkt_id, src_core=0, dst_core=63).build_flits(
            PAPER_CONFIG
        )[0]
        out = net.output_port_of(key)
        entry = out.retrans.get(out.retrans.admit(flit, 0, 0, 0))
        entry.send_count = watchdog.config.max_retries
    # the send counts were planted without a NACK, so the links are put
    # on the watched set by hand
    net.retrying.update(pinned)
    watchdog.on_cycle(net, 10)
    assert set(asked) == set(pinned)
    assert asked == sorted(asked, key=keys.index)


# -- the watched links against a full scan --------------------------------------
class RecordingWatchdog(RetransWatchdog):
    """The shipped ladder, recording every rung and every gate call."""

    def __init__(self, config=None):
        super().__init__(config)
        self.logged = []
        self.gate_calls = []
        self.event_hooks.append(self.logged.append)

    def _gate_allows(self, stage, key, cycle):
        allowed = super()._gate_allows(stage, key, cycle)
        self.gate_calls.append((stage, key, cycle, allowed))
        return allowed

    def record(self):
        return (
            self.logged,
            self.gate_calls,
            self.backoffs_applied,
            self.obfuscations_forced,
            self.packets_dropped,
            self.links_condemned,
            self.partition_risks,
        )


class FullScanWatchdog(RecordingWatchdog):
    """The reference ladder: every output port every cycle, in canonical
    link order, as it ran before it kept to ``Network.retrying`` and the
    links it dropped on."""

    def on_cycle(self, network, cycle):
        from repro.noc.retrans import EntryState

        cfg = self.config
        for key, wires in network._wiring.items():
            out = wires[3]
            if not out.retrans._entries:
                continue
            condemned = key in self._condemned
            thresholds = self._ladder_thresholds(key)
            obfuscate_after, max_retries, _, _ = thresholds
            ladder_active = False
            for entry in list(out.retrans._entries.values()):
                sends = entry.send_count
                if sends < cfg.backoff_after:
                    continue
                ladder_active = True
                if (
                    sends >= max_retries
                    and entry.state is EntryState.READY
                    and self._gate_allows(EscalationStage.DROP, key, cycle)
                ):
                    self._drop(network, key, entry, cycle)
                    continue
                if (
                    sends >= obfuscate_after
                    and not condemned
                    and self._gate_allows(
                        EscalationStage.OBFUSCATE, key, cycle
                    )
                ):
                    self._force_obfuscation(network, key, entry, cycle)
                self._apply_backoff(network, key, entry, cycle)
            if not condemned:
                self._maybe_condemn(
                    network, key, cycle, ladder_active, out, thresholds
                )
        self._prune(network, list(network._wiring))


def ladder_records(monkeypatch, watchdog_cls, run):
    """``run()``'s outcome and the records of every watchdog the
    simulations it builds attach, all of class ``watchdog_cls``."""
    from repro.sim import engine

    made = []

    class Made(watchdog_cls):
        def __init__(self, config=None):
            super().__init__(config)
            made.append(self)

    monkeypatch.setattr(engine, "RetransWatchdog", Made)
    outcome = run()
    assert made
    return outcome, [watchdog.record() for watchdog in made]


def assert_ladders_agree(monkeypatch, run):
    watched = ladder_records(monkeypatch, RecordingWatchdog, run)
    full = ladder_records(monkeypatch, FullScanWatchdog, run)
    assert watched == full
    return watched


def fuzz_campaign(seed):
    from tests.test_resilience_campaigns import fuzz_scenario

    return ChaosCampaign(
        CampaignSpec(fuzz_scenario(seed), validate_every=7)
    ).run()


# test_resilience_campaigns.py::test_fuzz_exercises_the_whole_ladder
# shows these seeds reach drops, condemnations and epoch recovery
@pytest.mark.parametrize("seed", [*range(64), 311])
def test_watched_ladder_matches_full_scan_on_fuzz(monkeypatch, seed):
    report, _ = assert_ladders_agree(
        monkeypatch, lambda: fuzz_campaign(seed)
    )
    assert report.violations == ()


def test_watched_ladder_matches_full_scan_on_chaos_campaigns(monkeypatch):
    from repro.experiments import chaos

    specs = chaos.campaigns()
    laddered = [s for s in specs if s.scenario.defense.watchdog is not None]
    # the third campaign builds no ladder to compare
    assert [s.scenario.name for s in specs if s not in laddered] == [
        "no-watchdog"
    ]
    for spec in laddered:
        assert_ladders_agree(monkeypatch, ChaosCampaign(spec).run)


def test_watched_ladder_matches_full_scan_under_containment(monkeypatch):
    """The containment coordinator gates the rungs and draws jitter per
    denial, so its calls must come in the full scan's order."""
    from repro.resilience.containment import ContainmentConfig
    from repro.sim import Simulation, SyntheticTraffic

    scenario = Scenario(
        name="contained",
        cfg=PAPER_CONFIG,
        traffic=(
            SyntheticTraffic(injection_rate=0.04, duration=900, seed=5),
        ),
        trojans=(
            TrojanSpec((5, Direction.EAST), TargetSpec.for_vc(0),
                       enable_at=100),
            TrojanSpec((5, Direction.NORTH), TargetSpec.for_vc(0),
                       enable_at=100),
        ),
        defense=DefenseSpec(
            watchdog=WatchdogConfig(),
            containment=ContainmentConfig(max_actions_per_cycle=1),
        ),
        duration=1200,
        seed=9,
    )

    def run():
        sim = Simulation(scenario)
        result = sim.run()
        return result, sim.containment.summary()

    _, records = assert_ladders_agree(monkeypatch, run)
    (logged, gate_calls, *_), = records
    assert logged and any(not allowed for *_, allowed in gate_calls)
