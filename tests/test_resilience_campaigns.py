"""Seeded fuzz campaigns: random fault compositions, audited end to end.

Each seed composes transient bursts, stuck-at onsets, trojan
activations and link kills on a 3x3 mesh and runs the full resilience
stack.  Outcomes vary by seed (some scenarios are survivable losslessly,
some end in drops, resubmissions and epoch recovery), but three
properties must hold for *every* seed:

* zero invariant violations — no fault composition may corrupt credit,
  sequence or flit conservation;
* closed delivery accounting — every offered packet is either delivered
  or on the failed list, no third state;
* exactly-once delivery — no packet is ever completed twice, even
  across resubmission aliases and epoch boundaries.
"""

import dataclasses

import pytest

from repro.noc.config import NoCConfig
from repro.resilience.campaign import (
    CampaignSpec,
    ChaosCampaign,
    random_events,
    uniform_traffic,
)
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.scenario import DefenseSpec, ExplicitTraffic, Scenario

#: small mesh keeps the fuzz fast while still offering alternate routes
FUZZ_CFG = NoCConfig(mesh_width=3, mesh_height=3, concentration=1)

#: 311: three bit errors on one link made SECDED miscorrect a header
#: into a router id the 3x3 mesh does not have
FUZZ_SEEDS = list(range(24)) + [311]


def fuzz_scenario(seed: int) -> Scenario:
    return Scenario(
        name=f"fuzz-{seed}",
        cfg=FUZZ_CFG,
        traffic=(
            ExplicitTraffic(uniform_traffic(FUZZ_CFG, seed, 30, interval=4)),
        ),
        defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
        max_cycles=4000,
        seed=seed,
        **random_events(FUZZ_CFG, seed, horizon=300),
    )


def run_fuzz_campaign(seed: int):
    spec = CampaignSpec(fuzz_scenario(seed), validate_every=7)
    return ChaosCampaign(spec).run()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_fault_composition(seed):
    report = run_fuzz_campaign(seed)
    assert report.violations == (), (
        f"seed {seed}: invariant violations:\n" + "\n".join(report.violations)
    )
    assert report.invariant_checks > 0
    assert (
        report.packets_delivered + report.packets_failed
        == report.packets_offered
    ), f"seed {seed}: delivery accounting does not close"
    assert report.duplicate_deliveries == 0, (
        f"seed {seed}: exactly-once delivery violated"
    )


def test_fuzz_exercises_the_whole_ladder():
    """Sanity on the generator: across the seed set the fuzz must reach
    drops, condemnations and epoch recoveries — otherwise the campaign
    assertions above are vacuous."""
    reports = [run_fuzz_campaign(seed) for seed in (3, 9, 14)]
    assert any(r.packets_dropped > 0 for r in reports)
    assert any(r.condemned_links for r in reports)
    assert any(r.epochs >= 2 for r in reports)
    assert any(r.resubmissions > 0 for r in reports)


def test_fuzz_is_deterministic():
    first = run_fuzz_campaign(7)
    second = run_fuzz_campaign(7)
    assert first == second


# -- campaign scenarios are ordinary scenarios -----------------------------
def test_campaign_scenarios_round_trip():
    """The chaos experiment's campaigns and fuzz seeds 0-63 decode to an
    equal scenario with an equal content hash."""
    from repro.experiments import chaos
    from repro.sim.scenario import (
        LinkKillSpec,
        StuckAtSpec,
        TransientFaultSpec,
        TrojanSpec,
    )

    scenarios = [spec.scenario for spec in chaos.campaigns()]
    scenarios += [fuzz_scenario(seed) for seed in range(64)]
    kinds = {
        type(spec)
        for scenario in scenarios
        for name in ("trojans", "faults", "wire_faults")
        for spec in getattr(scenario, name)
    }
    assert kinds == {TrojanSpec, TransientFaultSpec, StuckAtSpec, LinkKillSpec}
    for scenario in scenarios:
        decoded = Scenario.from_json(scenario.to_json())
        assert decoded == scenario
        assert decoded.content_hash() == scenario.content_hash()


def test_campaign_traffic_must_be_literal():
    from repro.sim.scenario import SyntheticTraffic

    with pytest.raises(ValueError, match="ExplicitTraffic"):
        CampaignSpec(Scenario(traffic=(SyntheticTraffic(),)))


# -- failure explanation ---------------------------------------------------
def explain_spec(**overrides):
    """A tiny campaign that reliably deadlocks: an unmitigated,
    unwatched TASP on the victim flow's first hop, plus a harmless
    correctable-noise decoy the explainer must rule out."""
    from repro.core.targets import TargetSpec
    from repro.noc.topology import Direction
    from repro.resilience.campaign import targeted_stream
    from repro.sim.scenario import TransientFaultSpec, TrojanSpec

    scenario = Scenario(
        name="explain-mini",
        cfg=FUZZ_CFG,
        traffic=(
            ExplicitTraffic(targeted_stream(FUZZ_CFG, 0, 2, 20, interval=4)),
        ),
        trojans=(
            TrojanSpec(link=(0, Direction.EAST),
                       target=TargetSpec.for_dest(2),
                       enabled=False, enable_at=5),
        ),
        faults=(
            TransientFaultSpec(link=(3, Direction.EAST), rate=0.02,
                               labels=("burst", 3, "EAST", 10),
                               enable_at=10, disable_at=110),
        ),
        max_cycles=1500,
    )
    fields = {f.name for f in dataclasses.fields(Scenario)}
    scenario = dataclasses.replace(
        scenario,
        **{k: overrides.pop(k) for k in list(overrides) if k in fields},
    )
    base = dict(
        scenario=scenario,
        deadlock_window=250,
        explain_violations=True,
        explain_budget=16,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestFailureExplanation:
    def test_minimal_cause_names_only_the_trojan(self):
        from repro.resilience.campaign import run_campaign

        report = run_campaign(explain_spec())
        assert report.deadlocked and report.failed
        assert report.minimal_events == ("tasp@0-EAST",)
        assert "minimal cause: tasp@0-EAST" in report.summary()

    def test_surviving_run_explains_nothing(self):
        from repro.resilience.campaign import run_campaign

        report = run_campaign(explain_spec(trojans=(), faults=()))
        assert not report.failed
        assert report.minimal_events == ()

    def test_explanation_is_opt_in(self):
        from repro.resilience.campaign import run_campaign

        report = run_campaign(explain_spec(explain_violations=False))
        assert report.deadlocked
        assert report.minimal_events == ()

    def test_minimal_explaining_events_direct(self):
        from repro.resilience.campaign import minimal_explaining_events

        spec = explain_spec()
        report = ChaosCampaign(spec).run()
        assert report.deadlocked
        labels = minimal_explaining_events(spec, report, max_runs=16)
        assert labels == ("tasp@0-EAST",)
        # a passing report short-circuits without spending runs
        passed = dataclasses.replace(
            report, deadlocked=False, violations=()
        )
        assert minimal_explaining_events(spec, passed) == ()

    def test_budget_dry_returns_a_failing_superset(self):
        from repro.resilience.campaign import minimal_explaining_events

        spec = explain_spec()
        report = ChaosCampaign(spec).run()
        labels = minimal_explaining_events(spec, report, max_runs=0)
        # no budget: nothing could be removed, both events remain
        assert set(labels) == {"tasp@0-EAST", "burst@3-EAST"}
