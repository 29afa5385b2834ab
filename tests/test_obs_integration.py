"""End-to-end observability: attach, observe, export — never perturb.

The load-bearing contract is *pure observation*: a simulation run with
the full observability stack attached must produce byte-identical
``NetworkStats`` (and an equal :class:`RunResult`) to the same run with
nothing attached.  Everything else — event capture, checkpoint/failure
notifications, forensics embedding, the ambient instance, profiling,
runner integration — layers on top of that guarantee.
"""

import collections
import dataclasses
import json

import pytest

from repro.core import TargetSpec
from repro.core.detector import LinkVerdict
from repro.experiments.export import to_jsonable
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.noc.topology import Direction
from repro.obs import instrument, profiler as obs_profiler
from repro.obs.collectors import (
    campaign_metrics,
    collect_security,
    link_label,
    parse_link_label,
)
from repro.experiments import runner
from repro.obs.exporters import (
    main as exporters_main,
    validate_events_jsonl,
    validate_metrics_json,
)
from repro.obs.instrument import (
    ObsConfig,
    Observability,
    ambient,
    disable_ambient,
    enable_ambient,
)
from repro.resilience.campaign import (
    CampaignSpec,
    ChaosCampaign,
    random_events,
    uniform_traffic,
)
from repro.resilience.watchdog import (
    EscalationEvent,
    EscalationStage,
    RetransWatchdog,
    WatchdogConfig,
)
from repro.sim import (
    DefenseSpec,
    ExplicitTraffic,
    PacketSpec,
    Scenario,
    Simulation,
    SyntheticTraffic,
    TrojanSpec,
)


def stats_snapshot(sim: Simulation) -> str:
    """Every NetworkStats field as one canonical JSON string."""
    return json.dumps(
        to_jsonable(vars(sim.network.stats)), sort_keys=True
    )


def listen(sim: Simulation) -> list:
    """A list sink on the simulation's bus: every event is built and
    kept there, in publish order."""
    events = []
    sim.obs.bus.sinks.append(events.append)
    return events


def attacked_scenario(**overrides) -> Scenario:
    """Targeted flow through an infected, mitigated link — exercises
    corruption, retransmission, L-Ob and detector verdicts."""
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0, dst_core=PAPER_CONFIG.core_of(11, 1),
                   mem_addr=0x100, inject_at=i * 40)
        for i in range(8)
    )
    base = dict(
        name="obs-attacked",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(11)),),
        defense=DefenseSpec(mitigated=True),
        max_cycles=4000,
        stall_limit=1500,
    )
    base.update(overrides)
    return Scenario(**base)


def quiet_scenario(**overrides) -> Scenario:
    base = dict(
        name="obs-quiet",
        cfg=NoCConfig(mesh_width=3, mesh_height=3, concentration=1),
        traffic=(SyntheticTraffic(injection_rate=0.05, duration=120, seed=3),),
        max_cycles=600,
        stall_limit=300,
    )
    base.update(overrides)
    return Scenario(**base)


class TestPureObserver:
    def test_observed_run_is_byte_identical(self):
        baseline = Simulation(attacked_scenario())
        base_result = baseline.run()
        base_stats = stats_snapshot(baseline)

        observed = Simulation(attacked_scenario(), obs=ObsConfig())
        events = listen(observed)
        obs_result = observed.run()

        assert events
        assert stats_snapshot(observed) == base_stats
        assert dataclasses.asdict(obs_result) == dataclasses.asdict(
            base_result
        )
        # ...while the observer actually saw the attack
        obs = observed.obs
        assert obs.registry.total("stats_flits_injected") > 0
        assert obs.registry.total("link_corrupted_traversals") > 0
        assert obs.registry.total("ecc_nacks_sent") > 0

    def test_no_obs_attaches_no_hooks(self):
        sim = Simulation(quiet_scenario())
        assert sim.obs is None
        assert sim.network.injection_hooks == []
        assert sim.network.ejection_hooks == []

    def test_observed_and_traced_runs_encode_like_the_bare_run(
        self, monkeypatch, tmp_path
    ):
        """Launch hooks only observe: the obs hooks and the forensics
        ring's hooks leave SECDED to the links with a tamperer."""
        from repro.ecc.hamming import Secded

        calls = [0]
        encode = Secded.encode

        def counting_encode(codec, data):
            calls[0] += 1
            return encode(codec, data)

        monkeypatch.setattr(Secded, "encode", counting_encode)
        bare = Simulation(attacked_scenario())
        bare.run()
        bare_calls, calls[0] = calls[0], 0

        observed = Simulation(attacked_scenario(), obs=ObsConfig())
        events = listen(observed)
        observed.enable_forensics(tmp_path)
        observed.run()

        assert bare_calls > 0
        assert calls[0] == bare_calls
        assert stats_snapshot(observed) == stats_snapshot(bare)
        # the hooks still saw every corruption on the infected link
        corrupts = [e for e in events if e.kind == "corrupt"]
        assert corrupts
        assert len(corrupts) == observed.obs.registry.total(
            "link_corrupted_traversals"
        )


class TestEventCapture:
    def test_attack_run_publishes_the_expected_kinds(self):
        sim = Simulation(attacked_scenario(), obs=ObsConfig())
        events = listen(sim)
        sim.run()
        kinds = {e.kind for e in events}
        assert {"inject", "deliver", "corrupt", "retransmit"} <= kinds
        assert all(e.run == "obs-attacked" for e in events)
        # cycles are monotone enough to archive: injects are ordered
        injects = [e.cycle for e in events if e.kind == "inject"]
        assert injects == sorted(injects)

    def test_verdict_transitions_become_events_and_counters(self):
        sim = Simulation(attacked_scenario(), obs=ObsConfig())
        events = listen(sim)
        sim.run()
        verdicts = [e for e in events if e.kind == "verdict"]
        assert verdicts, "detector verdicts never surfaced as events"
        infected = link_label((0, Direction.EAST))
        assert any(e.data["link"] == infected for e in verdicts)
        # each link's last verdict event is the verdict its detector
        # holds at the final scrape
        last = {e.data["link"]: e.data["verdict"] for e in verdicts}
        for link, verdict in last.items():
            assert sim.obs.registry.get(
                "detector_verdict", link=link, run="obs-attacked",
                verdict=verdict,
            ) is not None

    def test_windowed_series_carries_backpressure_channels(self):
        sim = Simulation(attacked_scenario(), obs=ObsConfig(window=32))
        sim.run()
        series = sim.obs.series
        channels = series.channels()
        assert "obs-attacked/input_utilization" in channels
        assert "obs-attacked/output_utilization" in channels
        util = series.channel("obs-attacked/input_utilization")
        assert util and all(start % 32 == 0 for start, _ in util)

    def test_events_off_keeps_metrics_on(self):
        # no events_jsonl and no other sink: no event is built
        sim = Simulation(attacked_scenario(), obs=ObsConfig())
        sim.run()
        assert sim.obs.export_sink is None
        assert sim.obs.bus.published == 0
        assert sim.obs.registry.total("stats_flits_injected") > 0


class TestOneStatisticsCore:
    """The registry holds only what the final scrape copied from the
    components' own counters, and those agree with the event stream."""

    @pytest.mark.parametrize("mitigated", [True, False])
    def test_scraped_counts_match_the_event_stream(self, mitigated):
        sim = Simulation(
            attacked_scenario(defense=DefenseSpec(mitigated=mitigated)),
            obs=ObsConfig(),
        )
        events = listen(sim)
        sim.run()
        registry = sim.obs.registry
        kinds = {family["kind"] for family in registry.snapshot().values()}
        assert kinds == {"gauge", "histogram"}
        counts = collections.Counter(event.kind for event in events)
        assert counts["corrupt"] > 0
        assert registry.total("stats_flits_injected") == counts["inject"]
        assert registry.total("stats_flits_ejected") == counts["deliver"]
        assert (
            registry.total("link_corrupted_traversals") == counts["corrupt"]
        )


class TestFullQueuesFlush:
    """The export sink appends each full batch to ``events.jsonl``, so
    it holds at most one batch and loses nothing."""

    @pytest.fixture(autouse=True)
    def small_batch(self, monkeypatch):
        monkeypatch.setattr(instrument, "EXPORT_BATCH", 4)

    def test_small_queue_loses_nothing_and_replays_the_verdicts(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import fig11_backpressure as fig11
        from repro.obs.exporters import iter_events_jsonl
        from repro.serve.classify import ZScoreClassifier
        from repro.serve.pipeline import DetectionPipeline, replay_events

        path = tmp_path / "events.jsonl"
        # the runner's --obs-dir wiring, with the export batch far
        # smaller than the run's event count
        monkeypatch.setattr(instrument, "EXPORT_BATCH", 1_000)
        obs = enable_ambient(ObsConfig(events_jsonl=str(path)))
        pipeline = DetectionPipeline([ZScoreClassifier()]).attach(obs)
        try:
            # the trojan arms at 600 and is flagged within the window
            fig11.run(warmup=600, window=300)
        finally:
            disable_ambient()
        pipeline.finish()
        events = obs.export()["events"]
        assert events["published"] > 10 * 1_000
        assert events["dropped"] == 0 and events["queued"] == 0
        with open(path) as fh:
            assert sum(1 for _ in fh) == events["published"]
        replayed = replay_events(iter_events_jsonl(path), [ZScoreClassifier()])
        stream = pipeline.verdict_stream()
        assert [v["subject"] for v in stream] == ["4->SOUTH"]
        assert replayed.verdict_stream() == stream

    @staticmethod
    def _spilled_at_150(path):
        """A run whose 4-event export batch has spilled by cycle 150,
        and its checkpoint there."""
        sim = Simulation(
            attacked_scenario(), obs=ObsConfig(events_jsonl=str(path))
        )
        sim.advance_to(150)
        assert sim.obs.events_written > 0
        return sim, sim.snapshot()

    @staticmethod
    def _straight_lines(path):
        straight = Simulation(
            attacked_scenario(), obs=ObsConfig(events_jsonl=str(path))
        )
        straight.run()
        straight.obs.export()
        return path.read_text().splitlines(keepends=True)

    def test_restored_run_rewrites_what_it_had_not_checkpointed(
        self, tmp_path
    ):
        straight = self._straight_lines(tmp_path / "straight.jsonl")
        path = tmp_path / "resumed.jsonl"
        sim, checkpoint = self._spilled_at_150(path)
        spilled = sim.obs.events_written
        sim.run()  # the "killed" run spills past the checkpoint
        assert spilled < sim.obs.events_written
        resumed = Simulation.restore(checkpoint)
        resumed.run()
        resumed.obs.export()
        assert resumed.obs.events_written == len(straight)
        assert path.read_text() == "".join(straight)

    def test_restored_run_whose_export_is_gone_starts_it_over(
        self, tmp_path
    ):
        straight = self._straight_lines(tmp_path / "straight.jsonl")
        path = tmp_path / "resumed.jsonl"
        sim, checkpoint = self._spilled_at_150(path)
        lost = sim.obs.events_written
        path.unlink()
        resumed = Simulation.restore(checkpoint)
        resumed.run()
        events = resumed.obs.export()["events"]
        # the lines written before the checkpoint count as dropped
        assert events["dropped"] == lost
        assert path.read_text() == "".join(straight[lost:])
        assert events["published"] == len(straight)

    def test_replay_leaves_the_run_export_alone(self, tmp_path):
        from repro.sim import planted_deadlock_scenario, replay_bundle
        from repro.sim.sentinel import SentinelTrip

        path = tmp_path / "events.jsonl"
        sim = Simulation(
            planted_deadlock_scenario(),
            obs=ObsConfig(events_jsonl=str(path)),
        )
        sim.enable_forensics(tmp_path / "fx", snapshot_every=50)
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        assert path.exists()
        path.unlink()
        replayed = replay_bundle(excinfo.value.repro_bundle)
        assert isinstance(replayed, SentinelTrip)
        assert replayed.cycle == excinfo.value.cycle
        assert not path.exists()


class TestWatchdogEscalations:
    def test_event_hooks_fire_through_the_ladder_log(self):
        from repro.obs.instrument import _EscalateHook

        obs = Observability(ObsConfig())
        events = []
        obs.bus.sinks.append(events.append)
        watchdog = RetransWatchdog(WatchdogConfig())
        watchdog.event_hooks.append(_EscalateHook(obs.bus, "ladder"))
        watchdog._log(
            EscalationEvent(
                cycle=120,
                link=(0, Direction.EAST),
                stage=EscalationStage.OBFUSCATE,
                pkt_id=7,
                detail="forced L-Ob",
            )
        )
        (event,) = events
        assert event.kind == "escalate"
        assert event.data["link"] == "0->EAST"
        assert event.data["stage"] == "obfuscate"
        assert event.data["pkt_id"] == 7


class TestWireHooks:
    def test_lob_engagements_reach_the_bus(self):
        """On a mitigated network, the NACKs a trojan causes on
        (0, EAST) engage L-Ob there, and the victim then gets
        through."""
        from repro.core import TaspTrojan, build_mitigated_network
        from repro.noc.flit import Packet
        from repro.obs.events import EventBus

        net = build_mitigated_network(NoCConfig())
        trojan = TaspTrojan(TargetSpec.for_dest(15))
        trojan.enable()
        net.attach_tamperer((0, Direction.EAST), trojan)
        net.add_packet(Packet(pkt_id=1, src_core=0, dst_core=63))
        bus = EventBus()
        events = []
        bus.sinks.append(events.append)
        instrument.wire_hooks(bus, "lob", net)
        net.run(300)
        kinds = [e.kind for e in events]
        obfuscations = [e for e in events if e.kind == "obfuscate"]
        assert obfuscations
        assert {e.data["link"] for e in obfuscations} == {"0->EAST"}
        assert kinds.index("retransmit") < kinds.index("obfuscate")
        assert kinds.count("deliver") == 1
        assert events[-1].kind == "deliver"
        assert events[-1].data["pkt_id"] == 1
        assert {e.run for e in events} == {"lob"}


class TestEngineNotifications:
    def test_checkpoints_emit_events_with_paths(self, tmp_path):
        sim = Simulation(quiet_scenario(), obs=ObsConfig())
        events = listen(sim)
        sim.configure_checkpoints(tmp_path, interval=100)
        sim.run()
        checkpoints = [e for e in events if e.kind == "checkpoint"]
        assert checkpoints
        for event in checkpoints:
            assert event.data["checkpoint_cycle"] == event.cycle
            assert event.data["path"].startswith(str(tmp_path))

    def test_on_failure_records_the_trip_and_finalizes(self):
        sim = Simulation(quiet_scenario(), obs=ObsConfig())
        events = listen(sim)
        sim.advance_to(50)
        sim.obs.on_failure(sim, RuntimeError("synthetic failure"))
        (event,) = [e for e in events if e.kind == "sentinel_trip"]
        assert event.data["trip_kind"] == "crash:RuntimeError"
        assert event.data["message"] == "synthetic failure"
        # the final scrape ran: the registry holds the dying state
        assert sim.obs.registry.get("sim_cycles", run="obs-quiet") is not None

    def test_forensics_bundle_embeds_the_metrics_manifest(self, tmp_path):
        sim = Simulation(quiet_scenario(), obs=ObsConfig())
        sim.enable_forensics(tmp_path)
        sim.advance_to(30)
        sim.obs.finalize(sim)
        bundle = sim.forensics.write_bundle(RuntimeError("boom"))
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert "metrics.json" in manifest["files"]
        metrics = validate_metrics_json(bundle / "metrics.json")
        assert metrics["enabled"] is True
        assert "sim_cycles" in metrics["metrics"]

    def test_observed_simulation_still_pickles(self, tmp_path):
        # the export sink pickles with its batch
        sim = Simulation(quiet_scenario(), obs=ObsConfig(
            events_jsonl=str(tmp_path / "events.jsonl")
        ))
        sim.advance_to(40)
        path = tmp_path / "mid.ckpt"
        sim.snapshot().save(path)
        clone = Simulation.restore(path)
        assert clone.network.cycle == 40
        assert clone.obs is not None
        clone.run()


class TestAmbient:
    def test_armed_ambient_attaches_every_simulation(self):
        obs = enable_ambient(ObsConfig())
        try:
            sim = Simulation(quiet_scenario())
            assert sim.obs is obs is ambient()
            assert sim.network.injection_hooks
        finally:
            disable_ambient()
        assert ambient() is None
        assert Simulation(quiet_scenario()).obs is None

    def test_explicit_obs_wins_over_ambient(self):
        enable_ambient(ObsConfig())
        try:
            mine = Observability(ObsConfig())
            sim = Simulation(quiet_scenario(), obs=mine)
            assert sim.obs is mine
            assert sim.obs is not ambient()
        finally:
            disable_ambient()


class TestProfiler:
    def test_armed_profiler_attributes_wall_clock_to_phases(self):
        prof = obs_profiler.enable()
        try:
            sim = Simulation(quiet_scenario())
            assert sim.network.profiler is prof
            sim.run()
        finally:
            obs_profiler.disable()
        assert prof.total() > 0
        assert set(prof.seconds) <= set(obs_profiler.PHASE_ORDER)
        assert "traverse" in prof.seconds
        assert "profile:" in prof.report()

    def test_unarmed_simulations_carry_no_profiler(self):
        assert Simulation(quiet_scenario()).network.profiler is None


class TestSamplingCadence:
    def test_zero_interval_disables_sampling(self):
        sim = Simulation(quiet_scenario(sample_interval=0))
        result = sim.run()
        assert result.num_samples == 0
        assert sim.network.stats.samples == []

    def test_cadence_is_mirrored_onto_the_series(self):
        # NetworkStats.samples is a plain list; its rows land on the
        # network's sampling cadence
        sim = Simulation(quiet_scenario(sample_interval=20))
        sim.run()
        samples = sim.network.stats.samples
        assert samples
        assert all(s.cycle % 20 == 0 for s in samples)


class TestSecurityReportAdapter:
    def test_report_matches_raw_detector_state(self):
        sim = Simulation(attacked_scenario())
        sim.run()
        net = sim.network
        snapshot = collect_security(net).snapshot()

        def per_link(name):
            return {
                parse_link_label(child["labels"]["link"]): child
                for child in snapshot[name]["series"]
            }

        verdicts = {
            key: LinkVerdict(child["labels"]["verdict"])
            for key, child in per_link("detector_verdict").items()
        }
        faults = per_link("detector_faults_observed")
        bist = per_link("detector_bist_scans")
        assert set(verdicts) == set(net.links)
        for key, verdict in verdicts.items():
            detector = net.receiver_of(key).detector
            assert verdict is detector.verdict
            assert faults[key]["value"] == detector.faults_observed
            assert bist[key]["value"] == detector.bist_scans
        infected = (0, Direction.EAST)
        assert verdicts[infected] is LinkVerdict.TROJAN
        assert faults[infected]["value"] > 0

    def test_unmitigated_network_still_raises(self):
        sim = Simulation(quiet_scenario())
        with pytest.raises(ValueError, match="no threat detectors"):
            collect_security(sim.network)


class TestRunnerIntegration:
    def test_json_output_embeds_a_metrics_section(self, tmp_path):
        out = tmp_path / "results.json"
        assert runner.main(["table2", "--json", str(out), "--no-cache"]) == 0
        payload = json.loads(out.read_text())
        # without --obs-dir the section is the deterministic disabled
        # manifest (the CI resume job byte-compares these files)
        assert payload["metrics"] == {"format": 1, "enabled": False}

    # fig2 finishes every run through Simulation.run(); ablations and
    # fig1 step theirs by hand, so their runs are finalized when the
    # next one attaches and at export
    @pytest.mark.parametrize("name", ["fig2", "ablations", "fig1"])
    def test_obs_dir_arms_ambient_and_exports(self, tmp_path, name):
        out = tmp_path / "results.json"
        obs_dir = tmp_path / "obs"
        report = runner.run_experiment(
            name, json_path=str(out), obs_dir=str(obs_dir)
        )
        assert "observability exported to" in report
        exported = obs_dir / name
        assert validate_events_jsonl(exported / "events.jsonl") > 0
        manifest = validate_metrics_json(exported / "metrics.json")
        assert manifest["enabled"] is True
        assert manifest["runs"]
        # the final scrape reached the export
        assert "stats_packets_completed" in manifest["metrics"]
        assert (exported / "metrics.prom").read_text()
        assert exporters_main(["validate", str(exported)]) == 0
        # the run result embeds the same manifest
        payload = json.loads(out.read_text())
        assert payload["metrics"]["enabled"] is True
        # ambient is disarmed afterwards: later sims are unobserved
        assert ambient() is None


class TestCampaignMetrics:
    FUZZ_CFG = NoCConfig(mesh_width=3, mesh_height=3, concentration=1)

    def run_campaign(self):
        spec = CampaignSpec(
            Scenario(
                name="obs-fuzz",
                cfg=self.FUZZ_CFG,
                traffic=(
                    ExplicitTraffic(
                        uniform_traffic(self.FUZZ_CFG, 5, 20, interval=4)
                    ),
                ),
                defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
                max_cycles=2000,
                seed=5,
                **random_events(self.FUZZ_CFG, 5, horizon=200),
            ),
            validate_every=7,
        )
        return ChaosCampaign(spec).run()

    def test_ambient_obs_observes_back_to_back_campaigns(self):
        """Each campaign finalizes its run, so the next one observed by
        the same bundle may start again at cycle 0; observing changes
        no report."""
        unobserved = self.run_campaign()
        obs = enable_ambient(ObsConfig())
        try:
            first = self.run_campaign()
            second = self.run_campaign()
        finally:
            disable_ambient()
        assert first == second == unobserved
        # one label per simulation
        assert obs.runs == ["obs-fuzz", "obs-fuzz#2"]

    def test_reports_embed_deterministic_metrics(self):
        first = self.run_campaign()
        second = self.run_campaign()
        assert first.metrics == second.metrics
        assert first.metrics == campaign_metrics(first)
        delivered = first.metrics["campaign_packets_delivered"]["series"]
        assert delivered[0]["labels"] == {"run": "obs-fuzz"}
        assert (
            delivered[0]["value"] == first.packets_delivered
        )


class TestChaosUnderObservation:
    def test_one_label_per_simulation_and_every_epoch_observed(self):
        """Repeated scenario names get ``#k`` labels, and a campaign's
        recovered epochs publish under their simulation's label."""
        from repro.experiments import chaos

        bare = chaos.run()
        obs = enable_ambient(ObsConfig())
        events = []
        obs.bus.sinks.append(events.append)
        try:
            observed = chaos.run()
        finally:
            disable_ambient()
        assert observed == bare
        assert len(set(obs.runs)) == len(obs.runs)
        # the explanation pass re-runs no-watchdog under new labels
        assert "no-watchdog#2" in obs.runs
        for report in (observed.ladder, observed.bare_watchdog):
            assert obs.runs.count(report.name) == 1
            recovered = report.recovery_cycles[-1]
            assert any(
                event.kind == "deliver"
                and event.run == report.name
                and event.cycle > recovered
                for event in events
            ), f"{report.name}: no delivery observed after recovery"
