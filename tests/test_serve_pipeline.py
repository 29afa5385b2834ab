"""Streaming pipeline contracts: pure observation, determinism, replay.

The load-bearing guarantees, each tested here:

* a streamed run's :class:`RunResult` and ``NetworkStats`` are
  byte-identical to a bare run (the pipeline is a pure observer);
* sweep and event engines produce byte-identical streams;
* replaying a recorded ``events.jsonl`` reproduces the live stream
  byte-for-byte.
"""

import dataclasses
import json

from repro.core import TargetSpec
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction
from repro.experiments.export import to_jsonable
from repro.obs.exporters import iter_events_jsonl
from repro.obs.instrument import ObsConfig
from repro.serve.classify import default_classifiers
from repro.serve.features import FeatureExtractor
from repro.serve.pipeline import (
    DetectionPipeline,
    replay_events,
    run_streaming,
)
from repro.serve.classify import ZScoreClassifier
from repro.sim import (
    DefenseSpec,
    ExplicitTraffic,
    PacketSpec,
    Scenario,
    Simulation,
    SyntheticTraffic,
    TrojanSpec,
)


def dos_scenario(**overrides) -> Scenario:
    """Unmitigated targeted flow through a trojan that arms mid-run:
    a quiet warmup, then a sustained retransmission storm to a stall
    abort — the paper's DoS picture, and three verdict kinds."""
    packets = tuple(
        PacketSpec(pkt_id=i, src_core=0,
                   dst_core=PAPER_CONFIG.core_of(11, 1),
                   mem_addr=0x100, inject_at=100 + i * 40)
        for i in range(40)
    )
    base = dict(
        name="serve-dos",
        cfg=PAPER_CONFIG,
        traffic=(ExplicitTraffic(packets=packets),),
        trojans=(TrojanSpec((0, Direction.EAST), TargetSpec.for_dest(11),
                            enable_at=900),),
        defense=DefenseSpec(),
        max_cycles=6000,
        stall_limit=2500,
    )
    base.update(overrides)
    return Scenario(**base)


def timed_scenario(**overrides) -> Scenario:
    """Duration-mode coverage for the streamed run."""
    base = dict(
        name="serve-timed",
        cfg=PAPER_CONFIG,
        traffic=(SyntheticTraffic(injection_rate=0.02, duration=700,
                                  seed=9),),
        duration=900,
    )
    base.update(overrides)
    return Scenario(**base)


def stream_of(run) -> str:
    return json.dumps(run.verdict_stream(), sort_keys=True)


class TestPureObserver:
    def test_streamed_result_is_byte_identical_to_bare(self):
        bare = Simulation(dos_scenario())
        bare_result = bare.run()
        bare_stats = json.dumps(
            to_jsonable(vars(bare.network.stats)), sort_keys=True
        )
        streamed = run_streaming(dos_scenario())
        assert dataclasses.asdict(streamed.result) == dataclasses.asdict(
            bare_result
        )
        # ...and it actually saw the attack
        kinds = {v.kind for v in streamed.verdicts}
        assert {"suspect_link", "backpressure", "estimate"} <= kinds

    def test_duration_mode_drives_to_the_exact_cycle(self):
        bare_result = Simulation(timed_scenario()).run()
        streamed = run_streaming(timed_scenario())
        assert streamed.result.completed
        assert streamed.result.cycles == bare_result.cycles == 900
        assert dataclasses.asdict(streamed.result) == dataclasses.asdict(
            bare_result
        )

    def test_stall_abort_matches_the_one_shot_engine(self):
        # the DoS run livelocks: the streamed run must abort on the
        # same cycle with completed=False
        assert not run_streaming(dos_scenario()).result.completed


class TestDeterminism:
    def test_sweep_and_event_engines_stream_identically(self):
        sweep = run_streaming(dos_scenario(), engine="sweep")
        event = run_streaming(dos_scenario(), engine="event")
        assert stream_of(sweep) == stream_of(event)
        assert dataclasses.asdict(sweep.result) == dataclasses.asdict(
            event.result
        )

    def test_recorded_stream_replays_byte_identically(self, tmp_path):
        record = tmp_path / "events.jsonl"
        live = run_streaming(dos_scenario(), events_jsonl=str(record))
        scenario = dos_scenario()
        replayed = replay_events(
            iter_events_jsonl(record),
            default_classifiers(scenario),
            window=64,
            up_to=live.result.cycles,
        )
        assert json.dumps(
            replayed.verdict_stream(), sort_keys=True
        ) == stream_of(live)

    def test_recorded_stream_rebuilds_the_live_frames(self, tmp_path):
        """One extractor fed the live events through a list sink, one
        fed the recorded file: their frames are byte-identical."""
        record = tmp_path / "events.jsonl"
        sim = Simulation(
            dos_scenario(),
            obs=ObsConfig(metrics=False, window=0, events_jsonl=str(record)),
        )
        events = []
        sim.obs.bus.sinks.append(events.append)
        cycles = sim.run().cycles
        sim.obs.export()

        def frames(stream) -> str:
            extractor = FeatureExtractor(64)
            closed = [f for event in stream for f in extractor.add(event)]
            closed += extractor.flush(cycles)
            assert closed
            return json.dumps([f.to_dict() for f in closed])

        assert frames(events) == frames(iter_events_jsonl(record))


class TestCallbacksAndLimits:
    def test_on_verdict_fires_in_stream_order(self):
        seen = []
        run = run_streaming(
            dos_scenario(), on_verdict=lambda v: seen.append(v)
        )
        assert seen == run.verdicts

    def test_payload_is_json_serializable_and_complete(self):
        payload = run_streaming(dos_scenario()).to_payload()
        assert set(payload) == {"result", "verdict_stream"}
        json.dumps(payload, sort_keys=True)


class TestPipelineWiring:
    def test_detach_stops_observation(self):
        from repro.obs.instrument import ObsConfig, Observability

        obs = Observability(ObsConfig(metrics=False, window=0))
        pipeline = DetectionPipeline([ZScoreClassifier()]).attach(obs)
        assert obs.bus.sinks == [pipeline.fold]
        obs.bus.emit("inject", 0, "r", pkt_id=1, seq=0, core=0)
        pipeline.detach()
        assert obs.bus.sinks == []
        # with no sink left nothing is built, let alone folded
        assert obs.bus.emit("inject", 1, "r", pkt_id=2, seq=0, core=0) is None
        assert pipeline.extractor.events_folded == 1
