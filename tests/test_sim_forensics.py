"""Failure forensics: bundle capture, deterministic replay, CLI.

A failing run with forensics armed must leave a complete ``*.repro``
bundle, and replaying that bundle must re-raise the *same* failure
signature at the *same* cycle — that determinism is what makes the
shrinker's oracle trustworthy.
"""

import dataclasses
import json
import pickle

import pytest

from repro.noc.invariants import InvariantViolation
from repro.obs.exporters import iter_events_jsonl
from repro.sim import (
    Checkpoint,
    ForensicsError,
    Simulation,
    engine,
    failure_signature,
    load_bundle,
    planted_deadlock_scenario,
    replay_bundle,
)
from repro.sim import forensics as forensics_module
from repro.sim.forensics import (
    BUNDLE_FORMAT,
    CHECKPOINT_NAME,
    EVENTS_NAME,
    MANIFEST_NAME,
    SCENARIO_NAME,
    VIOLATION_NAME,
    main as forensics_main,
)
from repro.sim.sentinel import SentinelTrip
from tests.test_resilience_probation import _healing_scenario


@pytest.fixture(scope="module")
def planted_bundle(tmp_path_factory):
    """One captured planted-failure bundle shared by the read-only
    tests (each makes its own when it mutates anything)."""
    out = tmp_path_factory.mktemp("forensics")
    sim = Simulation(planted_deadlock_scenario())
    sim.enable_forensics(out)
    with pytest.raises(SentinelTrip) as excinfo:
        sim.run()
    return excinfo.value, excinfo.value.repro_bundle


class TestBundleCapture:
    def test_bundle_is_complete(self, planted_bundle):
        exc, bundle = planted_bundle
        assert bundle is not None and bundle.is_dir()
        assert bundle.suffix == ".repro"
        names = sorted(p.name for p in bundle.iterdir())
        assert names == sorted([
            MANIFEST_NAME, SCENARIO_NAME, CHECKPOINT_NAME,
            VIOLATION_NAME, EVENTS_NAME,
        ])

    def test_manifest_fields(self, planted_bundle):
        exc, bundle = planted_bundle
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        scenario = planted_deadlock_scenario()
        assert manifest["format"] == BUNDLE_FORMAT
        assert manifest["name"] == scenario.name
        assert manifest["scenario_hash"] == scenario.content_hash()
        assert manifest["signature"] == "livelock"
        assert manifest["cycle"] == exc.cycle
        assert manifest["checkpoint_cycle"] <= exc.cycle
        assert sorted(manifest["files"]) == sorted(
            p.name for p in bundle.iterdir()
        )

    def test_violation_payload(self, planted_bundle):
        exc, bundle = planted_bundle
        violation = json.loads((bundle / VIOLATION_NAME).read_text())
        assert violation["signature"] == "livelock"
        assert violation["type"] == "SentinelTrip"
        assert violation["cycle"] == exc.cycle
        assert "re-sent" in violation["message"]

    def test_trace_window_ends_at_failure(self, planted_bundle):
        """The window is obs events, and its tail is the killer link's
        NACK loop up to the trip cycle; under capacity it also keeps
        the run's first event."""
        exc, bundle = planted_bundle
        events = list(iter_events_jsonl(bundle / EVENTS_NAME))
        assert (events[0].kind, events[0].cycle) == ("inject", 0)
        assert events[-1].cycle == exc.cycle
        assert all(e.run == "planted-deadlock" for e in events)
        tail = events[-6:]
        assert [e.kind for e in tail] == ["retransmit", "corrupt"] * 3
        assert {e.data["link"] for e in tail} == {"0->EAST"}

    def test_bundled_scenario_round_trips(self, planted_bundle):
        _, bundle = planted_bundle
        assert (
            load_bundle(bundle).scenario == planted_deadlock_scenario()
        )

    def test_no_forensics_no_bundle(self):
        sim = Simulation(planted_deadlock_scenario())
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        assert not hasattr(excinfo.value, "repro_bundle")

    def test_engine_run_env_var(self, tmp_path, monkeypatch):
        """Forked runner workers arm forensics via the environment."""
        monkeypatch.setenv("REPRO_FORENSICS_DIR", str(tmp_path / "fx"))
        with pytest.raises(SentinelTrip) as excinfo:
            engine.run(planted_deadlock_scenario())
        bundle = excinfo.value.repro_bundle
        assert bundle is not None
        assert bundle.parent == tmp_path / "fx"

    def test_collision_suffix(self, tmp_path, planted_bundle):
        """Two failures at the same cycle in the same directory get
        distinct bundle names."""
        for _ in range(2):
            sim = Simulation(planted_deadlock_scenario())
            sim.enable_forensics(tmp_path)
            with pytest.raises(SentinelTrip):
                sim.run()
        bundles = sorted(p.name for p in tmp_path.glob("*.repro"))
        assert len(bundles) == 2
        assert bundles[0] != bundles[1]

    def test_a_recorder_that_cannot_write_is_asked_once(self, tmp_path):
        from repro.obs.instrument import ObsConfig

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        sim = Simulation(planted_deadlock_scenario(), obs=ObsConfig())
        sim.enable_forensics(blocker)
        events = []
        sim.obs.bus.sinks.append(events.append)
        with pytest.raises(OSError) as excinfo:
            sim.advance_to(5000)
        assert isinstance(excinfo.value.__context__, SentinelTrip)
        assert [e.kind for e in events].count("sentinel_trip") == 1


STEPPING_CALLS = {
    "run": lambda sim: sim.run(),
    "advance_to": lambda sim: sim.advance_to(5000),
    "run_until_drained": lambda sim: sim.run_until_drained(5000),
    "step": lambda sim: [sim.step() for _ in range(5000)],
}


class TestArmedByEnvironment:
    """``REPRO_FORENSICS_DIR`` arms every simulation a process builds,
    and a failure escaping any stepping call is recorded once."""

    @pytest.mark.parametrize("call", sorted(STEPPING_CALLS))
    def test_failure_leaves_one_replayable_bundle(
        self, tmp_path, monkeypatch, call
    ):
        from repro.obs.instrument import ObsConfig

        monkeypatch.setenv("REPRO_FORENSICS_DIR", str(tmp_path))
        sim = Simulation(planted_deadlock_scenario(), obs=ObsConfig())
        events = []
        sim.obs.bus.sinks.append(events.append)
        with pytest.raises(SentinelTrip) as excinfo:
            STEPPING_CALLS[call](sim)
        exc = excinfo.value
        assert list(tmp_path.glob("*.repro")) == [exc.repro_bundle]
        assert [e.kind for e in events].count("sentinel_trip") == 1
        replayed = replay_bundle(exc.repro_bundle)
        assert failure_signature(replayed) == failure_signature(exc)
        assert replayed.cycle == exc.cycle

    def test_arming_twice_keeps_one_ring(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORENSICS_DIR", str(tmp_path / "env"))
        sim = Simulation(planted_deadlock_scenario())
        armed = sim.forensics
        assert armed is not None
        hooks = len(sim.network.injection_hooks)
        sim.enable_forensics(tmp_path / "explicit")
        assert sim.forensics.ring is armed.ring
        assert len(sim.network.injection_hooks) == hooks
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        assert excinfo.value.repro_bundle.parent == tmp_path / "explicit"
        assert not (tmp_path / "env").exists()

    def test_resumed_run_is_armed(self, tmp_path, monkeypatch):
        scenario = planted_deadlock_scenario()
        sim = Simulation(scenario)
        sim.configure_checkpoints(tmp_path / "ckpt", interval=50)
        sim.advance_to(60)
        monkeypatch.setenv("REPRO_FORENSICS_DIR", str(tmp_path / "fx"))
        with pytest.raises(SentinelTrip) as excinfo:
            engine.run(
                scenario, resume=True, checkpoint_dir=tmp_path / "ckpt"
            )
        bundle = excinfo.value.repro_bundle
        assert load_bundle(bundle).manifest["checkpoint_cycle"] == 50
        assert replay_bundle(bundle).cycle == excinfo.value.cycle


class TestReplay:
    def test_replay_reproduces(self, planted_bundle):
        exc, bundle = planted_bundle
        replayed = replay_bundle(bundle)
        assert failure_signature(replayed) == "livelock"
        assert replayed.cycle == exc.cycle

    def test_replay_is_deterministic(self, planted_bundle):
        _, bundle = planted_bundle
        a = replay_bundle(bundle)
        b = replay_bundle(bundle)
        assert str(a) == str(b)
        assert a.cycle == b.cycle

    def test_replay_sim_does_not_rebundle(self, planted_bundle):
        _, bundle = planted_bundle
        sim = Simulation.replay(bundle)
        assert sim.forensics is None
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        assert not hasattr(excinfo.value, "repro_bundle")

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(ForensicsError, match="not a repro bundle"):
            load_bundle(tmp_path)

    def test_unsupported_format(self, tmp_path, planted_bundle):
        _, bundle = planted_bundle
        bad = tmp_path / "bad.repro"
        bad.mkdir()
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["format"] = BUNDLE_FORMAT + 1
        (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ForensicsError, match="format"):
            load_bundle(bad)


class TestRecorderState:
    def test_ring_keeps_newest(self, tmp_path, monkeypatch):
        """A full ring evicts the oldest events: the bundled window is
        the last TRACE_CAPACITY events of the whole stream, in order."""
        full = Simulation(planted_deadlock_scenario())
        full.enable_forensics(tmp_path / "full")
        with pytest.raises(SentinelTrip):
            full.run()
        monkeypatch.setattr(forensics_module, "TRACE_CAPACITY", 5)
        sim = Simulation(planted_deadlock_scenario())
        sim.enable_forensics(tmp_path / "ring")
        with pytest.raises(SentinelTrip) as excinfo:
            sim.run()
        stream = list(full.forensics.ring)
        assert len(stream) > 5
        window = list(iter_events_jsonl(
            excinfo.value.repro_bundle / EVENTS_NAME
        ))
        assert window == list(sim.forensics.ring) == stream[-5:]
        assert window[-1].cycle == excinfo.value.cycle

    def test_restored_hooks_feed_the_restored_ring(self, tmp_path):
        """The ring's hooks are named classes, not closures, so an
        armed simulation checkpoints, and its restored copy records
        into its own ring."""
        sim = Simulation(planted_deadlock_scenario())
        sim.enable_forensics(tmp_path)
        sim.advance_to(30)
        before = len(sim.forensics.ring)
        restored = Checkpoint.capture(sim).restore()
        assert list(restored.forensics.ring) == list(sim.forensics.ring)
        restored.advance_to(60)
        assert len(restored.forensics.ring) > before
        assert len(sim.forensics.ring) == before

    def test_window_ignores_obs_but_takes_its_run_label(self, tmp_path):
        """Obs changes the window's run label and nothing else, and
        the recorder adds no sink to the obs bus."""
        from repro.obs.instrument import ObsConfig, Observability

        bare = Simulation(planted_deadlock_scenario())
        bare.enable_forensics(tmp_path / "bare")
        obs = Observability(ObsConfig())
        Simulation(planted_deadlock_scenario(), obs=obs)
        observed = Simulation(planted_deadlock_scenario(), obs=obs)
        observed.enable_forensics(tmp_path / "observed")
        for sim in (bare, observed):
            with pytest.raises(SentinelTrip):
                sim.run()
        assert observed.obs_run == "planted-deadlock#2"
        assert list(observed.forensics.ring) == [
            dataclasses.replace(e, run="planted-deadlock#2")
            for e in bare.forensics.ring
        ]
        assert obs.bus.sinks == []

    def test_window_is_the_obs_stream_with_the_defense(
        self, tmp_path, monkeypatch
    ):
        """Under capacity the window is every event the obs hooks
        publish, the defense's decisions included: only the obs-only
        verdict, checkpoint and sentinel_trip kinds stay out."""
        from repro.obs.instrument import ObsConfig
        from repro.resilience.localize import LocalizeConfig

        monkeypatch.setattr(forensics_module, "TRACE_CAPACITY", 10**6)
        healing = _healing_scenario()
        scenario = dataclasses.replace(
            healing,
            duration=1000,
            defense=dataclasses.replace(
                healing.defense, localizer=LocalizeConfig()
            ),
        )
        sim = Simulation(scenario, obs=ObsConfig())
        stream = []
        sim.obs.bus.sinks.append(stream.append)
        sim.enable_forensics(tmp_path)
        sim.run()
        window = list(sim.forensics.ring)
        assert window == [
            e for e in stream
            if e.kind not in ("verdict", "checkpoint", "sentinel_trip")
        ]
        assert {"escalate", "contain", "detect", "localize"} <= {
            e.kind for e in window
        }

    def test_forensics_snapshot_does_not_nest(self, tmp_path):
        """Checkpointing a sim with forensics armed must drop the held
        last-good snapshot (a snapshot inside a snapshot would grow
        without bound) and stay picklable despite the ring's hooks."""
        sim = Simulation(planted_deadlock_scenario())
        forensics = sim.enable_forensics(tmp_path)
        for _ in range(10):
            sim.step()
        checkpoint = Checkpoint.capture(sim)
        restored = checkpoint.restore()
        assert restored.forensics is not None
        assert restored.forensics.last_good is None
        state = pickle.loads(pickle.dumps(forensics.__getstate__()))
        assert state["last_good"] is None

    def test_restored_recorder_without_snapshot_refuses(self, tmp_path):
        sim = Simulation(planted_deadlock_scenario())
        sim.enable_forensics(tmp_path)
        restored = Checkpoint.capture(sim).restore()
        with pytest.raises(ForensicsError, match="last-good"):
            restored.forensics.write_bundle(ValueError("x"))

    def test_resumed_recorder_writes_a_bundle(self, tmp_path, monkeypatch):
        """A simulation resumed with its recorder holds the restored
        state as its last-good checkpoint before it steps."""
        monkeypatch.delenv("REPRO_FORENSICS_DIR", raising=False)
        scenario = planted_deadlock_scenario()
        sim = Simulation(scenario)
        sim.enable_forensics(tmp_path / "fx")
        sim.configure_checkpoints(tmp_path / "ckpt", interval=50)
        sim.advance_to(60)
        resumed = engine.resume_or_build(scenario, tmp_path / "ckpt")
        assert resumed.resumed_from_cycle == 50
        with pytest.raises(SentinelTrip) as excinfo:
            resumed.run()
        exc = excinfo.value
        assert list((tmp_path / "fx").glob("*.repro")) == [exc.repro_bundle]
        assert load_bundle(exc.repro_bundle).manifest["checkpoint_cycle"] == 50
        replayed = replay_bundle(exc.repro_bundle)
        assert failure_signature(replayed) == failure_signature(exc)
        assert replayed.cycle == exc.cycle


class TestFailureSignature:
    def test_sentinel_trip_uses_kind(self):
        assert failure_signature(
            SentinelTrip("deadlock", 3, "m")
        ) == "deadlock"

    def test_invariant_violation(self):
        assert failure_signature(InvariantViolation("m")) == "invariant"

    def test_other_exceptions(self):
        assert failure_signature(ValueError("m")) == "crash:ValueError"


class TestCli:
    def test_demo_then_replay(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert forensics_main(["demo", "--dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "failure: livelock" in printed
        bundles = list(out.glob("*.repro"))
        assert len(bundles) == 1
        assert forensics_main(["replay", str(bundles[0])]) == 0
        assert "replay ok: livelock" in capsys.readouterr().out

    def test_replay_of_garbage_fails(self, tmp_path, capsys):
        assert forensics_main(["replay", str(tmp_path)]) == 1
        assert "replay FAILED" in capsys.readouterr().out
