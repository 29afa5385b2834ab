"""Declarative simulation layer.

``sim`` sits between the cycle-accurate :mod:`repro.noc` core and the
paper's experiments: a :class:`~repro.sim.scenario.Scenario` describes a
complete run (topology config, traffic, trojans, defenses, limits) as a
frozen, JSON-round-trippable value with a stable content hash, and
:mod:`repro.sim.engine` turns it into a wired :class:`~repro.noc.network.Network`
or a finished :class:`~repro.sim.engine.RunResult`.  Results can be
memoized on disk through :mod:`repro.sim.cache`, and live simulation
state can be frozen to disk and resumed through
:mod:`repro.sim.checkpoint`.

Failure forensics ride on top: :mod:`repro.sim.sentinel` audits
invariants and progress online, :mod:`repro.sim.forensics` captures
failures as replayable ``*.repro`` bundles, and
:mod:`repro.sim.shrink` delta-debugs a failing scenario down to its
minimal cause.
"""

from repro._lazy import facade

_EXPORTS = {
    "ENGINE_ENV": "engine",
    "EventCore": "sched",
    "Checkpoint": "checkpoint",
    "CheckpointError": "checkpoint",
    "Forensics": "forensics",
    "ForensicsError": "forensics",
    "ReproBundle": "forensics",
    "ScenarioDecodeError": "scenario",
    "Sentinel": "sentinel",
    "SentinelSpec": "sentinel",
    "SentinelTrip": "sentinel",
    "ShrinkError": "shrink",
    "ShrinkResult": "shrink",
    "failure_signature": "forensics",
    "load_bundle": "forensics",
    "planted_deadlock_scenario": "forensics",
    "replay_bundle": "forensics",
    "shrink_bundle": "shrink",
    "shrink_scenario": "shrink",
    "latest_checkpoint": "checkpoint",
    "list_checkpoints": "checkpoint",
    "prune_checkpoints": "checkpoint",
    "resume_or_build": "engine",
    "AppTraffic": "scenario",
    "DefenseSpec": "scenario",
    "DropAttackSpec": "scenario",
    "ExplicitTraffic": "scenario",
    "FloodTraffic": "scenario",
    "PacketSpec": "scenario",
    "ResultCache": "cache",
    "RunResult": "engine",
    "Scenario": "scenario",
    "Simulation": "engine",
    "SyntheticTraffic": "scenario",
    "TransientFaultSpec": "scenario",
    "TrojanSpec": "scenario",
    "attach_trojan_specs": "engine",
    "build": "engine",
    "code_version": "cache",
    "run": "engine",
    "spec_hash": "cache",
    "trojan_specs": "scenario",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
