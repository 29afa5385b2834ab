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

from repro.sim.scenario import (
    AppTraffic,
    DefenseSpec,
    DropAttackSpec,
    ExplicitTraffic,
    FloodTraffic,
    PacketSpec,
    Scenario,
    ScenarioDecodeError,
    SyntheticTraffic,
    TransientFaultSpec,
    TrojanSpec,
    trojan_specs,
)
from repro.sim.engine import (
    ENGINE_ENV,
    RunResult,
    Simulation,
    attach_trojan_specs,
    build,
    resume_or_build,
    run,
)
from repro.sim.sched import EventCore
from repro.sim.cache import ResultCache, code_version, spec_hash
from repro.sim.checkpoint import (
    Checkpoint,
    CheckpointError,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
)
from repro.sim.sentinel import Sentinel, SentinelSpec, SentinelTrip
from repro.sim.forensics import (
    Forensics,
    ForensicsError,
    ReproBundle,
    failure_signature,
    load_bundle,
    planted_deadlock_scenario,
    replay_bundle,
)
from repro.sim.shrink import (
    ShrinkError,
    ShrinkResult,
    shrink_bundle,
    shrink_scenario,
)

__all__ = [
    "ENGINE_ENV",
    "EventCore",
    "Checkpoint",
    "CheckpointError",
    "Forensics",
    "ForensicsError",
    "ReproBundle",
    "ScenarioDecodeError",
    "Sentinel",
    "SentinelSpec",
    "SentinelTrip",
    "ShrinkError",
    "ShrinkResult",
    "failure_signature",
    "load_bundle",
    "planted_deadlock_scenario",
    "replay_bundle",
    "shrink_bundle",
    "shrink_scenario",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "resume_or_build",
    "AppTraffic",
    "DefenseSpec",
    "DropAttackSpec",
    "ExplicitTraffic",
    "FloodTraffic",
    "PacketSpec",
    "ResultCache",
    "RunResult",
    "Scenario",
    "Simulation",
    "SyntheticTraffic",
    "TransientFaultSpec",
    "TrojanSpec",
    "attach_trojan_specs",
    "build",
    "code_version",
    "run",
    "spec_hash",
    "trojan_specs",
]
