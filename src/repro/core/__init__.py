"""The paper's primary contribution.

* :mod:`repro.core.targets` / :mod:`repro.core.tasp` — the TASP
  hardware-trojan threat model (attack side);
* :mod:`repro.core.detector` — the heuristic threat source detector;
* :mod:`repro.core.lob` — L-Ob switch-to-switch obfuscation;
* :mod:`repro.core.mitigation` — both wired into the router datapath.
"""

from repro.core.attacker import AttackPlan, compare_targets, plan_attack, victim_flow_volumes
from repro.core.detector import (
    DetectorConfig,
    FaultRecord,
    LinkVerdict,
    ThreatDetector,
)
from repro.core.lob import (
    DEFAULT_METHOD_SEQUENCE,
    Granularity,
    LObCodec,
    LObEncoder,
    ObDescriptor,
    ObMethod,
    PENALTY_CYCLES,
)
from repro.core.migration import (
    MigratedSource,
    MigrationError,
    MigrationPlan,
    plan_migration,
)
from repro.core.mitigation import (
    DetectingReceiver,
    MitigationConfig,
    build_mitigated_network,
)
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.targets import TargetSpec
from repro.core.tasp import TaspConfig, TaspState, TaspTrojan

__all__ = [
    "AttackPlan",
    "compare_targets",
    "plan_attack",
    "victim_flow_volumes",
    "DetectorConfig",
    "FaultRecord",
    "LinkVerdict",
    "ThreatDetector",
    "DEFAULT_METHOD_SEQUENCE",
    "Granularity",
    "LObCodec",
    "LObEncoder",
    "ObDescriptor",
    "ObMethod",
    "PENALTY_CYCLES",
    "MigratedSource",
    "MigrationError",
    "MigrationPlan",
    "plan_migration",
    "DetectingReceiver",
    "MitigationConfig",
    "build_mitigated_network",
    "RecoveryManager",
    "RecoveryReport",
    "TargetSpec",
    "TaspConfig",
    "TaspState",
    "TaspTrojan",
]
