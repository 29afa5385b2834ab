"""The paper's primary contribution.

* :mod:`repro.core.targets` / :mod:`repro.core.tasp` — the TASP
  hardware-trojan threat model (attack side);
* :mod:`repro.core.detector` — the heuristic threat source detector;
* :mod:`repro.core.lob` — L-Ob switch-to-switch obfuscation;
* :mod:`repro.core.mitigation` — both wired into the router datapath.
"""

from repro._lazy import facade

_EXPORTS = {
    "AttackPlan": "attacker",
    "compare_targets": "attacker",
    "plan_attack": "attacker",
    "victim_flow_volumes": "attacker",
    "DetectorConfig": "detector",
    "FaultRecord": "detector",
    "LinkVerdict": "detector",
    "ThreatDetector": "detector",
    "DEFAULT_METHOD_SEQUENCE": "lob",
    "Granularity": "lob",
    "LObCodec": "lob",
    "LObEncoder": "lob",
    "ObDescriptor": "lob",
    "ObMethod": "lob",
    "PENALTY_CYCLES": "lob",
    "MigratedSource": "migration",
    "MigrationError": "migration",
    "MigrationPlan": "migration",
    "plan_migration": "migration",
    "DetectingReceiver": "mitigation",
    "MitigationConfig": "mitigation",
    "build_mitigated_network": "mitigation",
    "RecoveryManager": "recovery",
    "RecoveryReport": "recovery",
    "TargetSpec": "targets",
    "TaspConfig": "tasp",
    "TaspState": "tasp",
    "TaspTrojan": "tasp",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
