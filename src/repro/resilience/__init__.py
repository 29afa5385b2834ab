"""Resilience layer: chaos campaigns, the watchdog ladder, degradation.

Three cooperating pieces on top of the NoC simulator:

* :mod:`repro.resilience.campaign` — seeded chaos campaigns that run
  a scenario's scheduled faults while auditing conservation invariants
  and exactly-once delivery (import its names from that module: it
  builds on :mod:`repro.sim`, which imports this package's configs);
* :mod:`repro.resilience.watchdog` — per-output-port progress timers
  that walk pinned retransmission slots up an escalation ladder
  (exponential backoff -> forced L-Ob -> drop-with-notify -> condemn);
* :mod:`repro.resilience.degrade` — the graceful-degradation drop path
  that purges a condemned packet without breaking credit, sequence or
  flit conservation, handing delivery to the end-to-end ledger;
* :mod:`repro.resilience.detect` — an online traffic-statistics
  detector (windowed retransmission-rate and back-pressure z-scores)
  that feeds the watchdog ladder early;
* :mod:`repro.resilience.probe` / probation in
  :mod:`repro.resilience.containment` — the recovery half of the loop:
  BIST-style traffic-shaped probing of contained links, hysteretic
  reinstatement, exponential flap damping.
"""

from repro.resilience.containment import (
    ContainmentConfig,
    ContainmentCoordinator,
    ContainmentEvent,
    ProbationConfig,
    SAFE_REROUTE_MODELS,
)
from repro.resilience.detect import (
    DetectConfig,
    DetectionEvent,
    TrafficStatsDetector,
)
from repro.resilience.probe import (
    LinkProber,
    ProbeConfig,
    ProbeTrial,
    ProbeVerdict,
)
from repro.resilience.degrade import DropReport, drop_packet_at_port
from repro.resilience.watchdog import (
    EscalationEvent,
    EscalationStage,
    PartitionRisk,
    RetransWatchdog,
    WatchdogConfig,
)

__all__ = [
    "ContainmentConfig",
    "ContainmentCoordinator",
    "ContainmentEvent",
    "ProbationConfig",
    "SAFE_REROUTE_MODELS",
    "DetectConfig",
    "DetectionEvent",
    "TrafficStatsDetector",
    "LinkProber",
    "ProbeConfig",
    "ProbeTrial",
    "ProbeVerdict",
    "PartitionRisk",
    "DropReport",
    "drop_packet_at_port",
    "EscalationEvent",
    "EscalationStage",
    "RetransWatchdog",
    "WatchdogConfig",
]
