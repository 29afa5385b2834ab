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

from repro._lazy import facade

_EXPORTS = {
    "ContainmentConfig": "containment",
    "ContainmentCoordinator": "containment",
    "ContainmentEvent": "containment",
    "ProbationConfig": "containment",
    "SAFE_REROUTE_MODELS": "containment",
    "DetectConfig": "detect",
    "DetectionEvent": "detect",
    "TrafficStatsDetector": "detect",
    "LinkProber": "probe",
    "ProbeConfig": "probe",
    "ProbeTrial": "probe",
    "ProbeVerdict": "probe",
    "PartitionRisk": "watchdog",
    "DropReport": "degrade",
    "drop_packet_at_port": "degrade",
    "EscalationEvent": "watchdog",
    "EscalationStage": "watchdog",
    "RetransWatchdog": "watchdog",
    "WatchdogConfig": "watchdog",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
