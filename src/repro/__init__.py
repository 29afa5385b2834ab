"""repro — reproduction of Boraten & Kodi, *Mitigation of Denial of
Service Attack with Hardware Trojans in NoC Architectures* (IPDPS 2016).

The package builds, from scratch, everything the paper's evaluation
needs:

* :mod:`repro.noc` — a cycle-accurate concentrated-mesh NoC simulator
  (5-stage VC routers, credits, SECDED links, selective-repeat
  retransmission);
* :mod:`repro.core` — the paper's contribution: the TASP hardware
  trojan, the threat source detector, and L-Ob switch-to-switch
  obfuscation;
* :mod:`repro.ecc`, :mod:`repro.faults` — SECDED codec, fault models
  and BIST;
* :mod:`repro.baselines` — e2e obfuscation, TDM QoS, Ariadne-style
  rerouting;
* :mod:`repro.traffic` — synthetic patterns and PARSEC/SPLASH-like
  application profiles;
* :mod:`repro.power` — an analytic TSMC-40nm-class area/power/timing
  model;
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro import (NoCConfig, Network, Packet, TargetSpec,
                       TaspTrojan, build_mitigated_network, Direction)

    net = build_mitigated_network(NoCConfig())
    trojan = TaspTrojan(TargetSpec.for_dest(15))
    trojan.enable()
    net.attach_tamperer((0, Direction.EAST), trojan)
    net.add_packet(Packet(pkt_id=1, src_core=0, dst_core=63))
    net.run_until_drained(5000)
    print(net.stats.summary())
"""

from repro._lazy import facade

__version__ = "1.0.0"

_EXPORTS = {
    "E2EConfig": "baselines.e2e",
    "E2EObfuscator": "baselines.e2e",
    "TdmConfig": "baselines.tdm",
    "TdmPolicy": "baselines.tdm",
    "apply_rerouting": "baselines.reroute",
    "updown_table": "baselines.reroute",
    "DetectorConfig": "core.detector",
    "Granularity": "core.lob",
    "LinkVerdict": "core.detector",
    "MitigationConfig": "core.mitigation",
    "ObMethod": "core.lob",
    "TargetSpec": "core.targets",
    "TaspConfig": "core.tasp",
    "TaspState": "core.tasp",
    "TaspTrojan": "core.tasp",
    "ThreatDetector": "core.detector",
    "build_mitigated_network": "core.mitigation",
    "SECDED_72_64": "ecc.hamming",
    "DecodeStatus": "ecc.hamming",
    "Secded": "ecc.hamming",
    "BistScanner": "faults.bist",
    "BistVerdict": "faults.bist",
    "PermanentFault": "faults.models",
    "StuckAtKind": "faults.models",
    "TransientFaultModel": "faults.models",
    "Direction": "noc.topology",
    "Flit": "noc.flit",
    "FlitType": "noc.flit",
    "Network": "noc.network",
    "NoCConfig": "noc.config",
    "Packet": "noc.flit",
    "PAPER_CONFIG": "noc.config",
    "AppTraceSource": "traffic.apps",
    "PROFILES": "traffic.apps",
    "SyntheticConfig": "traffic.synthetic",
    "SyntheticSource": "traffic.synthetic",
    "Trace": "traffic.trace",
    "TraceReplaySource": "traffic.trace",
    "record_trace": "traffic.trace",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = facade(__name__, _EXPORTS)
