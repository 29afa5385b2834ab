"""Cycle-accurate NoC simulator substrate.

This package implements the evaluation platform of the paper from
scratch: a 64-core concentrated 4x4 mesh with 4 VCs/port, 4-deep 64-bit
VC buffers, a 5-stage router pipeline, xy routing, round-robin
arbitration, switch-to-switch SECDED links with selective-repeat
retransmission buffers after the crossbar, and credit-based flow
control.
"""

from repro._lazy import facade

_EXPORTS = {
    "AdaptiveRouting": "adaptive",
    "InvariantViolation": "invariants",
    "NetworkValidator": "invariants",
    "NoCConfig": "config",
    "PAPER_CONFIG": "config",
    "Flit": "flit",
    "FlitType": "flit",
    "Packet": "flit",
    "pack_header": "flit",
    "unpack_header": "flit",
    "AckMessage": "link",
    "Link": "link",
    "Transmission": "link",
    "Network": "network",
    "TrafficSource": "network",
    "EccReceiver": "receiver",
    "EntryState": "retrans",
    "NackAdvice": "retrans",
    "RetransBuffer": "retrans",
    "Router": "router",
    "SchedulingPolicy": "router",
    "TableRouting": "routing",
    "make_route_fn": "routing",
    "xy_route": "routing",
    "yx_route": "routing",
    "NetworkStats": "stats",
    "PacketRecord": "stats",
    "Sample": "stats",
    "Direction": "topology",
    "OPPOSITE": "topology",
    "all_links": "topology",
    "link_endpoints": "topology",
    "links_on_xy_path": "topology",
    "neighbor": "topology",
    "neighbors": "topology",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
