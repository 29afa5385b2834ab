"""Network statistics.

Two kinds of measurement, matching the paper's evaluation:

* **flow metrics** — per-packet latency/hops/throughput (Fig. 2, Fig. 10);
* **back-pressure metrics** — the buffer-utilization and blocked-router
  time series of Figs. 11/12, which make a *stalling* attack visible
  where latency alone would not ("similar to measuring routing
  dead-locks, the result of TASP stalling packets may not be evident
  unless we have a way of measuring the back-pressure building among
  network resources").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.flit import Flit


@dataclass(slots=True)
class Sample:
    """One back-pressure snapshot (paper Figs. 11/12 time series)."""

    cycle: int
    #: occupied flit slots in direction input VC buffers, chip-wide
    input_utilization: int
    #: occupied retransmission-buffer slots, chip-wide
    output_utilization: int
    #: occupied flit slots in core injection ports, chip-wide
    injection_utilization: int
    #: routers with at least one output port completely stalled
    routers_with_blocked_port: int
    #: routers whose local cores are all blocked at injection
    routers_all_cores_full: int
    #: routers with more than half their cores blocked
    routers_half_cores_full: int


@dataclass(slots=True)
class PacketRecord:
    pkt_id: int
    src_core: int
    dst_core: int
    num_flits: int
    created_cycle: int
    head_injected_cycle: int = -1
    tail_ejected_cycle: int = -1
    flits_ejected: int = 0
    retransmissions: int = 0
    hops: int = 0
    misdelivered: bool = False

    @property
    def complete(self) -> bool:
        return self.flits_ejected >= self.num_flits

    @property
    def network_latency(self) -> int:
        """Head injection to tail ejection."""
        return self.tail_ejected_cycle - self.head_injected_cycle

    @property
    def total_latency(self) -> int:
        """Creation (source queueing included) to tail ejection."""
        return self.tail_ejected_cycle - self.created_cycle


class NetworkStats:
    """Aggregates collected while a :class:`repro.noc.network.Network` runs."""

    def __init__(self) -> None:
        #: back-pressure snapshots, one per ``Network.sample_interval``
        self.samples: list[Sample] = []
        self.packets: dict[int, PacketRecord] = {}
        self.packets_completed = 0
        self.packets_injected = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.misdeliveries = 0
        self.dropped_flits = 0
        self.last_delivery_cycle = -1
        self.link_traversals: dict[tuple, int] = {}
        # -- graceful-degradation counters (resilience subsystem) --------
        #: flits abandoned by the bounded-retry path (subset of
        #: ``dropped_flits``)
        self.degraded_flits = 0
        #: packets the watchdog condemned for end-to-end resubmission
        self.degraded_packets = 0
        #: packets re-offered end-to-end after a degradation drop
        self.packets_resubmitted = 0
        #: exponential-backoff deferrals applied to pinned slots
        self.retrans_backoffs = 0
        #: obfuscation escalations driven by the watchdog ladder
        self.lob_escalations = 0

    # -- packet lifecycle ---------------------------------------------------
    def on_packet_created(self, record: PacketRecord) -> None:
        self.packets[record.pkt_id] = record
        self.packets_injected += 1

    def on_flit_injected(self, flit: "Flit", cycle: int) -> None:
        self.flits_injected += 1
        record = self.packets.get(flit.pkt_id)
        if record is not None and flit.is_head:
            record.head_injected_cycle = cycle

    def on_flit_degraded(self, flit: "Flit") -> None:
        """A flit left the network through the bounded-retry drop path
        (watchdog degradation) rather than by ejection."""
        self.dropped_flits += 1
        self.degraded_flits += 1

    def on_flit_ejected(self, flit: "Flit", cycle: int, at_core: int) -> None:
        self.flits_ejected += 1
        self.last_delivery_cycle = cycle
        record = self.packets.get(flit.pkt_id)
        if record is None:
            return
        record.flits_ejected += 1
        record.retransmissions += flit.retransmissions
        if at_core != record.dst_core:
            record.misdelivered = True
        if flit.is_tail:
            record.tail_ejected_cycle = cycle
            record.hops = flit.hops
        if record.complete:
            self.packets_completed += 1
            if record.misdelivered:
                self.misdeliveries += 1

    # -- summaries ------------------------------------------------------------
    def completed_records(self) -> list[PacketRecord]:
        return [
            r
            for r in self.packets.values()
            if r.complete and not r.misdelivered
        ]

    def mean_network_latency(self) -> Optional[float]:
        done = self.completed_records()
        if not done:
            return None
        return sum(r.network_latency for r in done) / len(done)

    def mean_total_latency(self) -> Optional[float]:
        done = self.completed_records()
        if not done:
            return None
        return sum(r.total_latency for r in done) / len(done)

    def latency_percentile(
        self, fraction: float, total: bool = True
    ) -> Optional[int]:
        """Latency percentile over completed packets (``fraction`` in
        [0, 1]; ``total`` selects creation-to-ejection vs network-only).
        Tail percentiles expose congestion/attack effects that means
        hide."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        done = self.completed_records()
        if not done:
            return None
        values = sorted(
            (r.total_latency if total else r.network_latency) for r in done
        )
        index = min(len(values) - 1, int(fraction * len(values)))
        return values[index]

    def latency_histogram(
        self, bucket: int = 10, total: bool = True
    ) -> dict[int, int]:
        """Latency histogram (bucket lower bound -> packet count)."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        hist: dict[int, int] = {}
        for r in self.completed_records():
            value = r.total_latency if total else r.network_latency
            key = (value // bucket) * bucket
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items()))

    def throughput(self, cycles: int) -> float:
        """Delivered flits per cycle."""
        return self.flits_ejected / cycles if cycles > 0 else 0.0

    def stalled_for(self, cycle: int) -> int:
        """Cycles since the last flit was delivered (deadlock signal)."""
        if self.last_delivery_cycle < 0:
            return cycle
        return cycle - self.last_delivery_cycle

    def summary(self) -> dict:
        return {
            "packets_injected": self.packets_injected,
            "packets_completed": self.packets_completed,
            "flits_injected": self.flits_injected,
            "flits_ejected": self.flits_ejected,
            "misdeliveries": self.misdeliveries,
            "dropped_flits": self.dropped_flits,
            "degraded_flits": self.degraded_flits,
            "degraded_packets": self.degraded_packets,
            "packets_resubmitted": self.packets_resubmitted,
            "retrans_backoffs": self.retrans_backoffs,
            "lob_escalations": self.lob_escalations,
            "mean_network_latency": self.mean_network_latency(),
            "mean_total_latency": self.mean_total_latency(),
        }
