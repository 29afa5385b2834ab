"""Trace capture and replay.

Fig. 10 compares mitigation schemes on *the same workload*: we first
materialize a trace (a deterministic list of timed packets), then replay
it against differently-configured networks, so any performance delta is
attributable to the mitigation, not to workload noise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from repro.noc.config import NoCConfig
from repro.noc.flit import Packet
from repro.noc.network import TrafficSource


@dataclass
class Trace:
    """An immutable, replayable workload: packets sorted by cycle."""

    name: str
    packets: list[Packet] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.packets.sort(key=lambda p: (p.created_cycle, p.pkt_id))

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def duration(self) -> int:
        return self.packets[-1].created_cycle + 1 if self.packets else 0

    def router_matrix(self, cfg: NoCConfig) -> list[list[int]]:
        """Router-to-router request counts (Fig. 1a)."""
        matrix = [[0] * cfg.num_routers for _ in range(cfg.num_routers)]
        for pkt in self.packets:
            src = cfg.router_of_core(pkt.src_core)
            dst = cfg.router_of_core(pkt.dst_core)
            matrix[src][dst] += 1
        return matrix

    def source_counts(self, cfg: NoCConfig) -> list[int]:
        """Packets sourced per router (Fig. 1b geographic hot spots)."""
        counts = [0] * cfg.num_routers
        for pkt in self.packets:
            counts[cfg.router_of_core(pkt.src_core)] += 1
        return counts


def record_trace(source, cfg: NoCConfig, duration: int, name: str) -> Trace:
    """Materialize ``duration`` cycles of a live TrafficSource."""
    packets: list[Packet] = []
    for cycle in range(duration):
        packets.extend(source.generate(cycle))
    return Trace(name=name, packets=packets)


class TraceReplaySource(TrafficSource):
    """Replays a :class:`Trace` (packets deep-copied so several replays
    never share mutable state)."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self._cursor = 0

    def generate(self, cycle: int) -> list[Packet]:
        out: list[Packet] = []
        packets = self.trace.packets
        while (
            self._cursor < len(packets)
            and packets[self._cursor].created_cycle <= cycle
        ):
            out.append(copy.deepcopy(packets[self._cursor]))
            self._cursor += 1
        return out

    def done(self, cycle: int) -> bool:
        return self._cursor >= len(self.trace.packets)

    def reset(self) -> None:
        self._cursor = 0
