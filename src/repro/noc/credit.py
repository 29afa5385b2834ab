"""Credit-based flow control between adjacent routers.

Each direction output port tracks, per downstream VC, how many buffer
slots it may still claim.  A credit is consumed when a flit is committed
to the output (enters the retransmission buffer — the slot downstream
must stay reserved across retransmissions), and returned when the flit
eventually leaves the downstream input buffer.

Credit exhaustion is the mechanism by which the paper's DoS attack
propagates: a pinned retransmission slot keeps the downstream slot
reserved, upstream credits never return, and the stall climbs toward
the sources (tree saturation).
"""

from __future__ import annotations

from typing import Optional


class CreditTracker:
    """Upstream view of one downstream input port's VC buffers."""

    __slots__ = ("num_vcs", "depth", "latency", "_credits", "_pending",
                 "consumed_total", "released_total")

    def __init__(self, num_vcs: int, depth: int, latency: int = 1):
        if num_vcs <= 0 or depth <= 0:
            raise ValueError("num_vcs and depth must be positive")
        if latency < 0:
            raise ValueError("credit latency must be non-negative")
        self.num_vcs = num_vcs
        self.depth = depth
        self.latency = latency
        self._credits = [depth] * num_vcs
        #: (visible_cycle, vc) credit returns still in flight, oldest
        #: first: returns are released at the current cycle and become
        #: visible a fixed latency later, so they fall due in order
        self._pending: list[tuple[int, int]] = []
        self.consumed_total = 0
        self.released_total = 0

    def tick(self, cycle: int) -> None:
        """Apply credit returns that have become visible by ``cycle``."""
        if not self._pending:
            return
        credits = self._credits
        due = 0
        for visible, vc in self._pending:
            if visible > cycle:
                break
            credits[vc] += 1
            due += 1
            if credits[vc] > self.depth:
                raise RuntimeError(
                    f"credit overflow on vc {vc}: flow control broken"
                )
        del self._pending[:due]

    def available(self, vc: int) -> int:
        return self._credits[vc]

    def consume(self, vc: int) -> None:
        if self._credits[vc] <= 0:
            raise RuntimeError(
                f"consuming credit on empty vc {vc}: allocator bug"
            )
        self._credits[vc] -= 1
        self.consumed_total += 1

    def release(self, vc: int, cycle: int) -> None:
        """Downstream freed a slot of ``vc`` at ``cycle``."""
        if not 0 <= vc < self.num_vcs:
            raise ValueError(f"vc {vc} out of range")
        self._pending.append((cycle + self.latency, vc))
        self.released_total += 1

    @property
    def in_flight(self) -> int:
        """Credits granted back but not yet visible."""
        return len(self._pending)

    def next_visible_cycle(self) -> Optional[int]:
        """Earliest cycle a pending credit return becomes visible, or
        ``None`` when nothing is in flight.  Frozen trackers still
        report their pending returns (conservative: the thaw itself is
        driven by a monitor, which separately pins the clock)."""
        if not self._pending:
            return None
        return self._pending[0][0]

    def outstanding(self, vc: int) -> int:
        """Slots of ``vc`` currently claimed by this upstream port."""
        pending_vc = sum(1 for _, v in self._pending if v == vc)
        return self.depth - self._credits[vc] - pending_vc

    def snapshot(self) -> list[int]:
        return list(self._credits)
