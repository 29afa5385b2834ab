"""Per-output retransmission buffers (selective repeat).

The paper evaluates the worst-case microarchitecture where
retransmission buffers sit after the crossbar, before link traversal
(Fig. 5 / §V).  Each output port keeps the flits it has launched until
the downstream ECC acknowledges them; a NACK re-arms the entry for
another launch.  Delivery is *selective repeat*: in the Fig. 7
walkthrough flit #3 overtakes the corrupted flit #2 while #2 waits for
its retransmission slot.

A flit the trojan corrupts on every traversal therefore pins its slot
forever; once every slot is pinned the output port stalls — the seed of
the deadlock the attack farms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.flit import Flit


class EntryState(enum.Enum):
    READY = "ready"          # needs (re)transmission
    IN_FLIGHT = "in_flight"  # launched, awaiting ACK/NACK


@dataclass(slots=True)
class NackAdvice:
    """Obfuscation advice piggybacked on a NACK by the threat detector
    (the downstream router telling the upstream L-Ob what to try next)."""

    enable_obfuscation: bool = False
    #: index into the mitigation's obfuscation-method sequence
    method_index: int = 0


class RetransEntry:
    """One retransmission-buffer slot."""

    __slots__ = (
        "tag",
        "flit",
        "out_vc",
        "vc_seq",
        "state",
        "send_count",
        "admitted_cycle",
        "last_send_cycle",
        "ob_advice",
        "defer_until",
    )

    def __init__(
        self, tag: int, flit: "Flit", out_vc: int, cycle: int,
        vc_seq: int = -1,
    ):
        self.tag = tag
        self.flit = flit
        self.out_vc = out_vc
        #: per-(link, VC) sequence number; the downstream resequencing
        #: stage delivers flits of a VC strictly in this order, so
        #: selective repeat cannot reorder flits within a packet
        self.vc_seq = vc_seq
        self.state = EntryState.READY
        self.send_count = 0
        self.admitted_cycle = cycle
        self.last_send_cycle = -1
        #: advice from the last NACK; consumed by the L-Ob encoder
        self.ob_advice: Optional[NackAdvice] = None
        #: reorder obfuscation: do not launch before this cycle
        self.defer_until = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RetransEntry(tag={self.tag}, {self.state.value}, "
            f"sends={self.send_count}, flit={self.flit!r})"
        )


class RetransBuffer:
    """Selective-repeat retransmission buffer for one output port.

    ``_entries`` maps link tag to entry in admission order: tags are
    issued in increasing order and a dict keeps insertion order, so
    iterating it visits the oldest entry first, and retiring an entry
    is one ``pop``.
    """

    __slots__ = ("depth", "_entries", "_next_tag",
                 "acks_received", "nacks_received", "admitted_total",
                 "dropped_total")

    def __init__(self, depth: int):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._entries: dict[int, RetransEntry] = {}
        self._next_tag = 0
        self.acks_received = 0
        self.nacks_received = 0
        self.admitted_total = 0
        self.dropped_total = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def __iter__(self) -> Iterator[RetransEntry]:
        return iter(self._entries.values())

    def get(self, tag: int) -> Optional[RetransEntry]:
        return self._entries.get(tag)

    # ------------------------------------------------------------------
    def admit(
        self, flit: "Flit", out_vc: int, cycle: int, vc_seq: int = -1
    ) -> Optional[int]:
        """Accept a flit from the crossbar; returns its link tag, or
        ``None`` when the buffer is full (the output port stalls)."""
        entries = self._entries
        if len(entries) >= self.depth:
            return None
        tag = self._next_tag
        self._next_tag = tag + 1
        entries[tag] = RetransEntry(tag, flit, out_vc, cycle, vc_seq)
        self.admitted_total += 1
        return tag

    def pick_ready(self, cycle: int) -> Optional[RetransEntry]:
        """Oldest entry eligible for (re)launch this cycle."""
        for entry in self._entries.values():
            if entry.state is EntryState.READY and entry.defer_until <= cycle:
                return entry
        return None

    def ready_entries(self, cycle: int) -> list[RetransEntry]:
        """All launchable entries, oldest first (used by L-Ob to pick
        scramble partners and implement reordering)."""
        return [
            entry
            for entry in self._entries.values()
            if entry.state is EntryState.READY and entry.defer_until <= cycle
        ]

    def mark_launched(self, tag: int, cycle: int) -> None:
        entry = self._entries[tag]
        if entry.state is not EntryState.READY:
            raise RuntimeError(f"launching tag {tag} twice")
        entry.state = EntryState.IN_FLIGHT
        entry.send_count += 1
        entry.last_send_cycle = cycle

    def on_ack(self, tag: int) -> Optional[RetransEntry]:
        """Positive acknowledgement: retire the entry, free the slot."""
        entry = self._entries.pop(tag, None)
        if entry is not None:
            self.acks_received += 1
        return entry

    def on_nack(self, tag: int, advice: Optional[NackAdvice] = None) -> bool:
        """Negative acknowledgement: re-arm for retransmission.  Returns
        whether an entry was re-armed (the tag may have retired)."""
        entry = self._entries.get(tag)
        if entry is None:
            return False
        entry.state = EntryState.READY
        entry.flit.retransmissions += 1
        if advice is not None:
            entry.ob_advice = advice
        self.nacks_received += 1
        return True

    def drop(self, tag: int) -> Optional[RetransEntry]:
        """Forcibly retire an entry without an acknowledgement.

        This is the bounded-retry degradation path: the caller gives up
        on the flit, frees its slot, and takes responsibility for the
        downstream bookkeeping (sequence skip, credit return, end-to-end
        resubmission).  Only meaningful for ``READY`` entries — an
        ``IN_FLIGHT`` entry still has a transmission on the wire whose
        ACK/NACK must settle first.
        """
        entry = self._entries.get(tag)
        if entry is None:
            return None
        if entry.state is not EntryState.READY:
            raise RuntimeError(f"dropping in-flight tag {tag}")
        del self._entries[tag]
        self.dropped_total += 1
        return entry

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` this buffer may need service, or
        ``None`` when empty.

        A deferred READY entry sleeps until its ``defer_until`` (the
        watchdog-backoff window the event engine profitably skips); a
        launchable READY entry demands "now"; an IN_FLIGHT entry also
        demands "now" — its ACK/NACK timing is interlocked with the
        downstream receive pipeline, which is too entangled to prove
        idle cheaply, so the engine stays conservative.
        """
        best: Optional[int] = None
        for entry in self._entries.values():
            if entry.state is not EntryState.READY:
                return cycle
            when = entry.defer_until
            if when <= cycle:
                return cycle
            if best is None or when < best:
                best = when
        return best

    def oldest_wait(self, cycle: int) -> int:
        """Age in cycles of the oldest unretired entry (0 if empty) —
        a back-pressure signal used by deadlock monitors."""
        for entry in self._entries.values():
            return cycle - entry.admitted_cycle
        return 0
