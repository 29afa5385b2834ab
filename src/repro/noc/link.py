"""Unidirectional router-to-router links.

A link carries ECC codewords and is the attack surface: every tamperer
attached to it (transient noise, stuck-at wires, a TASP trojan) sees and
may alter each codeword in flight.  The reverse ACK/NACK wires of the
link are modelled as a separate delayed queue — per the paper's threat
model the trojan taps the forward data wires only.

Tampering happens only at launch, so a link with no tamperer carries
its words unencoded: a SECDED round trip of an unaltered word returns
that word with status OK, which is what the receiver assumes of a
transmission without a codeword.  Launch hooks only observe, so they
do not need the codeword: on an unencoded link they see
``tx.codeword is None == original``, an uncorrupted launch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.noc.retrans import NackAdvice
from repro.noc.topology import Direction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.lob import ObDescriptor
    from repro.noc.flit import Flit


@dataclass(slots=True)
class Transmission:
    """One word in flight on a link: its SECDED codeword on a link that
    can alter it, the plain word on one that cannot."""

    tag: int
    vc: int
    #: per-(link, VC) sequence number for receiver-side resequencing
    vc_seq: int
    #: the SECDED codeword after the tamper chain, or None when the link
    #: had no tamperer at launch
    codeword: Optional[int]
    flit: "Flit"
    ob: Optional["ObDescriptor"]
    launch_cycle: int
    #: the pre-ECC word (L-Ob's obfuscated word when the encoder chose
    #: one); the receiver reads it only when ``codeword`` is None
    data: Optional[int] = None


@dataclass(slots=True)
class AckMessage:
    """ACK/NACK travelling on the reverse wires."""

    tag: int
    ok: bool
    advice: Optional[NackAdvice] = None
    #: obfuscation method that succeeded (for upstream method logging)
    ob_success: Optional["ObDescriptor"] = None
    flow_signature: Optional[tuple] = None


def pop_due(wire: list, cycle: int) -> list:
    """Pop the ``(cycle, item)`` pairs of ``wire`` due by ``cycle``.

    Each wire is a FIFO: an item is queued at the current cycle plus a
    latency that never changes, and the clock only moves forward, so
    items fall due in the order they were queued and the due ones are
    a prefix.
    """
    due = 0
    for when, _item in wire:
        if when > cycle:
            break
        due += 1
    items = wire[:due]
    del wire[:due]
    return items


class Link:
    """One unidirectional link between adjacent routers.

    ``_in_flight`` and ``_acks`` hold ``(arrival cycle, item)`` pairs
    oldest first; they stay plain lists (a deque per wire costs memory
    on every link of a large mesh) and are popped from the head.
    """

    __slots__ = (
        "src_router",
        "direction",
        "dst_router",
        "latency",
        "ack_latency",
        "tamperers",
        "launch_hooks",
        "ack_hooks",
        "_in_flight",
        "_acks",
        "traversals",
        "corrupted_traversals",
        "disabled",
    )

    def __init__(
        self,
        src_router: int,
        direction: Direction,
        dst_router: int,
        latency: int = 1,
        ack_latency: int = 1,
    ):
        self.src_router = src_router
        self.direction = direction
        self.dst_router = dst_router
        self.latency = latency
        self.ack_latency = ack_latency
        self.tamperers: list = []
        #: callbacks (tx, cycle, original_codeword) after tampering
        self.launch_hooks: list = []
        #: callbacks (ack, cycle, flit) fired when the upstream router
        #: processes an ACK/NACK (wired by repro.obs.instrument.wire_hooks)
        self.ack_hooks: list = []
        self._in_flight: list[tuple[int, Transmission]] = []
        self._acks: list[tuple[int, AckMessage]] = []
        self.traversals = 0
        self.corrupted_traversals = 0
        #: set by rerouting mitigation when the link is taken out of service
        self.disabled = False

    @property
    def key(self) -> tuple[int, Direction]:
        return (self.src_router, self.direction)

    # -- forward data wires ---------------------------------------------
    def apply_tamper(self, codeword: int, cycle: int) -> int:
        """Fold the tamper chain over a codeword (also used by BIST)."""
        for tamperer in self.tamperers:
            codeword = tamperer.tamper(codeword, cycle)
        return codeword

    def launch(self, tx: Transmission, cycle: int) -> None:
        """Put a transmission on the wire; tampering happens here, so a
        transmission without a codeword must only be launched on a link
        with no tamperer."""
        codeword = original = tx.codeword
        # apply_tamper inlined: one launch per flit-hop
        for tamperer in self.tamperers:
            codeword = tamperer.tamper(codeword, cycle)
        tx.codeword = codeword
        self.traversals += 1
        if codeword != original:
            self.corrupted_traversals += 1
        self._in_flight.append((cycle + self.latency, tx))
        for hook in self.launch_hooks:
            hook(tx, cycle, original)

    def pop_arrivals(self, cycle: int) -> list[Transmission]:
        """Transmissions reaching the downstream router at ``cycle``."""
        return [tx for _when, tx in pop_due(self._in_flight, cycle)]

    # -- reverse ACK wires ------------------------------------------------
    def send_ack(self, ack: AckMessage, cycle: int) -> None:
        self._acks.append((cycle + self.ack_latency, ack))

    def pop_acks(self, cycle: int) -> list[AckMessage]:
        return [ack for _when, ack in pop_due(self._acks, cycle)]

    # ---------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return not self._in_flight and not self._acks

    def next_event_cycle(self) -> Optional[int]:
        """Earliest arrival cycle of anything on the wire (forward
        codewords or reverse ACKs), or ``None`` when the link is idle.
        Consulted by the event engine before skipping the clock."""
        # both wires are FIFO, so their heads are their earliest items
        if self._in_flight:
            if self._acks:
                return min(self._in_flight[0][0], self._acks[0][0])
            return self._in_flight[0][0]
        if self._acks:
            return self._acks[0][0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Link({self.src_router}--{self.direction.name}-->"
            f"{self.dst_router})"
        )
