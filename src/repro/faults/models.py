"""Link fault models.

Every entity that can corrupt bits in flight — soft-error processes,
stuck-at wires and the TASP trojan itself — implements the
:class:`LinkTamperer` protocol and is attached to a
:class:`repro.noc.link.Link`.  At launch time the link folds the tamper
chain over the outgoing codeword, so faults compose (a trojan can coexist
with background transient noise, which is exactly the camouflage TASP
relies on).
"""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable

from repro.util.rng import SeededStream


@runtime_checkable
class LinkTamperer(Protocol):
    """Anything that may alter a codeword crossing a link."""

    def tamper(self, codeword: int, cycle: int) -> int:
        """Return the (possibly corrupted) codeword seen downstream."""
        ...


class TransientFaultModel:
    """Memoryless soft-error process on one link.

    Parameters
    ----------
    width:
        Codeword width in bits (fault positions are uniform over it).
    flip_probability:
        Per-traversal probability that at least one bit flips.
    double_fraction:
        Conditional probability that a fault event flips two bits instead
        of one (two flips defeat SECDED and force a retransmission, just
        like the trojan — which is why the threat detector needs history,
        not a single observation, to tell them apart).
    stream:
        Seeded random stream.
    """

    __slots__ = ("width", "flip_probability", "double_fraction", "_stream",
                 "events", "bits_flipped")

    def __init__(
        self,
        width: int,
        flip_probability: float,
        stream: SeededStream,
        double_fraction: float = 0.05,
    ):
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError("flip_probability must be in [0, 1]")
        if not 0.0 <= double_fraction <= 1.0:
            raise ValueError("double_fraction must be in [0, 1]")
        self.width = width
        self.flip_probability = flip_probability
        self.double_fraction = double_fraction
        self._stream = stream
        self.events = 0
        self.bits_flipped = 0

    def tamper(self, codeword: int, cycle: int) -> int:
        if not self._stream.chance(self.flip_probability):
            return codeword
        self.events += 1
        flips = 2 if self._stream.chance(self.double_fraction) else 1
        fault = 0
        while fault.bit_count() < flips:
            fault |= 1 << self._stream.randint(0, self.width - 1)
        self.bits_flipped += fault.bit_count()
        return codeword ^ fault


class StuckAtKind(enum.Enum):
    ZERO = 0
    ONE = 1


class PermanentFault:
    """Stuck-at fault on one or more wires of a link.

    A stuck wire always presents the stuck value downstream; it corrupts
    a traversal only when the transmitted bit disagrees, which is why the
    paper's BIST uses complementary test patterns (walking ones *and*
    zeros) to expose both polarities.
    """

    __slots__ = ("width", "stuck_mask", "stuck_value", "activations")

    def __init__(self, width: int, positions: dict[int, StuckAtKind]):
        if not positions:
            raise ValueError("need at least one stuck position")
        stuck_mask = 0
        stuck_value = 0
        for pos, kind in positions.items():
            if not 0 <= pos < width:
                raise ValueError(f"stuck position {pos} outside link width")
            stuck_mask |= 1 << pos
            if kind is StuckAtKind.ONE:
                stuck_value |= 1 << pos
        self.width = width
        self.stuck_mask = stuck_mask
        self.stuck_value = stuck_value
        self.activations = 0

    @classmethod
    def single(
        cls, width: int, position: int, kind: StuckAtKind = StuckAtKind.ZERO
    ) -> "PermanentFault":
        return cls(width, {position: kind})

    def tamper(self, codeword: int, cycle: int) -> int:
        forced = (codeword & ~self.stuck_mask) | self.stuck_value
        if forced != codeword:
            self.activations += 1
        return forced

    @property
    def positions(self) -> list[int]:
        """Stuck wire indices, ascending."""
        out = []
        m = self.stuck_mask
        idx = 0
        while m:
            if m & 1:
                out.append(idx)
            m >>= 1
            idx += 1
        return out


class LinkKillFault:
    """Catastrophic wire failure: every traversal takes a double-bit hit.

    Two flips on fixed positions are always DETECTED (never corrected)
    by SECDED, and — unlike the TASP trigger — they corrupt the codeword
    *regardless* of content, so obfuscation cannot restore the link.
    This is the chaos event that forces the escalation ladder past L-Ob
    into drop/condemn territory.
    """

    __slots__ = ("width", "fault_mask", "activations")

    def __init__(self, width: int, positions: tuple[int, int] = (3, 41)):
        lo, hi = positions
        if lo == hi:
            raise ValueError("need two distinct positions")
        if not (0 <= lo < width and 0 <= hi < width):
            raise ValueError("fault positions outside link width")
        self.width = width
        self.fault_mask = (1 << lo) | (1 << hi)
        self.activations = 0

    def tamper(self, codeword: int, cycle: int) -> int:
        self.activations += 1
        return codeword ^ self.fault_mask


class GrayholeAttack:
    """Packet-drop attack on the retransmission/recovery path.

    A compromised link controller that probabilistically destroys
    traversals: each selected traversal takes a double-bit flip at
    positions drawn fresh from the attack's stream.  Against SECDED two
    flips are always DETECTED and never corrected, so every hit becomes
    a NACK and consumes a retry — at ``drop_probability < 1`` this is a
    classic gray-hole (a *fraction* of recovery traffic silently dies,
    the hardest case for per-link statistics), and at ``1.0`` it
    black-holes the link outright.  Unlike :class:`LinkKillFault` the
    flip positions vary per event, so the fault signature never repeats
    — mimicking transients and evading position-keyed detectors.

    The attacker schedules it like a trojan kill switch: ``arm()`` /
    ``disarm()`` (the scenario layer drives these from
    ``DropAttackSpec.enable_at`` / ``disable_at``).
    """

    __slots__ = ("width", "drop_probability", "_stream", "armed",
                 "traversals_seen", "events", "bits_flipped")

    def __init__(
        self,
        width: int,
        drop_probability: float,
        stream: SeededStream,
        armed: bool = False,
    ):
        if not 0.0 < drop_probability <= 1.0:
            raise ValueError("drop_probability must be in (0, 1]")
        self.width = width
        self.drop_probability = drop_probability
        self._stream = stream
        self.armed = armed
        self.traversals_seen = 0
        self.events = 0
        self.bits_flipped = 0

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def tamper(self, codeword: int, cycle: int) -> int:
        if not self.armed:
            return codeword
        self.traversals_seen += 1
        if not self._stream.chance(self.drop_probability):
            return codeword
        self.events += 1
        fault = 0
        while fault.bit_count() < 2:
            fault |= 1 << self._stream.randint(0, self.width - 1)
        self.bits_flipped += 2
        return codeword ^ fault


class CompositeTamperer:
    """Apply a sequence of tamperers in order (wire order on the link)."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[LinkTamperer]):
        self.parts = list(parts)

    def tamper(self, codeword: int, cycle: int) -> int:
        for part in self.parts:
            codeword = part.tamper(codeword, cycle)
        return codeword
