"""Bit-twiddling helpers over arbitrary-width Python integers.

Everything in the simulator that models hardware datapaths (flit wire
images, ECC codewords, trojan payload masks, obfuscation transforms)
operates on plain Python integers, which makes XOR-style fault injection
and parity computation both exact and fast (``int.bit_count`` is a single
C call).
"""

from __future__ import annotations

from typing import Optional, Sequence


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits.

    >>> hex(mask(8))
    '0xff'
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(index: int) -> int:
    """Return an integer with only bit ``index`` set."""
    if index < 0:
        raise ValueError(f"bit index must be non-negative, got {index}")
    return 1 << index


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (must be non-negative)."""
    if value < 0:
        raise ValueError("popcount of a negative value is undefined here")
    return value.bit_count()


def parity(value: int) -> int:
    """Even/odd parity of ``value``: 1 if an odd number of bits are set."""
    return value.bit_count() & 1


def extract_field(word: int, offset: int, width: int) -> int:
    """Extract ``width`` bits of ``word`` starting at bit ``offset``."""
    return (word >> offset) & mask(width)


def insert_field(word: int, offset: int, width: int, value: int) -> int:
    """Return ``word`` with the ``width``-bit field at ``offset`` replaced
    by ``value`` (which must fit in the field)."""
    if value < 0 or value > mask(width):
        raise ValueError(
            f"value {value:#x} does not fit in a {width}-bit field"
        )
    cleared = word & ~(mask(width) << offset)
    return cleared | (value << offset)


def rotl(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` left by ``amount`` within a ``width``-bit word."""
    if width <= 0:
        raise ValueError("rotation width must be positive")
    amount %= width
    value &= mask(width)
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def rotr(value: int, amount: int, width: int) -> int:
    """Rotate ``value`` right by ``amount`` within a ``width``-bit word."""
    if width <= 0:
        raise ValueError("rotation width must be positive")
    return rotl(value, width - (amount % width), width)


class BitPermutation:
    """A fixed permutation of the bits of a ``width``-bit word.

    ``apply`` costs ``ceil(width / 8)`` lookups in per-byte tables
    instead of ``width`` single-bit moves; the tables are built on first
    use, since most links never shuffle.  This is the workhorse behind
    the L-Ob *shuffle* obfuscation method.

    Parameters
    ----------
    permutation:
        ``permutation[i]`` is the destination bit index of source bit ``i``.
        Must be a permutation of ``range(width)``.
    """

    __slots__ = ("width", "_perm", "_inv", "_fwd_tables", "_inv_tables")

    def __init__(self, permutation: Sequence[int]):
        width = len(permutation)
        if sorted(permutation) != list(range(width)):
            raise ValueError("not a permutation of range(width)")
        self.width = width
        self._perm = tuple(permutation)
        inv = [0] * width
        for src, dst in enumerate(permutation):
            inv[dst] = src
        self._inv = tuple(inv)
        self._fwd_tables: Optional[list[list[int]]] = None
        self._inv_tables: Optional[list[list[int]]] = None

    @staticmethod
    def _build_tables(perm: Sequence[int]) -> list[list[int]]:
        # entry v = entry (v without its lowest set bit) | that bit's image
        tables: list[list[int]] = []
        for base in range(0, len(perm), 8):
            bits = [1 << dst for dst in perm[base:base + 8]]
            bits += [0] * (8 - len(bits))
            table = [0] * 256
            for value in range(1, 256):
                low = value & -value
                table[value] = table[value ^ low] | bits[low.bit_length() - 1]
            tables.append(table)
        return tables

    @staticmethod
    def _apply_tables(tables: list[list[int]], value: int) -> int:
        out = 0
        for table in tables:
            out |= table[value & 0xFF]
            value >>= 8
        return out

    def apply(self, value: int) -> int:
        """Permute the bits of ``value`` forward."""
        if self._fwd_tables is None:
            self._fwd_tables = self._build_tables(self._perm)
        return self._apply_tables(self._fwd_tables, value)

    def invert(self, value: int) -> int:
        """Undo :meth:`apply`."""
        if self._inv_tables is None:
            self._inv_tables = self._build_tables(self._inv)
        return self._apply_tables(self._inv_tables, value)

    @classmethod
    def identity(cls, width: int) -> "BitPermutation":
        return cls(list(range(width)))

    @classmethod
    def rotation(cls, width: int, amount: int) -> "BitPermutation":
        """Permutation equivalent to ``rotl(value, amount, width)``."""
        return cls([(i + amount) % width for i in range(width)])

    @classmethod
    def from_seed(cls, width: int, seed: int) -> "BitPermutation":
        """A pseudo-random permutation derived deterministically from
        ``seed`` (Fisher-Yates with a local PRNG)."""
        import random

        order = list(range(width))
        random.Random(seed).shuffle(order)
        return cls(order)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitPermutation) and self._perm == other._perm
        )

    def __hash__(self) -> int:
        return hash(self._perm)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitPermutation(width={self.width})"


def two_hot_masks(width: int) -> list[int]:
    """All ``width``-bit values with exactly two bits set, in a canonical
    (lexicographic by bit pair) order.

    These are the payload patterns a SECDED-aware trojan cycles through:
    each injects exactly two faults, which SECDED detects but cannot
    correct.
    """
    masks: list[int] = []
    for low in range(width):
        for high in range(low + 1, width):
            masks.append((1 << low) | (1 << high))
    return masks
