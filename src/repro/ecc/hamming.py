"""Extended-Hamming SECDED codec over plain integers.

Layout (classic extended Hamming):

* codeword bit indices ``0 .. n-2`` carry the Hamming code over 1-based
  positions ``1 .. n-1``;
* check bits live at the power-of-two positions ``1, 2, 4, ...``
  (0-based indices ``0, 1, 3, 7, ...``);
* data bits fill the remaining positions in ascending order;
* the final index ``n-1`` is the *extended* (overall) parity bit, making
  the total codeword parity even.

For 64 data bits this needs 7 Hamming check bits plus the extended bit:
a 72-bit codeword, matching the 64-bit flit + 8-bit ECC links that
switch-to-switch SECDED NoC papers assume.

Decoding classifies the received word:

``CLEAN``
    zero syndrome, even overall parity — deliver as-is.
``CORRECTED``
    a single-bit error was located and flipped (costs decoder energy —
    the receiver-side energy cost the paper mentions for transient
    faults).
``DETECTED``
    double-bit error — detected but uncorrectable, retransmission must
    be requested.  This is the response the TASP trojan farms.

Triple or wider errors may alias to ``CORRECTED`` with a wrong payload
(silent data corruption) exactly as real SECDED hardware would.

The hot path is one pass of per-byte lookup tables.  An encode table
entry is a data byte's spread codeword bits with its check-bit and
extended-parity contributions folded in; a decode table entry packs a
codeword byte's data bits, syndrome contribution and overall parity
side by side.  Every part is linear over XOR, so XOR-ing one entry per
byte encodes a word, or yields its data, syndrome and parity at once.
The tables are built by XOR-composing single-bit entries, 256 cheap
steps per byte.  The fold is written out for nine bytes at a time (a
whole 72-bit codeword), so a 64-bit flit costs one unrolled expression
rather than a Python loop step per byte.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.util.bits import byte_tables, mask, parity

#: bytes folded by one unrolled step of :meth:`Secded.encode` / ``decode``
_BLOCK = 9
#: table padding the last block: a padding byte is 0, and entry 0 of a
#: linear map's table is 0
_ZERO_TABLE = (0,) * 256
_new_tuple = tuple.__new__


class DecodeStatus(enum.Enum):
    """Outcome of decoding one received codeword."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED = "detected_uncorrectable"


class DecodeResult(NamedTuple):
    """Decoder verdict for one codeword (read-only).

    Attributes
    ----------
    status:
        :class:`DecodeStatus` classification.
    data:
        The recovered data word.  For ``DETECTED`` this is the *best
        effort* extraction of the corrupt word and must not be consumed.
    syndrome:
        Raw Hamming syndrome (1-based error position for single errors,
        non-zero pattern for double errors) — recorded by the threat
        detector to correlate repeated faults.
    corrected_bit:
        Codeword bit index that was flipped for ``CORRECTED`` results,
        else ``None``.
    """

    status: DecodeStatus
    data: int
    syndrome: int
    corrected_bit: int | None = None

    @property
    def needs_retransmission(self) -> bool:
        return self.status is DecodeStatus.DETECTED


class Secded:
    """SECDED codec for a configurable data width (default 64 bits)."""

    def __init__(self, data_bits: int = 64):
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.check_bits = self._required_check_bits(data_bits)
        # Hamming span (without the extended bit): data + check positions.
        self._hamming_len = data_bits + self.check_bits
        # Total codeword width including the extended parity bit.
        self.codeword_bits = self._hamming_len + 1
        self._extended_index = self.codeword_bits - 1

        self._data_positions = self._compute_data_positions()
        self._check_positions = tuple(
            (1 << i) - 1 for i in range(self.check_bits)
        )
        self._parity_masks = self._compute_parity_masks()
        self._data_mask = mask(data_bits)
        self._codeword_mask = mask(self.codeword_bits)
        self._syndrome_mask = mask(self.check_bits)
        #: decode entries pack data | syndrome << data_bits | parity bit
        self._parity_shift = data_bits + self.check_bits
        self._bit_folds = self._decode_bit_entries()
        self._enc_tables = byte_tables(self._encode_bit_entries(), data_bits)
        self._dec_tables = byte_tables(self._bit_folds, self.codeword_bits)
        self._enc_blocks = _blocks(self._enc_tables)
        self._dec_blocks = _blocks(self._dec_tables)
        self._enc_bytes = _BLOCK * len(self._enc_blocks)
        self._dec_bytes = _BLOCK * len(self._dec_blocks)

    # ------------------------------------------------------------------
    @staticmethod
    def _required_check_bits(data_bits: int) -> int:
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    def _compute_data_positions(self) -> tuple[int, ...]:
        """0-based codeword indices of the data bits, ascending."""
        positions = []
        pos = 1  # 1-based Hamming position
        while len(positions) < self.data_bits:
            if pos & (pos - 1):  # not a power of two -> data position
                positions.append(pos - 1)
            pos += 1
        return tuple(positions)

    def _compute_parity_masks(self) -> tuple[int, ...]:
        """``masks[i]`` covers codeword indices whose 1-based position has
        bit ``i`` set (including the check bit itself)."""
        masks = []
        for i in range(self.check_bits):
            m = 0
            for idx in range(self._hamming_len):
                if (idx + 1) >> i & 1:
                    m |= 1 << idx
            masks.append(m)
        return tuple(masks)

    def _encode_bit_entries(self) -> list[int]:
        """Codeword of each single data bit: its own position, the check
        bits covering it (the set bits of its 1-based position) and the
        extended parity bit that makes the word's parity even."""
        entries = []
        for cw_idx in self._data_positions:
            position = cw_idx + 1
            cw = 1 << cw_idx
            for i, check_idx in enumerate(self._check_positions):
                if position >> i & 1:
                    cw |= 1 << check_idx
            if parity(cw):
                cw |= 1 << self._extended_index
            entries.append(cw)
        return entries

    def _decode_bit_entries(self) -> list[int]:
        """Decode entry of each single codeword bit: its data bit (if it
        carries one), its syndrome contribution (its 1-based Hamming
        position; none for the extended bit) and one parity bit."""
        pos_to_databit = {
            cw_idx: data_idx
            for data_idx, cw_idx in enumerate(self._data_positions)
        }
        entries = []
        for cw_idx in range(self.codeword_bits):
            entry = 1 << self._parity_shift
            if cw_idx in pos_to_databit:
                entry |= 1 << pos_to_databit[cw_idx]
            if cw_idx < self._hamming_len:
                entry |= (cw_idx + 1) << self.data_bits
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------
    def encode(self, data: int) -> int:
        """Encode ``data`` into a codeword with even overall parity."""
        if data < 0 or data > self._data_mask:
            raise ValueError(
                f"data {data:#x} does not fit in {self.data_bits} bits"
            )
        return _xor_fold(
            self._enc_blocks, data.to_bytes(self._enc_bytes, "little")
        )

    def _fold(self, codeword: int) -> int:
        """XOR of the decode entries of ``codeword``'s bytes."""
        return _xor_fold(
            self._dec_blocks, codeword.to_bytes(self._dec_bytes, "little")
        )

    def extract(self, codeword: int) -> int:
        """Gather the data bits out of ``codeword`` (no checking)."""
        return self._fold(codeword) & self._data_mask

    def syndrome(self, codeword: int) -> int:
        """Hamming syndrome of ``codeword`` (0 if check bits agree)."""
        return self._fold(codeword) >> self.data_bits & self._syndrome_mask

    def decode(self, codeword: int) -> DecodeResult:
        """Classify and (when possible) correct ``codeword``."""
        if codeword < 0 or codeword > self._codeword_mask:
            raise ValueError("codeword out of range")
        fold = _xor_fold(
            self._dec_blocks, codeword.to_bytes(self._dec_bytes, "little")
        )
        data = fold & self._data_mask
        s = fold >> self.data_bits & self._syndrome_mask
        overall = fold >> self._parity_shift

        # results are built with tuple.__new__, skipping the Python
        # __new__ a NamedTuple call goes through
        if s == 0 and overall == 0:
            return _new_tuple(
                DecodeResult, (DecodeStatus.CLEAN, data, 0, None)
            )

        if s == 0 and overall == 1:
            # The extended parity bit itself flipped; data is intact.
            return _new_tuple(
                DecodeResult,
                (DecodeStatus.CORRECTED, data, 0, self._extended_index),
            )

        if overall == 1:
            # Odd overall parity + non-zero syndrome: single-bit error at
            # 1-based position ``s`` (if it points inside the word).
            if 1 <= s <= self._hamming_len:
                # flipping bit s-1 back flips its data bit, if it has one
                fixed = data ^ (self._bit_folds[s - 1] & self._data_mask)
                return _new_tuple(
                    DecodeResult, (DecodeStatus.CORRECTED, fixed, s, s - 1)
                )
            # Syndrome points outside the codeword: treat as detected.
            return _new_tuple(
                DecodeResult, (DecodeStatus.DETECTED, data, s, None)
            )

        # Non-zero syndrome with even overall parity: an even number of
        # errors (>= 2).  Detected, uncorrectable.
        return _new_tuple(DecodeResult, (DecodeStatus.DETECTED, data, s, None))

    # ------------------------------------------------------------------
    def data_index_to_codeword_index(self, data_idx: int) -> int:
        """Codeword bit index carrying data bit ``data_idx``."""
        return self._data_positions[data_idx]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Secded(data_bits={self.data_bits}, "
            f"codeword_bits={self.codeword_bits})"
        )


def _xor_fold(blocks: tuple[tuple, ...], raw: bytes) -> int:
    """XOR of one table entry per byte of ``raw``: byte ``i`` indexes
    table ``i``, nine bytes per unrolled step."""
    fold = 0
    at = 0
    for t0, t1, t2, t3, t4, t5, t6, t7, t8 in blocks:
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = raw[at:at + _BLOCK]
        fold ^= (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4]
            ^ t5[b5] ^ t6[b6] ^ t7[b7] ^ t8[b8]
        )
        at += _BLOCK
    return fold


def _blocks(tables: list[list[int]]) -> tuple[tuple, ...]:
    """``tables`` in groups of :data:`_BLOCK`, the last one padded with
    :data:`_ZERO_TABLE`."""
    padded = list(tables) + [_ZERO_TABLE] * (-len(tables) % _BLOCK)
    return tuple(
        tuple(padded[at:at + _BLOCK]) for at in range(0, len(padded), _BLOCK)
    )


#: Shared codec instance for the paper's 64-bit flits.
SECDED_72_64 = Secded(64)
