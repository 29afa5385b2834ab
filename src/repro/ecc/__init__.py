"""Error-correction substrate: switch-to-switch link ECC.

The paper's attack hinges on a precise property of SECDED (single-error
correction, double-error detection) codes: one flipped bit is silently
corrected, two flipped bits are *detected but uncorrectable* and force a
retransmission.  :class:`repro.ecc.hamming.Secded` implements a
bit-accurate extended Hamming SECDED(72,64) codec so the trojan's 2-bit
payloads interact with the link exactly as in hardware.
"""

from repro.ecc.hamming import (
    DecodeResult,
    DecodeStatus,
    Secded,
    SECDED_72_64,
)

__all__ = [
    "DecodeResult",
    "DecodeStatus",
    "Secded",
    "SECDED_72_64",
]
