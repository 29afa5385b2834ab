"""Error-correction substrate: switch-to-switch link ECC.

The paper's attack hinges on a precise property of SECDED (single-error
correction, double-error detection) codes: one flipped bit is silently
corrected, two flipped bits are *detected but uncorrectable* and force a
retransmission.  :class:`repro.ecc.hamming.Secded` implements a
bit-accurate extended Hamming SECDED(72,64) codec so the trojan's 2-bit
payloads interact with the link exactly as in hardware.
"""

from repro._lazy import facade

_EXPORTS = {
    "DecodeResult": "hamming",
    "DecodeStatus": "hamming",
    "Secded": "hamming",
    "SECDED_72_64": "hamming",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
