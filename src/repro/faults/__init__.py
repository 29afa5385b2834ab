"""Fault substrate: the three ways link bits go wrong (paper Fig. 2).

* :class:`TransientFaultModel` — soft errors: rare, randomly-placed
  single (occasionally multi) bit flips.
* :class:`PermanentFault` — stuck-at wires that corrupt every traversal
  whose payload disagrees with the stuck value.
* Hardware-trojan faults are injected by :class:`repro.core.tasp.TaspTrojan`,
  which implements the same :class:`LinkTamperer` interface.

:class:`repro.faults.bist.BistScanner` probes a link with test patterns to
tell permanent faults apart from trojans (trojans are target-activated and
move their fault positions, so scans come back clean or inconsistent).
"""

from repro._lazy import facade

_EXPORTS = {
    "LinkKillFault": "models",
    "LinkTamperer": "models",
    "PermanentFault": "models",
    "StuckAtKind": "models",
    "TransientFaultModel": "models",
    "BistReport": "bist",
    "BistScanner": "bist",
    "BistVerdict": "bist",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
