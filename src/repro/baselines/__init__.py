"""Comparison systems the paper evaluates against.

* :mod:`repro.baselines.e2e` — Fort-NoCs-style end-to-end obfuscation
  (fails against header-targeting link trojans, Fig. 11a);
* :mod:`repro.baselines.tdm` — SurfNoC-style TDM QoS (contains but does
  not stop the attack, Fig. 12a);
* :mod:`repro.baselines.reroute` — Ariadne-style disable-and-reroute
  (works but sacrifices bandwidth/path diversity, Fig. 10).
"""

from repro._lazy import facade

_EXPORTS = {
    "E2EConfig": "e2e",
    "E2EObfuscator": "e2e",
    "UnroutableError": "reroute",
    "apply_rerouting": "reroute",
    "updown_table": "reroute",
    "TdmConfig": "tdm",
    "TdmPolicy": "tdm",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
