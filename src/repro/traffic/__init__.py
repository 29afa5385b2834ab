"""Workload substrate: synthetic patterns and application-like traces.

Real PARSEC/SPLASH-2 traces are replaced by seeded synthetic profiles
with the same structural properties (see DESIGN.md §2 and
:mod:`repro.traffic.apps`).
"""

from repro._lazy import facade

_EXPORTS = {
    "FloodConfig": "flood",
    "FloodSource": "flood",
    "MergedSource": "flood",
    "AppProfile": "apps",
    "AppTraceSource": "apps",
    "PROFILES": "apps",
    "traffic_weights": "apps",
    "PATTERNS": "synthetic",
    "SyntheticConfig": "synthetic",
    "SyntheticSource": "synthetic",
    "bit_complement": "synthetic",
    "hotspot": "synthetic",
    "neighbor": "synthetic",
    "transpose": "synthetic",
    "uniform_random": "synthetic",
    "Trace": "trace",
    "TraceReplaySource": "trace",
    "record_trace": "trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
