"""Unified observability layer.

The paper's central evaluation point is that a TASP stall is invisible
in latency alone — it only shows up in the back-pressure building
inside the network (Figs. 11/12).  This package is the one place the
whole stack emits that visibility into:

* :mod:`repro.obs.registry` — a metrics registry (counters, gauges,
  histograms with label sets; near-zero-cost no-op handles when
  disabled);
* :mod:`repro.obs.events` — a typed, versioned-schema event bus that
  hands each event to its sinks (the ``events.jsonl`` export, the
  verdict pipeline); with no sink it builds no event;
* :mod:`repro.obs.series` — cycle-windowed time-series rollups (the
  generalization of :class:`repro.noc.stats.Sample`) suitable for
  Fig. 11/12-style back-pressure heatmaps and detector research;
* :mod:`repro.obs.collectors` — scrapers that turn live network
  component state into registry series (the single source of truth
  behind :func:`repro.core.telemetry.security_report`);
* :mod:`repro.obs.instrument` — the wiring: attach an
  :class:`~repro.obs.instrument.Observability` to a simulation and
  every hook point (inject/eject/launch/ack/monitor) feeds the
  registry, bus and series;
* :mod:`repro.obs.exporters` — JSONL event streams, Prometheus-style
  text dumps, and the per-run ``metrics.json`` manifest (plus the
  schema validators CI runs);
* :mod:`repro.obs.profiler` — wall-clock attribution to simulator
  phases (route/arbitrate/traverse/ecc/defense/...), driven by the
  runner's ``--profile`` flag;
* :mod:`repro.obs.perf` — machine-readable ``BENCH_*.json`` benchmark
  records (the cross-PR performance trajectory).

Observability is a **pure observer**: enabling it never changes
``NetworkStats`` or any experiment report byte (proof in
``tests/test_obs_integration.py``).

This ``__init__`` only imports dependency-free leaf modules so that
base layers (``repro.noc.stats``) can import :mod:`repro.obs.series`
without a cycle; the network-aware modules load lazily.
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventBus,
    EventSchemaError,
)
from repro.obs.registry import MetricsRegistry, NOOP_METRIC
from repro.obs.series import SampleSeries, WindowedSeries

_LAZY = {
    "Observability": "repro.obs.instrument",
    "ObsConfig": "repro.obs.instrument",
    "ambient": "repro.obs.instrument",
    "enable_ambient": "repro.obs.instrument",
    "disable_ambient": "repro.obs.instrument",
    "PhaseProfiler": "repro.obs.profiler",
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventBus",
    "EventSchemaError",
    "MetricsRegistry",
    "NOOP_METRIC",
    "Observability",
    "ObsConfig",
    "PhaseProfiler",
    "SampleSeries",
    "WindowedSeries",
    "ambient",
    "disable_ambient",
    "enable_ambient",
]
