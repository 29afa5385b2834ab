"""Unified observability layer.

The paper's central evaluation point is that a TASP stall is invisible
in latency alone — it only shows up in the back-pressure building
inside the network (Figs. 11/12).  This package is the one place the
whole stack emits that visibility into.  It keeps no counter of its
own: the simulator's components count, and this layer publishes their
events and scrapes their counts.

* :mod:`repro.obs.events` — a typed, versioned-schema event bus that
  hands each event to its sinks (the ``events.jsonl`` export, the
  verdict pipeline); with no sink it builds no event;
* :mod:`repro.obs.registry` — a metrics registry of gauges and
  histograms with label sets, filled only by the final scrape;
* :mod:`repro.obs.series` — cycle-windowed back-pressure maxima for
  Fig. 11/12-style heatmaps and detector research;
* :mod:`repro.obs.collectors` — scrapers that copy the components'
  own counters into registry series at finalize (the security posture
  of a mitigated network included);
* :mod:`repro.obs.instrument` — the wiring: attach an
  :class:`~repro.obs.instrument.Observability` to a simulation and
  every hook point (inject/eject/launch/ack/monitor) publishes its
  event while a sink listens, and the finished run is scraped;
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
``tests/test_obs_integration.py``).  :mod:`repro.noc` imports nothing
from this package, so ``import repro.noc`` loads none of it.
"""

from repro._lazy import facade

_EXPORTS = {
    "EVENT_KINDS": "events",
    "EVENT_SCHEMA_VERSION": "events",
    "Event": "events",
    "EventBus": "events",
    "EventSchemaError": "events",
    "MetricsRegistry": "registry",
    "WindowedSeries": "series",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
