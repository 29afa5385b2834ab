"""Metrics registry: gauges and histograms with label sets.

The registry is the numeric half of the observability layer (the event
bus in :mod:`repro.obs.events` is the other).  It holds no counter of
its own: the simulator's components count (``NetworkStats``, the
receivers, links, watchdog, L-Ob, coordinator), and
:func:`repro.obs.collectors.collect_simulation` copies their counts in
at finalize.  It is deliberately tiny and Prometheus-shaped:

* a **family** is a metric name + kind + help string;
* a **child** is one labelled series inside a family (label values are
  always strings);
* handles (:class:`Gauge`, :class:`Histogram`) are cached per label
  set.

Everything here is plain picklable data: a registry attached to a
:class:`~repro.sim.engine.Simulation` survives
:mod:`repro.sim.checkpoint` snapshots unchanged.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Iterable, Optional

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: default latency buckets (cycles) — powers of two cover the paper's
#: range from single-hop deliveries to deep back-pressure stalls
DEFAULT_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Gauge:
    """One scraped value: a component's count at finalize."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Iterable = DEFAULT_BUCKETS) -> None:
        bounds = sorted(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = tuple(bounds)
        # one slot per bound plus the implicit +Inf bucket
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_right(self.buckets, value - 1)] += 1
        self.sum += value
        self.count += 1

    @property
    def value(self) -> dict:
        """Snapshot form: cumulative counts keyed by upper bound."""
        cumulative = {}
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            cumulative[str(bound)] = running
        cumulative["+Inf"] = self.count
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


class _Family:
    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        #: sorted label-item tuple -> metric handle
        self.series: dict[tuple, object] = {}


class MetricsRegistry:
    """A namespace of metric families.

    ``gauge(name, **labels)`` / ``histogram`` return the
    (cached) child for that exact label set, creating family and child
    on first use.  Asking for an existing name with a different kind
    raises — a family's kind is part of its schema.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict,
        factory,
    ):
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            family = _Family(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = family.series.get(key)
        if child is None:
            child = factory()
            family.series[key] = child
        return child

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._child(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._child(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------
    def families(self) -> list[str]:
        return sorted(self._families)

    def get(self, name: str, **labels) -> Optional[object]:
        """The existing child for ``name``/``labels``, or None."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return family.series.get(key)

    def snapshot(self) -> dict:
        """Deterministic plain-data dump of every family.

        Families and label sets are emitted in sorted order, so two
        runs that counted the same things produce byte-identical JSON —
        the property the runner's embedded ``metrics`` section and the
        CI byte-compare jobs rely on.
        """
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.series):
                metric = family.series[key]
                series.append(
                    {"labels": dict(key), "value": metric.value}
                )
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def total(self, name: str) -> int:
        """Sum of a gauge family across all label sets (a histogram
        family sums its observation counts)."""
        family = self._families.get(name)
        if family is None:
            return 0
        if family.kind == "histogram":
            return sum(m.count for m in family.series.values())
        return sum(m.value for m in family.series.values())
