"""Tests for the metrics registry (repro.obs.registry)."""

import json
import pickle

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry


class TestHandles:
    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("occupancy")
        g.set(7)
        g.set(5)
        assert g.value == 5
        g.set(6)
        assert g.value == 6
        assert reg.total("occupancy") == 6

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=(10, 100))
        for v in (1, 10, 11, 100, 5000):
            h.observe(v)
        snap = h.value
        # values <= bound land in that bucket (Prometheus "le")
        assert snap["buckets"] == {"10": 2, "100": 4, "+Inf": 5}
        assert snap["sum"] == 1 + 10 + 11 + 100 + 5000
        assert snap["count"] == 5

    def test_histogram_default_buckets_cover_paper_range(self):
        assert DEFAULT_BUCKETS[0] == 8 and DEFAULT_BUCKETS[-1] == 4096

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestLabelSets:
    def test_same_labels_same_handle(self):
        reg = MetricsRegistry()
        a = reg.gauge("hits", link="0->EAST", run="x")
        b = reg.gauge("hits", run="x", link="0->EAST")  # order-free
        assert a is b
        a.set(1)
        assert b.value == 1

    def test_different_labels_different_children(self):
        reg = MetricsRegistry()
        reg.gauge("hits", link="a").set(1)
        reg.gauge("hits", link="b").set(2)
        assert reg.total("hits") == 3
        assert reg.get("hits", link="b").value == 2
        assert reg.get("hits", link="missing") is None
        assert reg.get("absent_family") is None

    def test_label_values_coerced_to_strings(self):
        reg = MetricsRegistry()
        a = reg.gauge("hits", router=3)
        b = reg.gauge("hits", router="3")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.gauge("thing")
        with pytest.raises(ValueError, match="is a gauge"):
            reg.histogram("thing")

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().gauge("bad name!")


class TestSnapshot:
    def test_snapshot_is_deterministic_across_insertion_order(self):
        def build(order):
            reg = MetricsRegistry()
            for name, labels in order:
                reg.gauge(name, **labels).set(1)
            return json.dumps(reg.snapshot(), sort_keys=True)

        entries = [
            ("b_metric", {"link": "z"}),
            ("a_metric", {"link": "a"}),
            ("b_metric", {"link": "a"}),
        ]
        assert build(entries) == build(list(reversed(entries)))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.gauge("util", "help text", link="0->EAST").set(3)
        snap = reg.snapshot()
        assert snap == {
            "util": {
                "kind": "gauge",
                "help": "help text",
                "series": [
                    {"labels": {"link": "0->EAST"}, "value": 3},
                ],
            }
        }

    def test_total_over_histogram_counts_observations(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", run="x")
        h.observe(1)
        h.observe(2)
        assert reg.total("lat") == 2


def test_registry_pickles_with_live_handles():
    reg = MetricsRegistry()
    reg.gauge("hits", link="a").set(5)
    reg.histogram("lat").observe(12)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.snapshot() == reg.snapshot()
    clone.gauge("hits", link="a").set(6)
    clone.histogram("lat").observe(3)
    assert clone.total("hits") == 6
    assert clone.total("lat") == 2
