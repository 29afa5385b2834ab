"""Tests for cycle-windowed time series (repro.obs.series)."""

import pytest

from repro.obs.series import WindowedSeries


class TestWindowedSeries:
    def test_rollup_matches_hand_computed_trace(self):
        # window 8: each window keeps each channel's maximum, the
        # rollup the heatmap series uses
        series = WindowedSeries(8)
        trace = [(0, 3), (4, 7), (7, 5), (8, 2), (12, 9), (16, 1)]
        for cycle, value in trace:
            series.observe(cycle, "util", value)
        series.flush()
        assert series.channel("util") == [(0, 7), (8, 9), (16, 1)]

    # max is the one roll-up left; the table keeps its case name
    @pytest.mark.parametrize("agg,expected", [("max", 7)])
    def test_every_agg(self, agg, expected):
        series = WindowedSeries(10)
        for cycle, value in ((0, 3), (4, 7), (9, 5)):
            series.observe(cycle, "c", value)
        series.flush()
        assert series.channel("c") == [(0, expected)]
        assert series.to_jsonable()["agg"] == agg

    def test_windows_are_aligned_not_relative(self):
        series = WindowedSeries(100)
        series.observe(250, "c", 1)  # lands in [200, 300)
        series.flush()
        assert series.channel("c") == [(200, 1)]

    def test_backwards_cycles_rejected(self):
        series = WindowedSeries(8)
        series.observe(16, "c", 1)
        with pytest.raises(ValueError, match="before the open window"):
            series.observe(0, "c", 1)

    def test_silent_windows_are_absent_not_zero(self):
        series = WindowedSeries(8)
        series.observe(0, "a", 1)
        series.observe(0, "b", 2)
        series.observe(24, "a", 3)  # window 8..16 never observed
        series.flush()
        assert series.channel("a") == [(0, 1), (24, 3)]
        assert series.channel("b") == [(0, 2)]
        assert series.channels() == ["a", "b"]
        assert series.channels(prefix="b") == ["b"]

    def test_flush_is_idempotent(self):
        series = WindowedSeries(8)
        series.observe(0, "c", 1)
        series.flush()
        series.flush()
        assert len(series.points) == 1

    def test_to_jsonable_sorts_channels(self):
        series = WindowedSeries(4)
        series.observe(0, "z", 1)
        series.observe(1, "a", 2)
        series.flush()
        assert series.to_jsonable() == {
            "window": 4,
            "agg": "max",
            "points": [{"start": 0, "values": {"a": 2, "z": 1}}],
        }

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowedSeries(0)

