"""Traffic-statistics detector: early flags, bounded false positives.

The detector's contract has two halves: it must see the step change a
trojan or DoS leaves in the windowed retransmission/back-pressure
series (and shorten the watchdog ladder *before* the ladder's own
evidence accumulates), and it must not flag a stationary benign load —
the z-threshold-with-streak policy plus excluding anomalous windows
from the baseline is what bounds the false-positive rate.
"""

import math

import pytest

from repro.noc.config import PAPER_CONFIG
from repro.noc.network import Network
from repro.noc.topology import Direction
from repro.resilience.detect import (
    DetectConfig,
    TrafficStatsDetector,
    Welford,
)
from repro.resilience.watchdog import RetransWatchdog, WatchdogConfig

CFG = PAPER_CONFIG
LINK = (0, Direction.EAST)


class TestWelford:
    def test_mean_and_z(self):
        w = Welford()
        for x in (10.0, 12.0, 8.0, 10.0):
            w.admit(x)
        assert w.mean == pytest.approx(10.0)
        assert w.z_score(10.0) == pytest.approx(0.0)
        assert w.z_score(20.0) > 4.0

    def test_flat_baseline_step_is_infinitely_surprising(self):
        w = Welford()
        for _ in range(10):
            w.admit(0.0)
        assert w.z_score(0.0) == 0.0
        assert math.isinf(w.z_score(1.0))

    def test_too_few_samples_never_scores(self):
        w = Welford()
        w.admit(5.0)
        assert w.z_score(100.0) == 0.0


def _observe_series(detector, stats, values):
    return [detector._observe(stats, v) for v in values]


class TestObservationPolicy:
    CFG_SMALL = DetectConfig(window=16, z_threshold=4.0, consecutive=2,
                             warmup_windows=4)

    def detector(self):
        return TrafficStatsDetector(self.CFG_SMALL)

    def test_warmup_admits_unconditionally(self):
        d = self.detector()
        stats = Welford()
        # a wild warmup value raises no flag, it just widens the baseline
        flags = _observe_series(d, stats, [1.0, 1.0, 99.0, 1.0])
        assert flags == [False] * 4
        assert stats.count == 4

    def test_step_change_flags_after_consecutive_windows(self):
        d = self.detector()
        stats = Welford()
        flags = _observe_series(
            d, stats, [1.0, 2.0, 1.0, 2.0] + [50.0, 50.0]
        )
        assert flags == [False, False, False, False, False, True]
        assert d.anomalous_windows == 2

    def test_single_spike_is_not_enough(self):
        d = self.detector()
        stats = Welford()
        flags = _observe_series(
            d, stats, [1.0, 2.0, 1.0, 2.0, 50.0, 1.0, 50.0, 1.0]
        )
        assert True not in flags  # streak broken each time

    def test_anomalies_stay_out_of_the_baseline(self):
        """An attack cannot drag the threshold up under itself: the
        baseline mean is unchanged by the anomalous windows."""
        d = self.detector()
        stats = Welford()
        _observe_series(d, stats, [1.0, 2.0, 1.0, 2.0])
        before = stats.mean
        _observe_series(d, stats, [80.0])
        assert stats.mean == before

    def test_rejects_bad_knobs(self):
        for kwargs in (
            {"window": 0},
            {"z_threshold": 0.0},
            {"consecutive": 0},
            {"warmup_windows": 1},
        ):
            with pytest.raises(ValueError):
                DetectConfig(**kwargs)


class TestWiring:
    def attach(self, config=None):
        net = Network(CFG)
        watchdog = RetransWatchdog(WatchdogConfig()).attach(net)
        detector = TrafficStatsDetector(
            config or DetectConfig(window=16, warmup_windows=2,
                                   consecutive=2)
        ).attach(net, watchdog)
        return net, watchdog, detector

    def test_registers_as_monitor(self):
        net, _, detector = self.attach()
        assert detector in net.monitors
        detector.detach()
        assert detector not in net.monitors

    def test_flag_feeds_the_watchdog_ladder(self):
        net, wd, detector = self.attach()
        base = wd._ladder_thresholds(LINK)
        detector._flag_link(LINK, cycle=100, z=9.0)
        assert LINK in wd.suspect_links
        halved = wd._ladder_thresholds(LINK)
        assert halved != base
        assert halved[0] <= base[0]

    def test_each_channel_flags_once(self):
        net, wd, detector = self.attach()
        detector._flag_link(LINK, cycle=100, z=9.0)
        receiver = net.receiver_of(LINK)
        receiver.nacks_sent += 1000
        detector.on_cycle(net, 16 * 50)  # a later window boundary
        assert len([e for e in detector.events
                    if e.kind == "suspect_link"]) == 1

    def test_router_flags_are_report_only(self):
        net, wd, detector = self.attach()
        detector._flag_router(3, cycle=100, z=9.0)
        assert 3 in detector.suspect_routers
        assert not wd.suspect_links  # no ladder side effect

    def test_infinite_z_is_clamped_for_json(self):
        net, _, detector = self.attach()
        detector._flag_link(LINK, cycle=100, z=float("inf"))
        (event,) = detector.events
        assert event.z == 1e9

    def test_off_boundary_cycles_are_no_ops(self):
        net, _, detector = self.attach()
        receiver = net.receiver_of(LINK)
        receiver.nacks_sent = 7
        detector.on_cycle(net, 17)  # not a multiple of window=16
        assert detector.windows_observed == 0
        # the stashed counter is untouched, so no delta is lost
        assert detector._links[LINK].last == 0

    def test_next_event_cycle_is_the_window_boundary(self):
        net, _, detector = self.attach()
        assert detector.next_event_cycle(net, 16) == 16
        assert detector.next_event_cycle(net, 17) == 32
        assert detector.next_event_cycle(net, 31) == 32

    def test_nack_step_flags_the_link_end_to_end(self):
        """Drive window boundaries directly: quiet baseline windows,
        then a NACK burst — the link lands in the watchdog's suspect
        set after ``consecutive`` hot windows."""
        net, wd, detector = self.attach()
        receiver = net.receiver_of(LINK)
        boundary = 0
        for _ in range(6):  # warmup + a stable baseline
            boundary += 16
            receiver.nacks_sent += 1
            detector.on_cycle(net, boundary)
        for _ in range(2):  # the attack's step change
            boundary += 16
            receiver.nacks_sent += 400
            detector.on_cycle(net, boundary)
        assert LINK in detector.suspect_links
        assert LINK in wd.suspect_links
        assert detector.summary()["suspect_links"] == ["0->EAST"]

    def test_summary_is_jsonable(self):
        import json

        net, _, detector = self.attach()
        detector._flag_link(LINK, cycle=100, z=float("inf"))
        detector._flag_router(2, cycle=100, z=3.0)
        text = json.dumps(detector.summary(), allow_nan=False)
        assert "0->EAST" in text
