"""Streaming classifiers: the detector's rules, re-applied to frames.

The z-score classifier must behave channel-for-channel like
:class:`~repro.resilience.detect.TrafficStatsDetector` (same Welford
core, same warmup/streak policy); the localizer classifier must fuse
flags into the same topology-aware estimates the in-sim localizer
produces.
"""

import pytest

from repro.noc.config import PAPER_CONFIG
from repro.resilience.detect import DetectConfig
from repro.resilience.localize import LocalizeConfig
from repro.serve.classify import (
    LocalizerClassifier,
    Verdict,
    ZScoreClassifier,
    default_classifiers,
)
from repro.serve.features import FeatureFrame


QUICK = DetectConfig(window=10, warmup_windows=2, consecutive=2)


def frame(start, *, window=10, run="r", nacks=None, inflight=0,
          detects=None) -> FeatureFrame:
    f = FeatureFrame(run=run, start=start, window=window)
    for label, n in (nacks or {}).items():
        f.link(label)["nacks"] = n
    f.inflight = inflight
    f.detects = list(detects or [])
    return f


def feed(classifier, frames):
    out = []
    for f in frames:
        out.extend(classifier.observe(f))
    return out


class TestZScoreClassifier:
    def test_nack_spike_flags_after_the_streak(self):
        clf = ZScoreClassifier(QUICK)
        quiet = [frame(i * 10, nacks={"0->EAST": i % 2}) for i in range(6)]
        assert feed(clf, quiet) == []
        # one anomalous window is not enough (consecutive=2)...
        assert clf.observe(frame(60, nacks={"0->EAST": 40})) == []
        # ...the second flags, stamped with the window-close cycle
        (verdict,) = clf.observe(frame(70, nacks={"0->EAST": 40}))
        assert verdict.kind == "suspect_link"
        assert verdict.subject == "0->EAST"
        assert verdict.cycle == 80
        assert verdict.source == "zscore"
        assert verdict.score > QUICK.z_threshold

    def test_a_channel_flags_only_once(self):
        clf = ZScoreClassifier(QUICK)
        feed(clf, [frame(i * 10, nacks={"L": i % 2}) for i in range(6)])
        hot = [frame((6 + i) * 10, nacks={"L": 40}) for i in range(6)]
        verdicts = feed(clf, hot)
        assert len([v for v in verdicts if v.subject == "L"]) == 1

    def test_quiet_stream_stays_silent(self):
        clf = ZScoreClassifier(QUICK)
        assert feed(
            clf, [frame(i * 10, nacks={"L": i % 3}) for i in range(30)]
        ) == []

    def test_backpressure_channel_watches_inflight(self):
        clf = ZScoreClassifier(QUICK)
        quiet = [frame(i * 10, inflight=3 + i % 2) for i in range(6)]
        feed(clf, quiet)
        verdicts = feed(
            clf, [frame((6 + i) * 10, inflight=500) for i in range(2)]
        )
        (verdict,) = verdicts
        assert verdict.kind == "backpressure"
        assert verdict.subject == "inflight"

    def test_a_link_first_seen_after_warmup_flags_on_its_second_spike(self):
        """The attack starts after warmup, on a link no earlier frame
        carried: its channel is back-filled with the quiet windows, so
        the attack is scored against them instead of becoming the
        baseline — the same verdicts as a channel seen from frame 0."""
        attack = [frame((6 + i) * 10, nacks={"0->EAST": 40})
                  for i in range(2)]
        late = ZScoreClassifier(QUICK)
        assert feed(late, [frame(i * 10) for i in range(6)]) == []
        assert late.observe(attack[0]) == []
        (verdict,) = late.observe(attack[1])
        assert verdict.kind == "suspect_link"
        assert verdict.subject == "0->EAST"
        assert verdict.cycle == 80
        early = ZScoreClassifier(QUICK)
        quiet = [frame(i * 10, nacks={"0->EAST": 0}) for i in range(6)]
        assert feed(early, quiet + attack) == [verdict]

    def test_runs_are_isolated(self):
        clf = ZScoreClassifier(QUICK)
        feed(clf, [frame(i * 10, run="a", nacks={"L": i % 2})
                   for i in range(6)])
        # run "b" has no baseline yet: its first spike windows are
        # warmup, so nothing flags
        assert feed(
            clf, [frame(i * 10, run="b", nacks={"L": 40}) for i in range(2)]
        ) == []

    def test_verdict_to_dict_is_json_ready(self):
        verdict = Verdict(
            cycle=80, kind="suspect_link", run="r", subject="L",
            score=12.3456789, source="zscore", detail="z=12.3",
        )
        assert verdict.to_dict() == {
            "cycle": 80, "kind": "suspect_link", "run": "r",
            "subject": "L", "score": 12.345679, "source": "zscore",
            "detail": "z=12.3",
        }


class TestLocalizerClassifier:
    CFG = PAPER_CONFIG

    def test_detect_flags_in_frames_become_estimates(self):
        clf = LocalizerClassifier(
            self.CFG, LocalizeConfig(min_score=1.0)
        )
        flag = {
            "cycle": 64, "link": "0->EAST", "router": None,
            "z": 9.0, "detail": "retrans-rate z=9.0",
        }
        verdicts = clf.observe(frame(60, detects=[flag]))
        assert verdicts and all(v.kind == "estimate" for v in verdicts)
        assert verdicts[0].source == "localizer"
        assert clf.summary("r")

    def test_chains_onto_upstream_zscore_suspicions(self):
        zscore = ZScoreClassifier(QUICK)
        localizer = LocalizerClassifier(
            self.CFG, LocalizeConfig(min_score=1.0), upstream=zscore
        )
        frames = [frame(i * 10, nacks={"0->EAST": i % 2})
                  for i in range(6)]
        frames += [frame((6 + i) * 10, nacks={"0->EAST": 40})
                   for i in range(2)]
        estimates = []
        for f in frames:
            zscore.observe(f)
            estimates.extend(localizer.observe(f))
        assert estimates, "upstream suspicion never localized"
        assert all(v.kind == "estimate" for v in estimates)

    def test_default_chain_wires_scenario_configs(self):
        from repro.sim import Scenario, SyntheticTraffic

        scenario = Scenario(
            name="chain",
            cfg=self.CFG,
            traffic=(SyntheticTraffic(injection_rate=0.01, duration=10),),
            max_cycles=100,
        )
        zscore, localizer = default_classifiers(scenario)
        assert isinstance(zscore, ZScoreClassifier)
        assert isinstance(localizer, LocalizerClassifier)
        assert localizer.upstream is zscore
