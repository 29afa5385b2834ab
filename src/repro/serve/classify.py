"""Pluggable streaming classifiers over feature frames.

A :class:`Classifier` consumes the :class:`~repro.serve.features.FeatureFrame`
sequence and emits :class:`Verdict` values.  Two ship here, both thin
wrappers over the resilience layer so the statistical cores live once:

* :class:`ZScoreClassifier` — the exact Welford baseline / z-threshold
  / streak rules of :class:`~repro.resilience.detect.TrafficStatsDetector`
  (via :meth:`~repro.resilience.detect.Welford.observe`), applied to
  per-link NACK counts and the chip-wide in-flight backlog rebuilt
  from bus events;
* :class:`LocalizerClassifier` — a
  :class:`~repro.resilience.localize.TopologyLocalizer` per run, fed
  the frames' detector flags (and, chained, the upstream z-score
  suspicions), emitting its fused attacker estimates as verdicts.

Verdict streams are a pure function of the frame sequence, hence of
the event stream, hence byte-identical across engines and between a
live run and an offline replay of the recorded stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.noc.config import NoCConfig
from repro.obs.collectors import link_label, parse_link_label
from repro.resilience.detect import DetectConfig, DetectionEvent, Welford
from repro.resilience.localize import (
    LocalizeConfig,
    LocalizeEvent,
    TopologyLocalizer,
)
from repro.serve.features import FeatureFrame
from repro.sim.scenario import Scenario

#: clamp for infinite z-scores (flat baseline), matching the detector
_Z_CLAMP = 1e9


@dataclass(frozen=True)
class Verdict:
    """One classifier decision on the stream."""

    #: window-close cycle the verdict was issued at
    cycle: int
    #: "suspect_link" | "backpressure" | "estimate" | ...
    kind: str
    #: scenario (run label) the verdict is about
    run: str
    #: what is suspected: a link label, "inflight", ...
    subject: str
    #: anomaly magnitude (z-score or localization score)
    score: float
    #: classifier that issued it
    source: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "run": self.run,
            "subject": self.subject,
            "score": round(self.score, 6),
            "source": self.source,
            "detail": self.detail,
        }


class Classifier:
    """Interface: fold frames, emit verdicts.

    ``observe`` is called once per closed frame, in frame order;
    ``finish`` once after the last frame.  Implementations must be
    deterministic functions of the frame sequence — no wall-clock, no
    randomness — or the replay guarantee breaks.
    """

    #: stable name stamped into Verdict.source
    name = "classifier"

    def observe(self, frame: FeatureFrame) -> list[Verdict]:
        raise NotImplementedError

    def finish(self) -> list[Verdict]:
        return []


class _RunChannels:
    """Per-run z-score state: one Welford per link plus the backlog."""

    __slots__ = (
        "links", "inflight", "flagged", "backpressure_flagged", "frames",
    )

    def __init__(self) -> None:
        self.links: dict[str, Welford] = {}
        self.inflight = Welford()
        self.flagged: set[str] = set()
        self.backpressure_flagged = False
        #: frames observed so far
        self.frames = 0


class ZScoreClassifier(Classifier):
    """The detector's statistical rules, re-applied to bus frames.

    Matches :class:`~repro.resilience.detect.TrafficStatsDetector`
    channel-for-channel on the NACK side: every link is observed every
    window — zero windows included, so warmup builds the same quiet
    baseline.  A link's channel is created at the first frame that
    carries it; a link first seen at a run's k-th frame was quiet for
    the k frames before, so its channel starts as k zero windows —
    exactly the state of a channel observed from frame 0.  An attack
    that starts after warmup is therefore scored against a quiet
    baseline instead of being learned as one.  Back-pressure has no
    per-router occupancy on the bus, so the chip-wide in-flight
    backlog (cumulative injects - delivers) stands in for it.

    A channel flags once (``suspect_link`` / ``backpressure``) and is
    then left alone, like the live detector.
    """

    name = "zscore"

    def __init__(self, config: Optional[DetectConfig] = None):
        self.config = config or DetectConfig()
        self._runs: dict[str, _RunChannels] = {}
        #: verdicts from the most recent observe() call, for chaining
        self.latest: list[Verdict] = []

    def observe(self, frame: FeatureFrame) -> list[Verdict]:
        config = self.config
        channels = self._runs.get(frame.run)
        if channels is None:
            channels = self._runs[frame.run] = _RunChannels()
        verdicts: list[Verdict] = []
        links = channels.links
        for label in frame.links:
            if label not in links:
                # back-fill: k quiet windows leave count k, mean 0, M2 0
                links[label] = stats = Welford()
                stats.count = channels.frames
        channels.frames += 1
        for label in sorted(links):
            if label in channels.flagged:
                continue
            stats = links[label]
            entry = frame.links.get(label)
            value = float(entry["nacks"]) if entry is not None else 0.0
            z = min(stats.z_score(value), _Z_CLAMP)
            if stats.observe(value, config):
                channels.flagged.add(label)
                verdicts.append(
                    Verdict(
                        cycle=frame.end,
                        kind="suspect_link",
                        run=frame.run,
                        subject=label,
                        score=z,
                        source=self.name,
                        detail=f"retrans-rate z={z:.1f}",
                    )
                )
        if not channels.backpressure_flagged:
            value = float(frame.inflight)
            z = min(channels.inflight.z_score(value), _Z_CLAMP)
            if channels.inflight.observe(value, config):
                channels.backpressure_flagged = True
                verdicts.append(
                    Verdict(
                        cycle=frame.end,
                        kind="backpressure",
                        run=frame.run,
                        subject="inflight",
                        score=z,
                        source=self.name,
                        detail=f"in-flight backlog z={z:.1f}",
                    )
                )
        self.latest = verdicts
        return verdicts


class LocalizerClassifier(Classifier):
    """Attacker localization as a stream consumer.

    Keeps one :class:`~repro.resilience.localize.TopologyLocalizer`
    per run and feeds it every detector flag carried in the frames
    (``detect`` bus events from a sim-side detector) plus, when
    chained onto an ``upstream`` :class:`ZScoreClassifier`, that
    classifier's own ``suspect_link`` verdicts — so localization works
    even for scenarios that configured no in-sim detector.  Estimate
    events come back out as ``estimate`` verdicts.
    """

    name = "localizer"

    def __init__(
        self,
        cfg: NoCConfig,
        config: Optional[LocalizeConfig] = None,
        *,
        upstream: Optional[ZScoreClassifier] = None,
    ):
        self.cfg = cfg
        self.config = config or LocalizeConfig()
        self.upstream = upstream
        self._runs: dict[str, TopologyLocalizer] = {}
        self._fresh: list[LocalizeEvent] = []

    def _localizer(self, run: str) -> TopologyLocalizer:
        localizer = self._runs.get(run)
        if localizer is None:
            localizer = TopologyLocalizer(self.cfg, self.config)
            localizer.event_hooks.append(self._fresh.append)
            self._runs[run] = localizer
        return localizer

    def observe(self, frame: FeatureFrame) -> list[Verdict]:
        localizer = self._localizer(frame.run)
        self._fresh.clear()
        for flag in frame.detects:
            label = flag.get("link")
            localizer.ingest(
                DetectionEvent(
                    cycle=flag["cycle"],
                    kind=(
                        "suspect_link"
                        if label is not None
                        else "suspect_router"
                    ),
                    link=(
                        parse_link_label(label)
                        if label is not None
                        else None
                    ),
                    router=flag.get("router"),
                    z=float(flag.get("z", 0.0)),
                    detail=flag.get("detail", ""),
                )
            )
        if self.upstream is not None:
            for verdict in self.upstream.latest:
                if verdict.run != frame.run:
                    continue
                if verdict.kind != "suspect_link":
                    continue
                localizer.ingest(
                    DetectionEvent(
                        cycle=verdict.cycle,
                        kind="suspect_link",
                        link=parse_link_label(verdict.subject),
                        z=verdict.score,
                        detail=verdict.detail,
                    )
                )
        verdicts = [
            Verdict(
                cycle=frame.end,
                kind="estimate",
                run=frame.run,
                subject=link_label(event.link),
                score=event.score,
                source=self.name,
                detail=event.detail,
            )
            for event in self._fresh
        ]
        self._fresh.clear()
        return verdicts

    def summary(self, run: str) -> dict:
        """The run's localizer report (empty when the run never
        produced a footprint)."""
        localizer = self._runs.get(run)
        return localizer.summary() if localizer is not None else {}


def default_classifiers(scenario: Scenario) -> list[Classifier]:
    """The standard chain for a scenario: z-score rules (detector
    config when the scenario carries one) feeding topology-aware
    localization (ditto)."""
    defense = scenario.defense
    zscore = ZScoreClassifier(defense.detector or DetectConfig())
    localizer = LocalizerClassifier(
        scenario.cfg,
        config=defense.localizer or LocalizeConfig(),
        upstream=zscore,
    )
    return [zscore, localizer]
