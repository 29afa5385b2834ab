"""Event sink -> feature frames -> classifier verdicts.

Two drivers share one :class:`DetectionPipeline`:

* :func:`run_streaming` — the live path.  It builds the simulation
  with a private events-only observability bundle, attaches the
  pipeline to the bus as a sink and runs :meth:`Simulation.run`, the
  one run loop.  The sink folds each event as it is published and
  classifies each frame as it closes, so verdicts surface *while the
  run progresses*.  The pipeline only reads events, so the returned
  :class:`~repro.sim.engine.RunResult` is byte-identical to a bare
  run — the streaming layer is a pure observer.

* :func:`replay_events` — the offline path.  It feeds a recorded
  ``events.jsonl`` stream through the identical extractor and
  classifiers.  Because frames are a pure function of the event
  stream (see :mod:`repro.serve.features`), the replayed verdict
  stream is byte-identical to the live one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

from repro.obs.events import Event, EventBus
from repro.obs.instrument import ObsConfig, Observability
from repro.serve.classify import Classifier, Verdict, default_classifiers
from repro.serve.features import FeatureExtractor, FeatureFrame
from repro.sim.engine import RunResult, Simulation
from repro.sim.scenario import Scenario


class DetectionPipeline:
    """One extractor and an ordered classifier chain, fed one event at
    a time.  Each frame is classified as it closes and then dropped:
    the pipeline keeps only its verdicts."""

    def __init__(
        self,
        classifiers: Iterable[Classifier],
        *,
        window: int = 64,
        on_verdict: Optional[Callable[[Verdict], None]] = None,
    ):
        self.classifiers = list(classifiers)
        self.extractor = FeatureExtractor(window)
        #: called with each verdict as it is issued
        self.on_verdict = on_verdict
        self._bus: Optional[EventBus] = None
        #: every verdict issued, in issue order
        self.verdicts: list[Verdict] = []

    # -- wiring ------------------------------------------------------------
    def attach(self, obs: Observability) -> "DetectionPipeline":
        """Install :meth:`fold` as a sink on the bundle's bus."""
        self._bus = obs.bus
        obs.bus.sinks.append(self.fold)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.sinks.remove(self.fold)
        self._bus = None

    # -- feeding -----------------------------------------------------------
    def fold(self, event: Event) -> None:
        """The bus sink: fold one event, classifying every frame it
        closes."""
        for frame in self.extractor.add(event):
            self._classify(frame)

    def finish(self, up_to: Optional[int] = None) -> None:
        """Close the complete windows up to the final simulated cycle,
        then run every classifier's ``finish``."""
        for frame in self.extractor.flush(up_to):
            self._classify(frame)
        for classifier in self.classifiers:
            self._issue(classifier.finish())

    def _classify(self, frame: FeatureFrame) -> None:
        for classifier in self.classifiers:
            self._issue(classifier.observe(frame))

    def _issue(self, verdicts: list[Verdict]) -> None:
        self.verdicts.extend(verdicts)
        if self.on_verdict is not None:
            for verdict in verdicts:
                self.on_verdict(verdict)

    # -- reporting ---------------------------------------------------------
    def verdict_stream(self) -> list[dict]:
        """The full verdict sequence in canonical JSON form."""
        return [verdict.to_dict() for verdict in self.verdicts]


@dataclass
class StreamingRun:
    """A streamed run: the bare-identical result plus the stream."""

    result: RunResult
    verdicts: list[Verdict] = field(default_factory=list)

    def verdict_stream(self) -> list[dict]:
        return [verdict.to_dict() for verdict in self.verdicts]

    def to_payload(self) -> dict:
        """JSON payload: the result and the verdict stream."""
        return {
            "result": asdict(self.result),
            "verdict_stream": self.verdict_stream(),
        }


def run_streaming(
    scenario: Scenario,
    *,
    engine: Optional[str] = None,
    window: Optional[int] = None,
    classifiers: Optional[list[Classifier]] = None,
    on_verdict: Optional[Callable[[Verdict], None]] = None,
    events_jsonl: Optional[str] = None,
) -> StreamingRun:
    """Run ``scenario`` with live verdict extraction.

    ``on_verdict`` fires for each verdict as its window closes (in
    stream order).  ``events_jsonl`` additionally records the raw
    event stream for :func:`replay_events`.
    """
    if classifiers is None:
        classifiers = default_classifiers(scenario)
    if window is None:
        window = (
            scenario.defense.detector.window
            if scenario.defense.detector is not None
            else 64
        )
    # events-only bundle: no final scrape, no windowed series (the
    # pipeline rebuilds windows from events), optional JSONL record
    obs = Observability(
        ObsConfig(metrics=False, window=0, events_jsonl=events_jsonl)
    )
    sim = Simulation(scenario, engine=engine, obs=obs)
    pipeline = DetectionPipeline(
        classifiers, window=window, on_verdict=on_verdict
    ).attach(obs)
    result = sim.run()
    pipeline.finish(up_to=result.cycles)
    if events_jsonl is not None:
        obs.export()
    return StreamingRun(result=result, verdicts=pipeline.verdicts)


def replay_events(
    events: Iterable[Event],
    classifiers: list[Classifier],
    *,
    window: int = 64,
    up_to: Optional[int] = None,
) -> DetectionPipeline:
    """Re-derive the verdict stream from a recorded event stream.

    ``up_to`` is the recorded run's final cycle
    (``RunResult.cycles``); passing it makes the replay close exactly
    the windows the live pipeline closed, so the streams compare
    byte-identically.
    """
    pipeline = DetectionPipeline(classifiers, window=window)
    for event in events:
        pipeline.fold(event)
    pipeline.finish(up_to)
    return pipeline
