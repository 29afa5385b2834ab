"""Pump: event subscription -> feature frames -> classifier verdicts.

Two drivers share one :class:`DetectionPipeline`:

* :func:`run_streaming` — the live path.  It builds the simulation
  with a private events-only observability bundle, subscribes the
  pipeline to the bus, and advances the engine in chunks, pumping
  between chunks so verdicts surface *while the run progresses*.  The
  chunked advance is provably equivalent to the one-shot
  :meth:`Simulation._run` loop (both engines land on identical
  states), so the returned :class:`~repro.sim.engine.RunResult` is
  byte-identical to a bare run — the streaming layer is a pure
  observer.

* :func:`replay_events` — the offline path.  It feeds a recorded
  ``events.jsonl`` stream through the identical extractor and
  classifiers.  Because frames are a pure function of the event
  stream (see :mod:`repro.serve.features`), the replayed verdict
  stream is byte-identical to the live one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

from repro.obs.events import Event, Subscription
from repro.obs.instrument import ObsConfig, Observability
from repro.serve.classify import Classifier, Verdict, default_classifiers
from repro.serve.features import FeatureExtractor, FeatureFrame
from repro.sim.engine import RunResult, Simulation
from repro.sim.scenario import Scenario

#: engine cycles advanced between pump rounds (verdict granularity of
#: the live stream; does not affect the verdicts themselves)
DEFAULT_CHUNK = 256

#: pipeline subscription bound — generous, because a dropped event
#: would make live and replay streams diverge (drops are counted and
#: surfaced so that divergence is at least visible)
DEFAULT_CAPACITY = 2_000_000


class DetectionPipeline:
    """One subscription, one extractor, an ordered classifier chain."""

    def __init__(
        self,
        classifiers: Iterable[Classifier],
        *,
        window: int = 64,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.classifiers = list(classifiers)
        self.extractor = FeatureExtractor(window)
        self.capacity = capacity
        self.sub: Optional[Subscription] = None
        self._bus = None
        #: every closed frame, in close order
        self.frames: list[FeatureFrame] = []
        #: every verdict issued, in issue order
        self.verdicts: list[Verdict] = []

    # -- wiring ------------------------------------------------------------
    def attach(self, obs: Observability) -> "DetectionPipeline":
        """Subscribe to the bundle's bus (own bounded queue)."""
        self._bus = obs.bus
        self.sub = obs.bus.subscribe(self.capacity)
        return self

    def detach(self) -> None:
        if self._bus is not None and self.sub is not None:
            self._bus.unsubscribe(self.sub)
        self._bus = None
        self.sub = None

    @property
    def dropped(self) -> int:
        """Events the subscription dropped (queue overflow)."""
        return self.sub.dropped if self.sub is not None else 0

    # -- pumping -----------------------------------------------------------
    def pump(self) -> list[Verdict]:
        """Drain the subscription and classify whatever it closed."""
        if self.sub is None:
            return []
        return self.ingest(self.sub.drain())

    def ingest(self, events: Iterable[Event]) -> list[Verdict]:
        """Fold externally-supplied events (the replay path)."""
        fresh: list[Verdict] = []
        for frame in self.extractor.feed(events):
            fresh.extend(self._classify(frame))
        return fresh

    def finish(self, up_to: Optional[int] = None) -> list[Verdict]:
        """Final pump: drain, flush complete windows up to the final
        simulated cycle, run every classifier's ``finish``."""
        fresh = self.pump()
        for frame in self.extractor.flush(up_to):
            fresh.extend(self._classify(frame))
        for classifier in self.classifiers:
            tail = classifier.finish()
            self.verdicts.extend(tail)
            fresh.extend(tail)
        return fresh

    def _classify(self, frame: FeatureFrame) -> list[Verdict]:
        self.frames.append(frame)
        out: list[Verdict] = []
        for classifier in self.classifiers:
            out.extend(classifier.observe(frame))
        self.verdicts.extend(out)
        return out

    # -- reporting ---------------------------------------------------------
    def verdict_stream(self) -> list[dict]:
        """The full verdict sequence in canonical JSON form."""
        return [verdict.to_dict() for verdict in self.verdicts]

    def frames_jsonable(self) -> list[dict]:
        return [frame.to_dict() for frame in self.frames]


@dataclass
class StreamingRun:
    """A streamed run: the bare-identical result plus the stream."""

    result: RunResult
    verdicts: list[Verdict] = field(default_factory=list)
    frames: list[FeatureFrame] = field(default_factory=list)
    #: bus events the pipeline subscription dropped (0 in any healthy
    #: run; nonzero means the stream under-observed the simulation)
    dropped: int = 0

    def verdict_stream(self) -> list[dict]:
        return [verdict.to_dict() for verdict in self.verdicts]

    def to_payload(self) -> dict:
        """JSON payload: the result and the verdict stream."""
        return {
            "result": asdict(self.result),
            "verdict_stream": self.verdict_stream(),
            "dropped": self.dropped,
        }


def _drive(
    sim: Simulation, chunk: int, pump: Callable[[], None]
) -> bool:
    """Advance ``sim`` to completion in ``chunk``-cycle slices, calling
    ``pump`` between slices.  Returns ``completed`` with exactly the
    semantics of the one-shot :meth:`Simulation._run` loop.
    """
    scenario = sim.scenario
    net = sim.network
    if scenario.duration is not None:
        while net.cycle < scenario.duration:
            sim.advance_to(min(net.cycle + chunk, scenario.duration))
            pump()
        return True
    # drain mode: an absolute cycle budget, stall-aborted
    stall_limit = scenario.stall_limit
    while True:
        if net.drained:
            return True
        remaining = scenario.max_cycles - net.cycle
        if remaining <= 0:
            return net.drained
        done = sim.run_until_drained(min(chunk, remaining), stall_limit)
        pump()
        if done:
            return True
        if (
            stall_limit is not None
            and net.stats.stalled_for(net.cycle) > stall_limit
        ):
            return False  # stall abort, same condition the engine uses


def run_streaming(
    scenario: Scenario,
    *,
    engine: Optional[str] = None,
    chunk: int = DEFAULT_CHUNK,
    window: Optional[int] = None,
    classifiers: Optional[list[Classifier]] = None,
    capacity: int = DEFAULT_CAPACITY,
    on_verdict: Optional[Callable[[Verdict], None]] = None,
    events_jsonl: Optional[str] = None,
) -> StreamingRun:
    """Run ``scenario`` with live verdict extraction.

    ``on_verdict`` fires for each verdict as its window closes (in
    stream order).  ``events_jsonl`` additionally records the raw
    event stream for :func:`replay_events`.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    if classifiers is None:
        classifiers = default_classifiers(scenario)
    if window is None:
        window = (
            scenario.defense.detector.window
            if scenario.defense.detector is not None
            else 64
        )
    # events-only bundle: no metrics registry, no windowed series (the
    # pipeline rebuilds windows from events), optional JSONL record
    obs = Observability(
        ObsConfig(
            metrics=False,
            window=0,
            queue_capacity=capacity,
            events_jsonl=events_jsonl,
        )
    )
    if events_jsonl is None and obs.export_sub is not None:
        # nobody reads the export stream: unhook it so every event is
        # queued (and retained) once, on the pipeline's subscription
        obs.bus.unsubscribe(obs.export_sub)
        obs.export_sub = None
    sim = Simulation(scenario, engine=engine, obs=obs)
    pipeline = DetectionPipeline(
        classifiers, window=window, capacity=capacity
    ).attach(obs)

    def pump() -> None:
        fresh = pipeline.pump()
        if on_verdict is not None:
            for verdict in fresh:
                on_verdict(verdict)

    completed = _drive(sim, chunk, pump)
    obs.finalize(sim)
    tail = pipeline.finish(up_to=sim.network.cycle)
    if on_verdict is not None:
        for verdict in tail:
            on_verdict(verdict)
    if events_jsonl is not None:
        obs.export()
    return StreamingRun(
        result=sim.result(completed),
        verdicts=list(pipeline.verdicts),
        frames=list(pipeline.frames),
        dropped=pipeline.dropped,
    )


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
    pipeline.ingest(events)
    pipeline.finish(up_to)
    return pipeline
