"""Streaming detection: live verdicts from the obs event bus.

The observability layer (:mod:`repro.obs`) publishes a typed event
stream — injections, retransmissions, corruptions, escalations,
detector flags.  This package turns it into a verdict stream *while
the simulation runs*, an online view of the paper's per-receiver
detector, in three modules:

* :mod:`repro.serve.features` folds bus events into cycle-windowed
  per-link / per-router feature frames (the streaming generalization
  of :class:`repro.obs.series.WindowedSeries`);
* :mod:`repro.serve.classify` defines the pluggable
  :class:`~repro.serve.classify.Classifier` interface and ships two
  implementations: the z-score rules of
  :class:`~repro.resilience.detect.TrafficStatsDetector` re-applied to
  bus frames, and :class:`~repro.resilience.localize.TopologyLocalizer`
  wrapped as a frame consumer;
* :mod:`repro.serve.pipeline` installs a bus sink that folds each
  event into frames as it is published and runs the classifiers as
  each frame closes, inside the one run loop
  (:func:`run_streaming` calls :meth:`~repro.sim.engine.Simulation.run`),
  or feeds a recorded ``events.jsonl`` offline (:func:`replay_events`)
  — both produce byte-identical verdict streams.  The runner's
  ``verdict_stream`` (``--obs-dir``) rides the same sink, so it holds
  no events.

Everything here is a pure observer: a streamed run's
:class:`~repro.sim.engine.RunResult` is byte-identical to a bare run
of the same scenario.
"""

from repro.serve.classify import (
    Classifier,
    LocalizerClassifier,
    Verdict,
    ZScoreClassifier,
    default_classifiers,
)
from repro.serve.features import FeatureExtractor, FeatureFrame
from repro.serve.pipeline import (
    DetectionPipeline,
    StreamingRun,
    replay_events,
    run_streaming,
)

__all__ = [
    "Classifier",
    "DetectionPipeline",
    "FeatureExtractor",
    "FeatureFrame",
    "LocalizerClassifier",
    "StreamingRun",
    "Verdict",
    "ZScoreClassifier",
    "default_classifiers",
    "replay_events",
    "run_streaming",
]
