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

from repro._lazy import facade

_EXPORTS = {
    "Classifier": "classify",
    "DetectionPipeline": "pipeline",
    "FeatureExtractor": "features",
    "FeatureFrame": "features",
    "LocalizerClassifier": "classify",
    "StreamingRun": "pipeline",
    "Verdict": "classify",
    "ZScoreClassifier": "classify",
    "default_classifiers": "classify",
    "replay_events": "pipeline",
    "run_streaming": "pipeline",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = facade(__name__, _EXPORTS)
