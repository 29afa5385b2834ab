"""Fold the obs event stream into cycle-windowed feature frames.

The post-run collectors scrape component state; the streaming path has
only the bus.  :class:`FeatureExtractor` rebuilds the detector's view
from events alone: every ``window`` cycles of one run become a
:class:`FeatureFrame` holding per-link retransmission/corruption/
escalation counts, per-core injection/delivery counts, chip-wide
totals and the window's detector flags — exactly the series the
z-score rules in :mod:`repro.serve.classify` consume.

Determinism contract: a window closes when an event at or past its end
arrives (or at :meth:`FeatureExtractor.flush`), never on wall-clock —
so the frame sequence is a pure function of the event stream, and the
event stream is byte-identical across engines.  Feed events one at a
time as they are published or as a recorded batch; the frames do not
change.

The final *partial* window is discarded by :meth:`flush`, mirroring
the live :class:`~repro.resilience.detect.TrafficStatsDetector`, which
only observes complete windows at boundary cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.events import Event


@dataclass
class FeatureFrame:
    """One run's feature vector over the window ``[start, start+window)``."""

    run: str
    start: int
    window: int
    #: link label -> {"nacks": n, "corrupts": n, "escalates": n}
    links: dict = field(default_factory=dict)
    #: core id -> {"injects": n, "delivers": n}
    cores: dict = field(default_factory=dict)
    #: flits injected / delivered inside this window
    injects: int = 0
    delivers: int = 0
    #: cumulative injected - delivered at window close (back-pressure
    #: proxy: flits the fabric is holding)
    inflight: int = 0
    #: detector flags raised inside the window (``detect`` payloads)
    detects: list = field(default_factory=list)
    #: localization estimates raised inside the window
    localizes: list = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.start + self.window

    def link(self, label: str) -> dict:
        entry = self.links.get(label)
        if entry is None:
            entry = {"nacks": 0, "corrupts": 0, "escalates": 0}
            self.links[label] = entry
        return entry

    def core(self, core: int) -> dict:
        entry = self.cores.get(core)
        if entry is None:
            entry = {"injects": 0, "delivers": 0}
            self.cores[core] = entry
        return entry

    def to_dict(self) -> dict:
        """Canonical JSON form (sorted keys, so equal frames serialize
        byte-identically regardless of fold order)."""
        return {
            "run": self.run,
            "start": self.start,
            "window": self.window,
            "links": {
                label: dict(self.links[label])
                for label in sorted(self.links)
            },
            "cores": {
                str(core): dict(self.cores[core])
                for core in sorted(self.cores)
            },
            "injects": self.injects,
            "delivers": self.delivers,
            "inflight": self.inflight,
            "detects": [dict(d) for d in self.detects],
            "localizes": [dict(d) for d in self.localizes],
        }


class _RunState:
    """Per-run accumulation: the open frame plus cumulative totals."""

    __slots__ = ("frame", "injected_total", "delivered_total")

    def __init__(self, frame: FeatureFrame):
        self.frame = frame
        self.injected_total = 0
        self.delivered_total = 0


class FeatureExtractor:
    """Event stream -> ordered :class:`FeatureFrame` sequence.

    One extractor serves every run on the bus (an experiment's
    observability spans several scenarios); frames are windowed and
    closed independently per run.  Events within one run must arrive
    in non-decreasing cycle order — which the bus guarantees, since
    hooks emit as the simulation steps.
    """

    def __init__(self, window: int = 64):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._runs: dict[str, _RunState] = {}
        #: frames closed so far
        self.frames_closed = 0
        #: events folded (ignored kinds excluded)
        self.events_folded = 0

    # -- feeding -----------------------------------------------------------
    def add(self, event: Event) -> list[FeatureFrame]:
        """Fold one event; returns the frames it closed, in close
        order (most events close none)."""
        state = self._runs.get(event.run)
        if state is None:
            state = _RunState(FeatureFrame(event.run, 0, self.window))
            self._runs[event.run] = state
        # close every window the event's cycle has moved past —
        # including empty ones, so a channel's baseline sees the same
        # zero windows the live detector does
        closed = []
        while event.cycle >= state.frame.end:
            closed.append(self._close(state))
        self._fold(state, event)
        return closed

    def feed(self, events: Iterable[Event]) -> list[FeatureFrame]:
        """Fold events; returns the frames they closed, in close order."""
        closed: list[FeatureFrame] = []
        for event in events:
            closed.extend(self.add(event))
        return closed

    def flush(self, up_to: Optional[int] = None) -> list[FeatureFrame]:
        """Close every remaining *complete* window.

        ``up_to`` is the final simulated cycle: windows wholly before
        it close (empty or not); the trailing partial window is
        discarded, exactly as the live detector never observes a
        window the clock did not complete.  With ``up_to=None`` only
        windows already ended by a folded event close.
        """
        closed: list[FeatureFrame] = []
        for run in sorted(self._runs):
            state = self._runs[run]
            if up_to is not None:
                while state.frame.end <= up_to:
                    closed.append(self._close(state))
        return closed

    # -- internals ---------------------------------------------------------
    def _close(self, state: _RunState) -> FeatureFrame:
        frame = state.frame
        frame.inflight = state.injected_total - state.delivered_total
        state.frame = FeatureFrame(frame.run, frame.end, self.window)
        self.frames_closed += 1
        return frame

    def _fold(self, state: _RunState, event: Event) -> None:
        frame = state.frame
        kind = event.kind
        data = event.data
        if kind == "inject":
            frame.injects += 1
            state.injected_total += 1
            core = data.get("core")
            if core is not None:
                frame.core(core)["injects"] += 1
        elif kind == "deliver":
            frame.delivers += 1
            state.delivered_total += 1
            core = data.get("core")
            if core is not None:
                frame.core(core)["delivers"] += 1
        elif kind == "retransmit":
            link = data.get("link")
            if link is not None:
                frame.link(link)["nacks"] += 1
        elif kind == "corrupt":
            link = data.get("link")
            if link is not None:
                frame.link(link)["corrupts"] += 1
        elif kind == "escalate":
            link = data.get("link")
            if link is not None:
                frame.link(link)["escalates"] += 1
        elif kind == "detect":
            frame.detects.append({"cycle": event.cycle, **data})
        elif kind == "localize":
            frame.localizes.append({"cycle": event.cycle, **data})
        else:
            return  # verdict/obfuscate/contain/... : not featurized
        self.events_folded += 1
