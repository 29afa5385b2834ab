"""Cycle-windowed time series.

:class:`WindowedSeries` rolls named channels up per cycle window,
keeping each channel's maximum: the per-router / per-link occupancy
channels the window collector feeds it form the spatial back-pressure
heatmap series of the paper's Figs. 11/12, the substrate
DL2Fence-style detector research consumes.
"""

from __future__ import annotations

from typing import Optional


class WindowedSeries:
    """Per-window maxima of named numeric channels.

    ``observe(cycle, channel, value)`` folds the value into the window
    containing ``cycle`` (windows are aligned: ``[0, w), [w, 2w), ...``).
    Observations must arrive in non-decreasing cycle order (the cycle
    loop guarantees that); a finished window is flushed to
    :attr:`points` as ``(window_start, {channel: max_value})``.
    """

    __slots__ = ("window", "points", "_start", "_acc")

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.points: list[tuple[int, dict]] = []
        self._start: Optional[int] = None
        self._acc: dict = {}

    def observe(self, cycle: int, channel: str, value) -> None:
        start = cycle - cycle % self.window
        if self._start is None:
            self._start = start
        elif start != self._start:
            if start < self._start:
                raise ValueError(
                    f"cycle {cycle} is before the open window "
                    f"[{self._start}, {self._start + self.window})"
                )
            self.flush()
            self._start = start
        acc = self._acc
        if channel not in acc or value > acc[channel]:
            acc[channel] = value

    def flush(self) -> None:
        """Close the open window (if any) into :attr:`points`."""
        if self._start is not None and self._acc:
            self.points.append((self._start, self._acc))
        self._start = None
        self._acc = {}

    # ------------------------------------------------------------------
    def channels(self, prefix: str = "") -> list[str]:
        seen: dict[str, None] = {}
        for _, values in self.points:
            for channel in values:
                if channel.startswith(prefix):
                    seen[channel] = None
        return sorted(seen)

    def channel(self, name: str) -> list[tuple[int, object]]:
        """(window_start, value) pairs for one channel (windows where
        the channel was silent are simply absent)."""
        return [
            (start, values[name])
            for start, values in self.points
            if name in values
        ]

    def to_jsonable(self) -> dict:
        """Deterministic plain-data form for the metrics manifest."""
        return {
            "window": self.window,
            "agg": "max",
            "points": [
                {
                    "start": start,
                    "values": {k: values[k] for k in sorted(values)},
                }
                for start, values in self.points
            ],
        }
