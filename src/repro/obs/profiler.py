"""Wall-clock attribution to simulator phases.

``Network.step`` is one tight loop over a dozen phases (route compute,
VC allocation, switch/link traversal, ECC receive, defense monitors,
sampling...).  Knowing *which* phase the wall-clock goes to is the
prerequisite for every perf PR, so the profiler is wired directly into
the cycle loop: when :attr:`Network.profiler
<repro.noc.network.Network.profiler>` is set, each phase costs one
``perf_counter`` read; when it is ``None`` (the default) each phase
costs a single ``is not None`` test.

Activation is ambient so forked runner workers inherit it: the runner's
``--profile`` flag sets :data:`ENV_FLAG` and every simulation built in
that process attaches :func:`current`'s profiler.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Optional

ENV_FLAG = "REPRO_PROFILE"

#: canonical phase order for reports (phases outside this list sort last)
PHASE_ORDER = (
    "traffic",
    "credit",
    "ack",
    "ecc",
    "eject",
    "traverse",
    "arbitrate",
    "route",
    "inject",
    "defense",
    # monitor hooks that declare ``profile_phase`` get their own lap
    # (Network.step); the detector's localizer moves its share out of
    # "detect" via reattribute()
    "detect",
    "localize",
    "sample",
    "active",
    # event engine only: skip decisions + clock teleports (sim/sched.py)
    "wheel",
)


class PhaseProfiler:
    """Accumulates seconds and visit counts per named phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def lap(self, phase: str, t0: float) -> float:
        """Charge ``now - t0`` to ``phase``; returns ``now`` so the
        cycle loop can chain laps without extra clock reads."""
        now = perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + (now - t0)
        self.calls[phase] = self.calls.get(phase, 0) + 1
        return now

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def reattribute(self, seconds: float, target: str, source: str) -> None:
        """Charge ``seconds`` to ``target``, debiting ``source``.

        For work nested inside another phase's lap (the localizer runs
        inside the detector's monitor slot): the enclosing lap will
        charge the whole interval to ``source`` later, so the debit
        here nets the nested share out without double-counting the
        total.
        """
        self.seconds[target] = self.seconds.get(target, 0.0) + seconds
        self.calls[target] = self.calls.get(target, 0) + 1
        self.seconds[source] = self.seconds.get(source, 0.0) - seconds

    def total(self) -> float:
        return sum(self.seconds.values())

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def _sorted_phases(self) -> list[str]:
        order = {name: i for i, name in enumerate(PHASE_ORDER)}
        return sorted(
            self.seconds,
            key=lambda name: (order.get(name, len(order)), name),
        )

    def to_jsonable(self) -> dict:
        return {
            "total_s": self.total(),
            "phases": {
                name: {
                    "seconds": self.seconds[name],
                    "calls": self.calls.get(name, 0),
                }
                for name in self._sorted_phases()
            },
        }

    def report(self) -> str:
        """Human-readable phase table, hottest phases called out by
        share of total."""
        total = self.total()
        if not total:
            return "profile: no phases recorded"
        lines = [f"profile: {total:.3f}s across simulator phases"]
        ranked = sorted(
            self.seconds.items(), key=lambda kv: kv[1], reverse=True
        )
        for name, seconds in ranked:
            share = 100.0 * seconds / total
            lines.append(
                f"  {name:10s} {seconds:8.3f}s  {share:5.1f}%  "
                f"({self.calls.get(name, 0)} laps)"
            )
        return "\n".join(lines)


_ACTIVE: Optional[PhaseProfiler] = None


def enable() -> PhaseProfiler:
    """Arm phase profiling process-wide; simulations built afterwards
    attach the returned profiler to their network."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = PhaseProfiler()
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def current() -> Optional[PhaseProfiler]:
    """The process-wide profiler, creating it when :data:`ENV_FLAG` is
    set (forked runner workers inherit the flag, not the object)."""
    if _ACTIVE is None and os.environ.get(ENV_FLAG):
        return enable()
    return _ACTIVE
