"""Online traffic-statistics detector: flag links before the ladder.

The retransmission watchdog is *reactive*: it waits for a link to
accumulate retries, drops and pinned entries before escalating, which
on a flood-assisted attack means the interference tree is already
saturating by the time containment starts.  Topology-aware DDoS work
(Weerasena et al.) shows the attack's statistical footprint — a step
change in per-link retransmission rate and per-router back-pressure —
is visible much earlier.  :class:`TrafficStatsDetector` watches exactly
those two series:

* **retransmission rate** — per-link NACK count deltas per window
  (``EccReceiver.nacks_sent``), the direct signature of a fault- or
  trojan-corrupted wire;
* **back-pressure** — per-router link-input occupancy sampled at
  window boundaries, the signature of the congestion tree a DoS builds
  upstream of the victim link.

Each channel keeps a running Welford baseline (mean/variance) built
from its *own* history; a window whose value sits more than
``z_threshold`` standard deviations above that baseline is anomalous,
and ``consecutive`` anomalous windows in a row flag the channel.  A
flagged link is fed to :meth:`RetransWatchdog.mark_suspect`, which
halves the ladder thresholds for that link — detection accelerates
containment, it never bypasses the ladder's own evidence.  Flagged
routers are reported as events only (back-pressure localizes a region,
not a culprit link).

**False-positive contract.**  Under a stationary benign load the
windowed series are approximately normal, so one window exceeds
``z_threshold = 4`` with probability ≈ 3.2e-5; two consecutive
independent exceedances ≈ 1e-9 per channel per window-pair.  Even at
224 links × thousands of windows, the expected number of false flags
per run is far below one — and the *cost* of one is bounded anyway: a
falsely-flagged link still has to climb the (shortened) ladder on real
evidence before condemnation, and probation reinstates a healthy link
after ``required_clean`` clean probes.  Anomalous windows are excluded
from baseline updates so an ongoing attack cannot poison its own
detection threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.noc.network import Network
from repro.noc.topology import LinkKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.watchdog import RetransWatchdog


@dataclass(frozen=True)
class DetectConfig:
    """Detector policy (deterministic; no randomness anywhere)."""

    #: statistics window in cycles
    window: int = 64
    #: standard deviations above baseline that make a window anomalous
    z_threshold: float = 4.0
    #: consecutive anomalous windows required to flag a channel
    consecutive: int = 2
    #: windows of unconditional baseline building before any flagging
    warmup_windows: int = 8

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.z_threshold <= 0.0:
            raise ValueError("z_threshold must be positive")
        if self.consecutive < 1:
            raise ValueError("consecutive must be at least 1")
        if self.warmup_windows < 2:
            raise ValueError("warmup needs at least 2 windows of baseline")


@dataclass(frozen=True)
class DetectionEvent:
    """One detector decision."""

    cycle: int
    #: "suspect_link" (fed to the watchdog) or "suspect_router"
    #: (back-pressure hotspot, reported only)
    kind: str
    link: Optional[LinkKey] = None
    router: Optional[int] = None
    z: float = 0.0
    detail: str = ""


class Welford:
    """Running mean/variance over one channel's windowed series.

    Public on purpose: the streaming classifier in
    :mod:`repro.serve.classify` applies the same baseline/streak rules
    to bus-derived feature frames, so the statistical core lives once.
    """

    __slots__ = ("count", "mean", "_m2", "streak", "last")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        #: consecutive anomalous windows so far
        self.streak = 0
        #: previous cumulative counter value (for delta channels)
        self.last = 0

    def admit(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def z_score(self, x: float) -> float:
        if self.count < 2:
            return 0.0
        var = self._m2 / (self.count - 1)
        sigma = math.sqrt(var)
        if sigma < 1e-9:
            # A flat baseline: any upward step is infinitely surprising
            # in z terms; report a large finite score instead.
            return 0.0 if x <= self.mean + 1e-9 else float("inf")
        return (x - self.mean) / sigma

    def reset_streak(self) -> None:
        self.streak = 0

    def observe(self, value: float, config: DetectConfig) -> bool:
        """Fold one window into this channel under ``config``'s policy;
        True when the anomaly streak just reached the flagging
        threshold.  Anomalous windows are excluded from the baseline so
        an ongoing attack cannot drag its own threshold up."""
        if self.count < config.warmup_windows:
            self.admit(value)
            return False
        z = self.z_score(value)
        if z <= config.z_threshold:
            self.reset_streak()
            self.admit(value)
            return False
        self.streak += 1
        return self.streak >= config.consecutive


class TrafficStatsDetector:
    """Window-boundary monitor feeding the watchdog ladder early."""

    #: profiler phase this monitor's on_cycle time is charged to
    profile_phase = "detect"

    def __init__(self, config: Optional[DetectConfig] = None):
        self.config = config or DetectConfig()
        self.network: Optional[Network] = None
        self.watchdog: Optional["RetransWatchdog"] = None
        self._links: dict[LinkKey, Welford] = {}
        self._routers: dict[int, Welford] = {}
        #: channels already flagged (reported once, then left to the
        #: watchdog / containment layers)
        self._flagged_links: set[LinkKey] = set()
        self._flagged_routers: set[int] = set()
        self.events: list[DetectionEvent] = []
        self.event_hooks: list[Callable[[DetectionEvent], None]] = []
        # -- counters -----------------------------------------------------
        self.windows_observed = 0
        self.anomalous_windows = 0

    # -- wiring ------------------------------------------------------------
    def attach(
        self,
        network: Network,
        watchdog: Optional["RetransWatchdog"] = None,
    ) -> "TrafficStatsDetector":
        """Register as a monitor.  Attach *before* the watchdog so a
        flag raised at a window boundary shortens that same cycle's
        ladder evaluation."""
        if self.network is not None:
            self.detach()
        self.network = network
        network.monitors.append(self)
        self.watchdog = watchdog
        self._links = {key: Welford() for key in network.links}
        self._routers = {
            rid: Welford() for rid in range(network.cfg.num_routers)
        }
        return self

    def detach(self) -> None:
        if self.network is not None:
            try:
                self.network.monitors.remove(self)
            except ValueError:
                pass
        self.network = None
        self.watchdog = None

    def next_event_cycle(self, network: Network, cycle: int):
        """Event-engine contract: statistics only change state at
        window boundaries, so those are the only cycles this monitor
        needs (same boundary arithmetic as the obs window collector)."""
        if cycle % self.config.window == 0:
            return cycle
        return (cycle // self.config.window + 1) * self.config.window

    # -- per-cycle hook -----------------------------------------------------
    def on_cycle(self, network: Network, cycle: int) -> None:
        if cycle == 0 or cycle % self.config.window != 0:
            return
        self.windows_observed += 1
        for key, stats in self._links.items():
            if key in self._flagged_links:
                continue
            receiver = network.receiver_of(key)
            value = float(receiver.nacks_sent - stats.last)
            stats.last = receiver.nacks_sent
            if self._observe(stats, value):
                self._flag_link(key, cycle, stats.z_score(value))
        for rid, stats in self._routers.items():
            if rid in self._flagged_routers:
                continue
            value = float(network.routers[rid].link_input_occupancy())
            if self._observe(stats, value):
                self._flag_router(rid, cycle, stats.z_score(value))

    def _observe(self, stats: Welford, value: float) -> bool:
        """Fold one window into a channel; True when its streak just
        reached the flagging threshold."""
        before = stats.streak
        flagged = stats.observe(value, self.config)
        if stats.streak > before:
            self.anomalous_windows += 1
        return flagged

    def _flag_link(self, key: LinkKey, cycle: int, z: float) -> None:
        # clamp: a flat-baseline step scores inf, which strict JSON
        # exporters cannot carry
        z = min(z, 1e9)
        self._flagged_links.add(key)
        if self.watchdog is not None:
            self.watchdog.mark_suspect(key)
        self._emit(
            DetectionEvent(
                cycle, "suspect_link", link=key, z=z,
                detail=f"retrans-rate z={z:.1f}",
            )
        )

    def _flag_router(self, rid: int, cycle: int, z: float) -> None:
        z = min(z, 1e9)
        self._flagged_routers.add(rid)
        self._emit(
            DetectionEvent(
                cycle, "suspect_router", router=rid, z=z,
                detail=f"back-pressure z={z:.1f}",
            )
        )

    def _emit(self, event: DetectionEvent) -> None:
        self.events.append(event)
        for hook in self.event_hooks:
            hook(event)

    # -- reporting -----------------------------------------------------------
    @property
    def suspect_links(self) -> frozenset[LinkKey]:
        return frozenset(self._flagged_links)

    @property
    def suspect_routers(self) -> frozenset[int]:
        return frozenset(self._flagged_routers)

    def summary(self) -> dict:
        """JSON-friendly detection report (experiments embed this)."""
        return {
            "windows_observed": self.windows_observed,
            "anomalous_windows": self.anomalous_windows,
            "suspect_links": [
                f"{key[0]}->{key[1].name}"
                for key in sorted(self._flagged_links)
            ],
            "suspect_routers": sorted(self._flagged_routers),
        }
