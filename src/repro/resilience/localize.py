"""Topology-aware attacker localization.

The traffic-statistics detector (:mod:`repro.resilience.detect`) flags
*symptoms*: per-link NACK z-scores and per-router back-pressure
z-scores.  A trojan's interference propagates — upstream links back up,
neighboring routers congest — so under a coordinated attack the flag
set is a cloud around each attacker, and containing every flagged
channel over-quarantines badly.

:class:`TopologyLocalizer` fuses those multi-point footprints over the
topology graph to *triangulate* the attackers:

1. every detector flag becomes a weighted footprint anchored at a
   router (a link's source router, or the flagged router itself);
2. footprints within ``cluster_radius`` graph hops of each other merge
   into clusters (union-find; :meth:`NoCConfig.hop_distance` is wrap-
   and express-aware, so clustering is correct on every topology);
3. within each cluster, every flagged link is a *candidate* attacker
   placement, scored by the footprint mass it explains —
   ``sum(z_f / (1 + dist(candidate, f)))`` over the cluster's
   footprints — i.e. candidates are ranked by how well the observed
   interference tree decays with propagation distance from them;
4. once a cluster's accumulated z-mass passes ``min_score`` its
   candidates become :class:`AttackerEstimate`\\ s under non-maximum
   suppression: strongest first (ties break on the smallest link
   key), each surviving candidate suppresses every weaker candidate
   within ``cluster_radius`` hops.  A coordinated attack whose
   congestion trees *bridge* — chaining two attackers' footprints
   into one merged cluster — therefore still yields one estimate per
   attacker, while a false flag adjacent to a real attacker merges
   into it.

**Accuracy contract**: the detector's z-scores are largest on the
attacked link itself (NACKs are generated *at* the trojan) and decay
with distance, so with footprints present every surviving candidate
is the attacked link or a link sharing an endpoint with it — within
one hop of the true placement.  The ``largescale`` experiment asserts
exactly this on a 16x16 mesh and an 8x8 torus under N=3 coordinated
trojans plus a flood.

The localizer subscribes to ``detector.event_hooks`` — it is not a
network monitor and needs no ``next_event_cycle`` hook.  Detection
events fire at identical cycles under the sweep and event engines (the
detector pins its window boundaries), and estimates re-derive
deterministically from the flag set, so instrumented reports stay
byte-identical across engines by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from repro.noc.config import NoCConfig
from repro.noc.topology import LinkKey, link_endpoints
from repro.obs import profiler as obs_profiler
from repro.resilience.detect import DetectionEvent, TrafficStatsDetector


@dataclass(frozen=True)
class LocalizeConfig:
    """Localization policy knobs (pure function of the flag stream)."""

    #: graph distance (hops) within which footprints merge into one
    #: cluster — one attacker's interference tree, not two attackers'
    cluster_radius: int = 2
    #: z-mass a cluster must accumulate before naming an attacker
    min_score: float = 8.0
    #: cap on simultaneously named attackers (largest scores win)
    max_attackers: int = 8

    def __post_init__(self) -> None:
        if self.cluster_radius < 0:
            raise ValueError("cluster_radius must be >= 0")
        if self.min_score < 0:
            raise ValueError("min_score must be >= 0")
        if self.max_attackers < 1:
            raise ValueError("max_attackers must be at least 1")


@dataclass(frozen=True)
class AttackerEstimate:
    """One localized attacker placement."""

    #: best-guess attacked link
    link: LinkKey
    #: its upstream (driving) router
    router: int
    #: footprint mass the placement explains
    score: float
    #: footprints fused into this estimate
    cluster_size: int
    #: cycle of the detection event that (last) updated the estimate
    cycle: int


@dataclass(frozen=True)
class LocalizeEvent:
    """Estimate stream entry (emitted when an estimate appears or its
    placement moves; score-only refinements are silent)."""

    cycle: int
    kind: str  # "estimate"
    link: LinkKey
    router: int
    score: float
    detail: str = ""


@dataclass
class _Footprint:
    """One detector flag, anchored on the topology graph."""

    anchor: int  # router the symptom is measured at
    z: float
    link: Optional[LinkKey] = None  # set for link flags


class TopologyLocalizer:
    """Fuses detector footprints into ranked attacker placements."""

    def __init__(
        self, cfg: NoCConfig, config: Optional[LocalizeConfig] = None
    ):
        self.cfg = cfg
        self.config = config or LocalizeConfig()
        self.detector: Optional[TrafficStatsDetector] = None
        #: flag key -> footprint ("link", key) / ("router", rid)
        self._footprints: dict[tuple, _Footprint] = {}
        #: current ranked estimates (score descending)
        self._estimates: tuple[AttackerEstimate, ...] = ()
        #: bumped whenever the estimate *placements* change
        self.version = 0
        self.events: list[LocalizeEvent] = []
        #: observers called with every LocalizeEvent
        self.event_hooks: list[Callable[[LocalizeEvent], None]] = []
        self.flags_fused = 0

    # -- wiring --------------------------------------------------------
    def attach(self, detector: TrafficStatsDetector) -> "TopologyLocalizer":
        """Subscribe to the detector's flag stream."""
        self.detector = detector
        detector.event_hooks.append(self.ingest)
        return self

    def detach(self) -> None:
        if self.detector is not None:
            try:
                self.detector.event_hooks.remove(self.ingest)
            except ValueError:
                pass
        self.detector = None

    # -- footprint ingestion -------------------------------------------
    def ingest(self, event: DetectionEvent) -> None:
        """Fuse one detector flag into the footprint set.

        The public entry point: ``attach`` wires it to a live
        detector's hook list, and the serving pipeline
        (:mod:`repro.serve.classify`) feeds it reconstructed events
        from the bus stream — both paths re-derive identical estimates
        from identical flag sequences.
        """
        if event.kind == "suspect_link" and event.link is not None:
            anchor = event.link[0]
            fp_key = ("link", event.link)
            footprint = _Footprint(anchor, event.z, event.link)
        elif event.kind == "suspect_router" and event.router is not None:
            fp_key = ("router", event.router)
            footprint = _Footprint(event.router, event.z)
        else:
            return
        previous = self._footprints.get(fp_key)
        if previous is not None:
            # keep the strongest observation of a repeated symptom
            if event.z <= previous.z:
                return
        self._footprints[fp_key] = footprint
        self.flags_fused += 1
        self._refresh(event.cycle)

    # -- clustering and scoring ----------------------------------------
    def _refresh(self, cycle: int) -> None:
        prof = obs_profiler.current()
        if prof is None or self.detector is None:
            # fed by the verdict pipeline, the localizer runs inside
            # whichever lap published the event: its time stays there
            self._refresh_inner(cycle)
            return
        # attached, it runs inside the detector's monitor lap: move
        # its share out of "detect"
        t0 = perf_counter()
        self._refresh_inner(cycle)
        prof.reattribute(perf_counter() - t0, "localize", "detect")

    def _refresh_inner(self, cycle: int) -> None:
        footprints = list(self._footprints.values())
        parent = list(range(len(footprints)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        radius = self.config.cluster_radius
        for i in range(len(footprints)):
            for j in range(i + 1, len(footprints)):
                if (
                    self.cfg.hop_distance(
                        footprints[i].anchor, footprints[j].anchor
                    )
                    <= radius
                ):
                    parent[find(i)] = find(j)
        clusters: dict[int, list[_Footprint]] = {}
        for i, footprint in enumerate(footprints):
            clusters.setdefault(find(i), []).append(footprint)

        estimates: list[AttackerEstimate] = []
        for members in clusters.values():
            mass = sum(f.z for f in members)
            if mass < self.config.min_score:
                continue
            candidates = sorted(
                {f.link for f in members if f.link is not None}
            )
            if not candidates:
                continue  # back-pressure only: no placeable channel
            scored = sorted(
                ((self._explained(link, members), link) for link in candidates),
                key=lambda pair: (-pair[0], pair[1]),
            )
            # non-maximum suppression: a weaker candidate within
            # cluster_radius of an accepted one is the same attacker's
            # interference, not a second attacker
            accepted: list[tuple[float, LinkKey]] = []
            for score, link in scored:
                if any(
                    self._link_distance(link, kept) <= radius
                    for _, kept in accepted
                ):
                    continue
                accepted.append((score, link))
            for score, link in accepted:
                estimates.append(
                    AttackerEstimate(
                        link=link,
                        router=link[0],
                        score=score,
                        cluster_size=len(members),
                        cycle=cycle,
                    )
                )
        estimates.sort(key=lambda e: (-e.score, e.link))
        del estimates[self.config.max_attackers:]
        previous_links = {e.link for e in self._estimates}
        self._estimates = tuple(estimates)
        fresh = [e for e in estimates if e.link not in previous_links]
        if fresh:
            self.version += 1
            for estimate in fresh:
                self._emit(
                    LocalizeEvent(
                        cycle,
                        "estimate",
                        estimate.link,
                        estimate.router,
                        estimate.score,
                        detail=(
                            f"cluster={estimate.cluster_size} "
                            f"score={estimate.score:.2f}"
                        ),
                    )
                )

    def _link_distance(self, a: LinkKey, b: LinkKey) -> int:
        """Graph distance between two links: closest endpoint pair."""
        a_src, a_dst = link_endpoints(self.cfg, a)
        b_src, b_dst = link_endpoints(self.cfg, b)
        return min(
            self.cfg.hop_distance(x, y)
            for x in (a_src, a_dst)
            for y in (b_src, b_dst)
        )

    def _explained(self, link: LinkKey, members: list[_Footprint]) -> float:
        """Footprint mass a placement at ``link`` explains, decayed by
        propagation distance over the topology graph."""
        src, dst = link_endpoints(self.cfg, link)
        total = 0.0
        for footprint in members:
            dist = min(
                self.cfg.hop_distance(src, footprint.anchor),
                self.cfg.hop_distance(dst, footprint.anchor),
            )
            total += footprint.z / (1.0 + dist)
        return total

    # -- reporting -----------------------------------------------------
    def _emit(self, event: LocalizeEvent) -> None:
        self.events.append(event)
        for hook in self.event_hooks:
            hook(event)

    def estimates(self) -> tuple[AttackerEstimate, ...]:
        """Current attacker placements, strongest first."""
        return self._estimates

    def summary(self) -> dict:
        """JSON-friendly localization report (experiments embed this)."""
        return {
            "flags_fused": self.flags_fused,
            "footprints": len(self._footprints),
            "estimates": [
                {
                    "link": f"{e.link[0]}->{e.link[1].name}",
                    "router": e.router,
                    "score": round(e.score, 3),
                    "cluster_size": e.cluster_size,
                    "cycle": e.cycle,
                }
                for e in self._estimates
            ],
        }
