"""TopologyLocalizer: footprint fusion, clustering, non-maximum
suppression, and the stream/version contract — driven by synthetic
DetectionEvents so every geometry is exact."""

import dataclasses

import pytest

from repro.noc.config import NoCConfig
from repro.noc.topology import Direction
from repro.resilience.detect import DetectionEvent
from repro.resilience.localize import (
    AttackerEstimate,
    LocalizeConfig,
    TopologyLocalizer,
)

CFG = NoCConfig(mesh_width=8, mesh_height=8)
EAST = Direction.EAST
WEST = Direction.WEST


def link_flag(cycle, link, z):
    return DetectionEvent(cycle, "suspect_link", link=link, z=z)


def router_flag(cycle, router, z):
    return DetectionEvent(cycle, "suspect_router", router=router, z=z)


def make(cfg=CFG, **knobs):
    return TopologyLocalizer(cfg, LocalizeConfig(**knobs))


class TestConfigValidation:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            LocalizeConfig(cluster_radius=-1)

    def test_rejects_negative_min_score(self):
        with pytest.raises(ValueError):
            LocalizeConfig(min_score=-0.5)

    def test_rejects_zero_attacker_cap(self):
        with pytest.raises(ValueError):
            LocalizeConfig(max_attackers=0)


class TestFootprintIngestion:
    def test_repeated_flag_keeps_strongest_z(self):
        loc = make(min_score=0.0)
        loc.ingest(link_flag(100, (9, EAST), z=4.0))
        loc.ingest(link_flag(200, (9, EAST), z=9.0))
        loc.ingest(link_flag(300, (9, EAST), z=2.0))  # weaker: dropped
        assert loc.flags_fused == 2
        assert len(loc._footprints) == 1
        assert loc._footprints[("link", (9, EAST))].z == 9.0

    def test_unknown_kind_ignored(self):
        loc = make(min_score=0.0)
        loc.ingest(DetectionEvent(50, "heartbeat"))
        assert loc.flags_fused == 0
        assert loc.estimates() == ()

    def test_router_only_footprints_place_nothing(self):
        # back-pressure symptoms alone name no channel
        loc = make(min_score=0.0)
        loc.ingest(router_flag(100, 9, z=20.0))
        loc.ingest(router_flag(100, 10, z=20.0))
        assert loc.estimates() == ()
        assert loc.summary()["footprints"] == 2


class TestClusteringAndScoring:
    def test_single_flag_places_the_flagged_link(self):
        loc = make(min_score=5.0)
        loc.ingest(link_flag(100, (9, EAST), z=8.0))
        (est,) = loc.estimates()
        assert est == AttackerEstimate(
            link=(9, EAST), router=9, score=8.0, cluster_size=1, cycle=100
        )

    def test_min_score_gates_the_cluster(self):
        loc = make(min_score=10.0)
        loc.ingest(link_flag(100, (9, EAST), z=6.0))
        assert loc.estimates() == ()
        loc.ingest(link_flag(164, (10, EAST), z=6.0))  # mass now 12
        assert len(loc.estimates()) == 1

    def test_neighboring_footprints_sharpen_the_strongest(self):
        # attacker at (9,E); upstream spill on (8,E) and congestion at
        # router 10 — one cluster, one estimate, at the true link
        loc = make(min_score=5.0)
        loc.ingest(link_flag(100, (9, EAST), z=12.0))
        loc.ingest(link_flag(110, (8, EAST), z=3.0))
        loc.ingest(router_flag(120, 10, z=4.0))
        (est,) = loc.estimates()
        assert est.link == (9, EAST)
        assert est.cluster_size == 3
        # explains all three footprints at distance <= 1
        assert est.score > 12.0

    def test_distant_clusters_stay_separate(self):
        loc = make(min_score=5.0, cluster_radius=2)
        loc.ingest(link_flag(100, (0, EAST), z=8.0))
        loc.ingest(link_flag(100, (54, EAST), z=8.0))
        links = {e.link for e in loc.estimates()}
        assert links == {(0, EAST), (54, EAST)}

    def test_clustering_wraps_on_the_torus(self):
        # routers 0 and 7 are 7 hops apart on the mesh, 1 on the torus
        torus = dataclasses.replace(CFG, topology="torus")
        for cfg, expected_clusters in ((CFG, 2), (torus, 1)):
            loc = make(cfg=cfg, min_score=0.0, cluster_radius=2)
            loc.ingest(link_flag(100, (0, EAST), z=8.0))
            loc.ingest(link_flag(100, (7, WEST), z=8.0))
            sizes = sorted(e.cluster_size for e in loc.estimates())
            if expected_clusters == 1:
                assert all(size == 2 for size in sizes)
            else:
                assert sizes == [1, 1]


class TestNonMaximumSuppression:
    def test_false_flag_adjacent_to_attacker_merges_into_it(self):
        loc = make(min_score=5.0, cluster_radius=2)
        loc.ingest(link_flag(100, (9, EAST), z=12.0))
        loc.ingest(link_flag(100, (10, EAST), z=2.0))  # spillover
        (est,) = loc.estimates()
        assert est.link == (9, EAST)

    def test_bridged_cluster_still_yields_one_estimate_per_attacker(self):
        # two true attackers 4 hops apart, chained into ONE cluster by
        # a congested router midway — NMS must split them back out
        loc = make(min_score=5.0, cluster_radius=2)
        loc.ingest(link_flag(100, (8, EAST), z=12.0))
        loc.ingest(router_flag(100, 10, z=3.0))  # the bridge
        loc.ingest(link_flag(100, (12, EAST), z=12.0))
        estimates = loc.estimates()
        assert {e.link for e in estimates} == {(8, EAST), (12, EAST)}
        assert all(e.cluster_size == 3 for e in estimates)

    def test_tie_breaks_on_smallest_link_key(self):
        loc = make(min_score=0.0, cluster_radius=0)
        # equal z, far apart, radius 0: both survive — but make them
        # adjacent with radius 1 and the smaller key must win
        loc = make(min_score=0.0, cluster_radius=1)
        loc.ingest(link_flag(100, (9, EAST), z=8.0))
        loc.ingest(link_flag(100, (10, EAST), z=8.0))
        kept = {e.link for e in loc.estimates()}
        assert (9, EAST) in kept
        assert (10, EAST) not in kept

    def test_max_attackers_keeps_the_strongest(self):
        loc = make(min_score=0.0, cluster_radius=0, max_attackers=2)
        for router, z in ((0, 3.0), (18, 9.0), (36, 6.0), (54, 12.0)):
            loc.ingest(link_flag(100, (router, EAST), z=z))
        links = [e.link for e in loc.estimates()]
        assert links == [(54, EAST), (18, EAST)]


class TestStreamContract:
    def test_version_bumps_only_on_placement_changes(self):
        loc = make(min_score=5.0)
        assert loc.version == 0
        loc.ingest(link_flag(100, (9, EAST), z=8.0))
        assert loc.version == 1
        # same placement, higher score: silent refinement
        loc.ingest(link_flag(200, (9, EAST), z=11.0))
        assert loc.version == 1
        loc.ingest(link_flag(300, (54, EAST), z=8.0))
        assert loc.version == 2

    def test_events_mirror_fresh_estimates(self):
        loc = make(min_score=5.0)
        seen = []
        loc.event_hooks.append(seen.append)
        loc.ingest(link_flag(100, (9, EAST), z=8.0))
        loc.ingest(link_flag(150, (9, EAST), z=9.0))
        assert [e.link for e in loc.events] == [(9, EAST)]
        assert seen == loc.events
        assert seen[0].kind == "estimate"
        assert "cluster=1" in seen[0].detail

    def test_detach_unsubscribes(self):
        from repro.noc.network import Network
        from repro.resilience.detect import (
            DetectConfig,
            TrafficStatsDetector,
        )
        from repro.resilience.watchdog import RetransWatchdog, WatchdogConfig

        net = Network(CFG)
        wd = RetransWatchdog(WatchdogConfig()).attach(net)
        det = TrafficStatsDetector(DetectConfig()).attach(net, wd)
        loc = TopologyLocalizer(CFG).attach(det)
        assert loc.ingest in det.event_hooks
        loc.detach()
        assert loc.ingest not in det.event_hooks
        loc.detach()  # idempotent

    def test_summary_shape(self):
        loc = make(min_score=5.0)
        loc.ingest(link_flag(100, (9, EAST), z=8.0))
        summary = loc.summary()
        assert summary["flags_fused"] == 1
        assert summary["footprints"] == 1
        (est,) = summary["estimates"]
        assert est == {
            "link": "9->EAST",
            "router": 9,
            "score": 8.0,
            "cluster_size": 1,
            "cycle": 100,
        }
