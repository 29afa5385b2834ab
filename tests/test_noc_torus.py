"""Topology layer beyond the plain mesh: torus wrap, dateline VC
discipline, clear-arc containment routing, and express channels."""

import dataclasses
import pickle
import random

import pytest

from repro.noc.adaptive import (
    AdaptiveRouting,
    avoid_routing,
    turn_model_connected,
    west_first_candidates,
)
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.noc.network import Network
from repro.noc.routing import xy_route
from repro.noc.topology import (
    BASE_DIRECTIONS,
    Direction,
    arc_sources,
    all_links,
    base_direction,
    dateline_high,
    is_express,
    link_endpoints,
    links_on_xy_path,
    neighbor,
    step_delta,
    topology_spec,
)
from repro.noc.torus import TorusArcRouting, torus_connected
from tests.test_resilience_containment import walk

TORUS = dataclasses.replace(PAPER_CONFIG, topology="torus")
TORUS8 = NoCConfig(mesh_width=8, mesh_height=8, topology="torus")
EXPRESS = dataclasses.replace(
    PAPER_CONFIG, mesh_width=6, mesh_height=6, express_interval=2
)


class TestConfigValidation:
    def test_torus_requires_ring_dimensions(self):
        with pytest.raises(ValueError):
            NoCConfig(mesh_width=2, mesh_height=4, topology="torus")

    def test_torus_requires_even_vcs(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TORUS, num_vcs=3)

    def test_torus_requires_xy_routing(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TORUS, routing="west-first")

    def test_torus_rejects_express(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TORUS, express_interval=2)

    def test_express_interval_bounds(self):
        for bad in (1, 6, 9):
            with pytest.raises(ValueError):
                dataclasses.replace(EXPRESS, express_interval=bad)

    def test_express_rejects_odd_even(self):
        with pytest.raises(ValueError):
            dataclasses.replace(EXPRESS, routing="odd-even")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(PAPER_CONFIG, topology="hypercube")

    def test_topology_spec_kinds(self):
        assert topology_spec(PAPER_CONFIG).kind == "mesh"
        assert topology_spec(TORUS).kind == "torus"
        assert topology_spec(TORUS).wraps
        assert topology_spec(EXPRESS).kind == "express"
        assert not topology_spec(EXPRESS).wraps


class TestTorusTopology:
    def test_wrap_neighbors(self):
        # east edge wraps to the west edge of the same row
        assert neighbor(TORUS, 3, Direction.EAST) == 0
        assert neighbor(TORUS, 0, Direction.WEST) == 3
        # top wraps to bottom of the same column
        assert neighbor(TORUS, 13, Direction.NORTH) == 1
        assert neighbor(TORUS, 1, Direction.SOUTH) == 13

    def test_every_router_has_four_links(self):
        links = all_links(TORUS)
        assert len(links) == 4 * TORUS.num_routers
        for router in range(TORUS.num_routers):
            assert sum(1 for key in links if key[0] == router) == 4

    def test_hop_distance_uses_short_arc(self):
        # (0,0) -> (3,0): one wrap hop west, not three east
        assert TORUS.hop_distance(0, 3) == 1
        assert TORUS8.hop_distance(0, 7) == 1
        assert TORUS8.hop_distance(0, 36) == 8  # (0,0)->(4,4), 4+4

    def test_xy_route_wraps_through_the_short_arc(self):
        # 0 -> 3 on a 4-wide torus: WEST through the wrap link
        assert xy_route(TORUS, 0, 3) is Direction.WEST
        path = links_on_xy_path(TORUS, 0, 3)
        assert path == [(0, Direction.WEST)]

    def test_xy_path_lengths_match_hop_distance(self):
        for src in range(TORUS.num_routers):
            for dst in range(TORUS.num_routers):
                path = links_on_xy_path(TORUS, src, dst)
                assert len(path) == TORUS.hop_distance(src, dst)


class TestDateline:
    def test_mesh_is_never_high(self):
        for direction in BASE_DIRECTIONS:
            assert not dateline_high(PAPER_CONFIG, 3, 0, direction)

    def test_east_high_at_wrap_and_after(self):
        # source (1,0) heading east: low until the wrap column
        assert not dateline_high(TORUS8, 1, 1, Direction.EAST)
        assert not dateline_high(TORUS8, 5, 1, Direction.EAST)
        # allocating the wrap hop itself is high
        assert dateline_high(TORUS8, 7, 1, Direction.EAST)
        # wrapped positions sit below the source column: still high
        assert dateline_high(TORUS8, 0, 1, Direction.EAST)

    def test_west_mirrors_east(self):
        assert not dateline_high(TORUS8, 5, 6, Direction.WEST)
        assert dateline_high(TORUS8, 0, 6, Direction.WEST)  # wrap hop
        assert dateline_high(TORUS8, 7, 6, Direction.WEST)  # wrapped

    def test_arc_crosses_wrap_at_most_once(self):
        # every xy path flips low->high at most once per dimension and
        # never flips back — the acyclicity hinge of the discipline
        for src in range(TORUS8.num_routers):
            for dst in range(TORUS8.num_routers):
                cur = src
                seen_high = {Direction.EAST: False, Direction.WEST: False,
                             Direction.NORTH: False, Direction.SOUTH: False}
                for router, direction in links_on_xy_path(TORUS8, src, dst):
                    high = dateline_high(TORUS8, router, src, direction)
                    if seen_high[direction]:
                        assert high, "dateline class flipped high->low"
                    seen_high[direction] = high
                    cur = neighbor(TORUS8, router, direction)
                assert cur == dst


class TestTorusArcRouting:
    def test_requires_torus(self):
        with pytest.raises(ValueError):
            TorusArcRouting(PAPER_CONFIG)

    def test_degenerates_to_wrap_xy_with_no_avoid(self):
        routing = TorusArcRouting(TORUS8)
        for src in range(TORUS8.num_routers):
            for dst in range(TORUS8.num_routers):
                if src != dst:
                    assert routing.route(src, dst, src) is xy_route(
                        TORUS8, src, dst
                    )

    def test_blocked_short_arc_takes_the_long_arc(self):
        # 0 -> 2 eastward needs (0,E),(1,E); block (1,E): go west
        routing = TorusArcRouting(TORUS8, avoid=[(1, Direction.EAST)])
        assert routing.route(0, 2, 0) is Direction.WEST
        links = walk(routing, 0, 2)
        assert (1, Direction.EAST) not in links

    def test_both_arcs_blocked_drains_into_short_arc(self):
        routing = TorusArcRouting(
            TORUS8,
            avoid=[(0, Direction.EAST), (7, Direction.WEST)],
        )
        # row 0: both x-arcs 0->1 are cut; the short arc is the drain
        assert routing.route(0, 1, 0) is Direction.EAST

    def test_avoided_links_never_crossed_when_admitted(self):
        avoid = frozenset(
            [(9, Direction.EAST), (27, Direction.EAST),
             (45, Direction.NORTH)]
        )
        assert torus_connected(TORUS8, avoid)
        routing = TorusArcRouting(TORUS8, avoid)
        for src in range(0, TORUS8.num_routers, 3):
            for dst in range(TORUS8.num_routers):
                if src != dst:
                    walk(routing, src, dst)

    def test_pickles(self):
        routing = TorusArcRouting(TORUS8, avoid=[(1, Direction.EAST)])
        clone = pickle.loads(pickle.dumps(routing))
        assert clone.avoid == routing.avoid
        assert clone.route(0, 2, 0) is routing.route(0, 2, 0)


def torus_connected_by_pairs(cfg, avoid):
    """Reference: clear-arc reachability walked over every (src, dst)
    pair, as torus_connected computed it before it checked rings."""
    avoid = frozenset(avoid)
    if not avoid:
        return True
    width, height = cfg.mesh_width, cfg.mesh_height
    east_blocked, west_blocked = {}, {}
    north_blocked, south_blocked = {}, {}
    for router, direction in avoid:
        x, y = cfg.router_xy(router)
        if direction is Direction.EAST:
            east_blocked.setdefault(y, set()).add(x)
        elif direction is Direction.WEST:
            west_blocked.setdefault(y, set()).add(x)
        elif direction is Direction.NORTH:
            north_blocked.setdefault(x, set()).add(y)
        elif direction is Direction.SOUTH:
            south_blocked.setdefault(x, set()).add(y)

    def arc_clear(frm, to, size, blocked, positive):
        return not any(
            p in blocked for p in arc_sources(frm, to, size, positive)
        )

    for src in range(cfg.num_routers):
        sx, sy = cfg.router_xy(src)
        for dst in range(cfg.num_routers):
            if src == dst:
                continue
            dx, dy = cfg.router_xy(dst)
            if sx != dx and not (
                arc_clear(sx, dx, width, east_blocked.get(sy, ()), True)
                or arc_clear(sx, dx, width, west_blocked.get(sy, ()), False)
            ):
                return False
            if sy != dy and not (
                arc_clear(sy, dy, height, north_blocked.get(dx, ()), True)
                or arc_clear(sy, dy, height, south_blocked.get(dx, ()), False)
            ):
                return False
    return True


class TestTorusConnected:
    def test_empty_avoid_is_connected(self):
        assert torus_connected(TORUS8, ())

    def test_single_link_keeps_the_other_arc(self):
        assert torus_connected(TORUS8, [(0, Direction.EAST)])

    def test_severed_row_disconnects(self):
        # cut both arcs between (0,0) and (1,0): the row pair is stuck
        avoid = [(0, Direction.EAST), (7, Direction.WEST)]
        assert not torus_connected(TORUS8, avoid)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (5, 3), (8, 8)])
    def test_ring_check_matches_all_pairs_walk(self, shape):
        width, height = shape
        cfg = NoCConfig(mesh_width=width, mesh_height=height, topology="torus")
        links = all_links(cfg)
        rng = random.Random(width * 100 + height)
        avoid_sets = [
            [],
            [(0, Direction.EAST), (0, Direction.WEST)],  # row cut
            [(0, Direction.NORTH), (0, Direction.SOUTH)],  # column cut
        ]
        avoid_sets += [
            rng.sample(links, rng.choice([1, 2, 3, 5, 8]))
            for _ in range(60)
        ]
        outcomes = set()
        for avoid in avoid_sets:
            expected = torus_connected_by_pairs(cfg, avoid)
            assert torus_connected(cfg, avoid) == expected, avoid
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_dispatched_through_turn_model_connected(self):
        assert turn_model_connected(TORUS8, "torus-arc",
                                    [(0, Direction.EAST)])
        assert not turn_model_connected(
            TORUS8, "torus-arc",
            [(0, Direction.EAST), (7, Direction.WEST)],
        )

    def test_avoid_routing_factory_dispatch(self):
        assert isinstance(
            avoid_routing(TORUS8, "torus-arc"), TorusArcRouting
        )
        assert isinstance(
            avoid_routing(PAPER_CONFIG, "west-first"), AdaptiveRouting
        )


class TestExpressChannels:
    def test_express_neighbors_span_k(self):
        assert neighbor(EXPRESS, 0, Direction.EXPRESS_EAST) == 2
        assert neighbor(EXPRESS, 0, Direction.EXPRESS_NORTH) == 12
        # no wrap, no partial span
        assert neighbor(EXPRESS, 5, Direction.EXPRESS_EAST) is None
        assert neighbor(EXPRESS, 4, Direction.EXPRESS_EAST) is None

    def test_express_absent_on_plain_mesh(self):
        for direction in Direction:
            if is_express(direction):
                assert neighbor(PAPER_CONFIG, 5, direction) is None

    def test_step_delta_scales_by_interval(self):
        assert step_delta(EXPRESS, Direction.EXPRESS_EAST) == (2, 0)
        assert step_delta(EXPRESS, Direction.EXPRESS_SOUTH) == (0, -2)
        assert step_delta(EXPRESS, Direction.EAST) == (1, 0)

    def test_base_direction_folds(self):
        assert base_direction(Direction.EXPRESS_WEST) is Direction.WEST
        assert base_direction(Direction.NORTH) is Direction.NORTH

    def test_hop_distance_uses_express_spans(self):
        # (0,0) -> (5,0): two express hops + one base = 3, not 5
        assert EXPRESS.hop_distance(0, 5) == 3
        assert EXPRESS.hop_distance(0, 4) == 2
        assert EXPRESS.hop_distance(0, 1) == 1

    def test_xy_route_prefers_express_until_remainder(self):
        assert xy_route(EXPRESS, 0, 5) is Direction.EXPRESS_EAST
        assert xy_route(EXPRESS, 2, 5) is Direction.EXPRESS_EAST
        assert xy_route(EXPRESS, 4, 5) is Direction.EAST

    def test_west_first_candidates_include_express(self):
        candidates = west_first_candidates(EXPRESS, 0, 5)
        assert candidates[0] is Direction.EXPRESS_EAST
        assert Direction.EAST in candidates
        # westbound must still go west first — express west included
        candidates = west_first_candidates(EXPRESS, 5, 0)
        assert Direction.EXPRESS_WEST in candidates

    def test_west_first_walks_with_avoided_express_link(self):
        avoid = frozenset([(0, Direction.EXPRESS_EAST),
                           (8, Direction.EAST)])
        assert turn_model_connected(EXPRESS, "west-first", avoid)
        routing = AdaptiveRouting(EXPRESS, "west-first", avoid)
        for src in range(0, EXPRESS.num_routers, 5):
            for dst in range(EXPRESS.num_routers):
                if src != dst:
                    walk(routing, src, dst)

    def test_no_net_zero_express_cycle(self):
        # the 180-degree ban is by base class: after a base NORTH hop,
        # EXPRESS_SOUTH is banned too (a N,N,EXPRESS_S loop has zero
        # displacement and would be a channel cycle)
        routing = AdaptiveRouting(EXPRESS, "west-first")
        states = routing.live_states(0)
        # folded successor states only ever carry base-class bans
        assert all(
            banned is None or banned in BASE_DIRECTIONS
            for _, banned in states
        )


class TestArcSources:
    def test_positive_and_negative(self):
        assert arc_sources(1, 3, 8, True) == [1, 2]
        assert arc_sources(1, 7, 8, False) == [1, 0]
        assert arc_sources(6, 1, 8, True) == [6, 7, 0]

    def test_excludes_destination(self):
        assert 3 not in arc_sources(0, 3, 8, True)

    def test_empty_when_already_there(self):
        assert arc_sources(2, 2, 8, True) == []


class TestTorusNetworkEndToEnd:
    def test_wrap_links_materialize(self):
        net = Network(TORUS)
        assert len(net.links) == 4 * TORUS.num_routers
        assert (3, Direction.EAST) in net.links
        assert link_endpoints(TORUS, (3, Direction.EAST)) == (3, 0)

    def test_traffic_drains_across_the_wrap(self):
        from repro.noc import Packet

        net = Network(TORUS)
        # 0 -> core of router 3: xy takes the single west wrap hop
        net.add_packet(Packet(pkt_id=1, src_core=0,
                              dst_core=3 * TORUS.concentration))
        net.run_until_drained(500)
        assert net.stats.packets_completed == 1
        loads = net.link_load()
        assert loads.get((0, Direction.WEST), 0) >= 1
