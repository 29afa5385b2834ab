"""Tests for the e2e obfuscation, TDM QoS and rerouting baselines."""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    E2EConfig,
    E2EObfuscator,
    TdmConfig,
    TdmPolicy,
    UnroutableError,
    apply_rerouting,
    updown_table,
)
from repro.core import TargetSpec, TaspTrojan
from repro.noc import Network, NoCConfig, Packet, PAPER_CONFIG
from repro.noc.topology import (
    OPPOSITE,
    Direction,
    all_links,
    neighbor,
    neighbors,
)

CFG = PAPER_CONFIG


def enabled_tasp(target):
    t = TaspTrojan(target)
    t.enable()
    return t


class TestE2EObfuscator:
    def test_roundtrip_restores_payload(self):
        net = Network(CFG, e2e=E2EObfuscator())
        payloads = {}
        net.ejection_hooks.append(
            lambda f, c, core: payloads.setdefault(f.seq, f.data)
        )
        net.add_packet(
            Packet(pkt_id=1, src_core=0, dst_core=63, mem_addr=0xABCD,
                   payload=[0x1234, 0x5678])
        )
        assert net.run_until_drained(500)
        assert payloads[1] == 0x1234
        assert payloads[2] == 0x5678

    def test_mem_field_scrambled_on_the_wire(self):
        ob = E2EObfuscator()
        flit = Packet(
            pkt_id=1, src_core=0, dst_core=63, mem_addr=0xDEAD
        ).build_flits(CFG)[0]
        ob.encode_flit(flit)
        assert flit.mem_addr != 0xDEAD
        ob.decode_flit(flit)
        assert flit.mem_addr == 0xDEAD

    def test_defeats_mem_targeting_trojan(self):
        net = Network(CFG, e2e=E2EObfuscator())
        tasp = enabled_tasp(TargetSpec.for_mem(0x100))
        net.attach_tamperer((0, Direction.EAST), tasp)
        for pid in range(10):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63, mem_addr=0x100)
            )
        assert net.run_until_drained(3000)
        assert net.stats.packets_completed == 10
        assert tasp.triggers == 0

    def test_fails_against_dest_targeting_trojan(self):
        # The paper's point: routing fields cannot be scrambled e2e, so a
        # dest-targeting TASP still triggers (Fig. 11a).
        net = Network(CFG, e2e=E2EObfuscator())
        tasp = enabled_tasp(TargetSpec.for_dest(15))
        net.attach_tamperer((0, Direction.EAST), tasp)
        for pid in range(10):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63, mem_addr=0x100)
            )
        drained = net.run_until_drained(3000, stall_limit=800)
        assert not drained
        assert tasp.triggers > 0
        assert net.stats.packets_completed == 0

    def test_header_routing_fields_stay_cleartext(self):
        ob = E2EObfuscator()
        flit = Packet(pkt_id=1, src_core=0, dst_core=63).build_flits(CFG)[0]
        before_dst = flit.dst_router
        ob.encode_flit(flit)
        assert flit.dst_router == before_dst
        from repro.noc.flit import unpack_header

        assert unpack_header(flit.data)["dst_router"] == 15

    def test_keys_differ_per_flow(self):
        ob = E2EObfuscator()
        assert ob._key(0, 15) != ob._key(0, 14)
        assert ob._key(0, 15) == ob._key(0, 15)


class TestTdmPolicy:
    def _policy(self):
        return TdmPolicy(TdmConfig(num_domains=2), num_vcs=4)

    def test_vc_partition(self):
        p = self._policy()
        assert list(p.vc_partition(0)) == [0, 1]
        assert list(p.vc_partition(1)) == [2, 3]

    def test_vc_for_and_domain_of_vc(self):
        p = self._policy()
        assert p.vc_for(1, 0) == 2
        assert p.domain_of_vc(3) == 1

    def test_cycle_ownership(self):
        p = self._policy()
        f0 = Packet(pkt_id=1, src_core=0, dst_core=4, vc_class=0,
                    domain=0).build_flits(CFG)[0]
        f1 = Packet(pkt_id=2, src_core=0, dst_core=4, vc_class=2,
                    domain=1).build_flits(CFG)[0]
        assert p.flit_may_use_link(f0, 0)
        assert not p.flit_may_use_link(f0, 1)
        assert p.flit_may_use_link(f1, 1)
        assert not p.flit_may_use_switch(f1, 0)

    def test_injection_outside_partition_rejected(self):
        p = self._policy()
        bad = Packet(pkt_id=1, src_core=0, dst_core=4, vc_class=0,
                     domain=1).build_flits(CFG)[0]
        with pytest.raises(ValueError):
            p.may_inject(bad, 0)

    def test_odd_vc_count_rejected(self):
        with pytest.raises(ValueError):
            TdmPolicy(TdmConfig(2), num_vcs=3)

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError):
            TdmConfig(num_domains=1)

    def test_tdm_network_delivers_both_domains(self):
        p = self._policy()
        net = Network(CFG, policy=p)
        for pid in range(8):
            domain = pid % 2
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63,
                       vc_class=p.vc_for(domain), domain=domain)
            )
        assert net.run_until_drained(3000)
        assert net.stats.packets_completed == 8

    def test_attack_contained_to_victim_domain(self):
        # TASP targets D1 traffic (vc 2/3); D0 keeps delivering.
        p = self._policy()
        net = Network(CFG, policy=p)
        tasp = enabled_tasp(TargetSpec.for_vc(2))
        net.attach_tamperer((0, Direction.EAST), tasp)
        # domains run on different cores of router 0 (apps are mapped to
        # disjoint cores), both crossing the infected link
        for pid in range(40):
            domain = pid % 2
            net.add_packet(
                Packet(pkt_id=pid, src_core=domain, dst_core=63,
                       vc_class=p.vc_for(domain), domain=domain,
                       created_cycle=0)
            )
        net.run(4000)
        d0_done = sum(
            1 for pid, r in net.stats.packets.items()
            if pid % 2 == 0 and r.complete
        )
        d1_done = sum(
            1 for pid, r in net.stats.packets.items()
            if pid % 2 == 1 and r.complete
        )
        assert d0_done == 20   # clean domain unaffected
        assert d1_done == 0    # victim domain starved
        assert tasp.triggers > 0


class TestUpDownRouting:
    def test_no_failures_all_pairs_routable(self):
        table = updown_table(CFG, [])
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    path = table.path(src, dst)
                    assert path[0] == src and path[-1] == dst

    def test_paths_avoid_disabled_links(self):
        disabled = [(0, Direction.EAST), (1, Direction.EAST)]
        table = updown_table(CFG, disabled)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path = table.path(src, dst)
                hops = list(zip(path, path[1:]))
                for a, b in hops:
                    for key in disabled:
                        from repro.noc.topology import link_endpoints

                        assert (a, b) != link_endpoints(CFG, key)

    def test_updown_turn_restriction_holds(self):
        # No path may go down then up (deadlock freedom invariant).
        from repro.baselines.reroute import _bfs_levels, _is_up_move

        disabled = {(5, Direction.NORTH)}
        levels = _bfs_levels(CFG, set(disabled))
        table = updown_table(CFG, disabled)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                path = table.path(src, dst)
                went_down = False
                for a, b in zip(path, path[1:]):
                    up = _is_up_move(levels, a, b)
                    assert not (went_down and up), (
                        f"down->up turn on {path}"
                    )
                    if not up:
                        went_down = True

    def test_disconnection_raises(self):
        # cut router 0 off entirely (both its outgoing and incoming links)
        cut = [
            (0, Direction.EAST),
            (0, Direction.NORTH),
            (1, Direction.WEST),
            (4, Direction.SOUTH),
        ]
        with pytest.raises(UnroutableError):
            updown_table(CFG, cut)

    def test_rerouted_network_delivers(self):
        net = Network(NoCConfig(routing="table"),
                      routing_table=updown_table(CFG, []))
        infected = [(0, Direction.EAST), (6, Direction.NORTH)]
        apply_rerouting(net, infected)
        for pid in range(10):
            net.add_packet(
                Packet(pkt_id=pid, src_core=0, dst_core=63, created_cycle=0)
            )
        assert net.run_until_drained(4000)
        assert net.stats.packets_completed == 10
        for key in infected:
            assert net.links[key].traversals == 0

    def test_reroute_avoids_trojan_entirely(self):
        net = Network(NoCConfig(routing="table"),
                      routing_table=updown_table(CFG, []))
        tasp = enabled_tasp(TargetSpec.for_dest(15))
        net.attach_tamperer((0, Direction.EAST), tasp)
        apply_rerouting(net, [(0, Direction.EAST)])
        for pid in range(10):
            net.add_packet(Packet(pkt_id=pid, src_core=0, dst_core=63))
        assert net.run_until_drained(4000)
        assert net.stats.packets_completed == 10
        assert tasp.triggers == 0

    def test_reroute_costs_hops(self):
        direct = Network(CFG)
        direct.add_packet(Packet(pkt_id=1, src_core=0, dst_core=15))
        direct.run_until_drained(500)
        base_hops = direct.stats.packets[1].hops

        rerouted = Network(NoCConfig(routing="table"),
                           routing_table=updown_table(CFG, []))
        apply_rerouting(rerouted, [(0, Direction.EAST)])
        rerouted.add_packet(Packet(pkt_id=1, src_core=0, dst_core=15))
        rerouted.run_until_drained(500)
        assert rerouted.stats.packets[1].hops >= base_hops

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_infected_sets_routable_property(self, seed):
        from repro.util.rng import SeededStream

        stream = SeededStream(seed, "links")
        links = all_links(CFG)
        infected = stream.sample(links, 4)
        try:
            table = updown_table(CFG, infected)
        except UnroutableError:
            return  # acceptable: failures may disconnect a direction
        for src in range(0, 16, 3):
            for dst in range(1, 16, 4):
                if src != dst:
                    table.path(src, dst)


def reference_updown(cfg, disabled, root=0):
    """up*/down* next hops from one BFS per (src, dst) pair that looks up
    each router's neighbours on every step; None when some pair is
    unroutable.  The reference :func:`updown_table` must reproduce."""
    from repro.baselines.reroute import _bfs_levels, _is_up_move

    blocked = set()
    for src, direction in disabled:
        blocked.add((src, direction))
        dst = neighbor(cfg, src, direction)
        if dst is not None:
            blocked.add((dst, OPPOSITE[direction]))
    levels = _bfs_levels(cfg, blocked, root)
    if len(levels) != cfg.num_routers:
        return None
    table = {}
    for dst in range(cfg.num_routers):
        for src in range(cfg.num_routers):
            if src == dst:
                continue
            start = (src, True)
            parents = {}
            seen = {start}
            frontier = deque([start])
            goal = None
            while frontier:
                state = frontier.popleft()
                node, going_up = state
                if node == dst:
                    goal = state
                    break
                for direction, nxt in neighbors(cfg, node).items():
                    if (node, direction) in blocked:
                        continue
                    up = _is_up_move(levels, node, nxt)
                    if up and not going_up:
                        continue
                    nxt_state = (nxt, going_up and up)
                    if nxt_state not in seen:
                        seen.add(nxt_state)
                        parents[nxt_state] = (state, direction)
                        frontier.append(nxt_state)
            if goal is None:
                return None
            state = goal
            while state != start:
                state, direction = parents[state]
            table[(src, dst)] = direction
    return table


UPDOWN_TOPOLOGIES = {
    "mesh4": CFG,
    "mesh8": NoCConfig(mesh_width=8, mesh_height=8),
    "mesh3x5": NoCConfig(mesh_width=3, mesh_height=5),
    "torus4": NoCConfig(mesh_width=4, mesh_height=4, topology="torus"),
    "torus8": NoCConfig(mesh_width=8, mesh_height=8, topology="torus"),
    "express8": NoCConfig(mesh_width=8, mesh_height=8, express_interval=2),
}


class TestUpDownTableIdentity:
    @pytest.mark.parametrize("name", sorted(UPDOWN_TOPOLOGIES))
    def test_matches_per_step_reference(self, name):
        cfg = UPDOWN_TOPOLOGIES[name]
        links = all_links(cfg)
        last = cfg.num_routers - 1
        # seeded random fault sets, fewer on the 64-router topologies,
        # where one reference table takes seconds; the final set cuts
        # the last router off, so every topology checks an unroutable case
        fault_sets = [
            random.Random(seed).sample(
                links, (seed + 1) * cfg.num_routers // 8
            )
            for seed in range(4 if cfg.num_routers <= 16 else 1)
        ]
        fault_sets.append([(last, d) for d in neighbors(cfg, last)])
        outcomes = []
        for disabled in fault_sets:
            expected = reference_updown(cfg, disabled)
            outcomes.append(expected is not None)
            if expected is None:
                with pytest.raises(UnroutableError):
                    updown_table(cfg, disabled)
                continue
            table = updown_table(cfg, disabled)
            assert {pair: table.route(*pair) for pair in expected} == expected
        assert outcomes[0] and not outcomes[-1], outcomes
