"""Direct unit tests of the router pipeline stages (RC, VA, SA/ST),
exercising them without the full network loop."""

import pytest

from repro.noc import Network, NoCConfig, Packet, PAPER_CONFIG
from repro.noc.router import SchedulingPolicy
from repro.noc.topology import Direction


def fresh_router(rid=5):
    """A fully wired router embedded in a throwaway network."""
    net = Network(PAPER_CONFIG)
    return net, net.routers[rid]


def head_flit(src=20, dst=63, vc=0, payload=0):
    pkt = Packet(
        pkt_id=1, src_core=src, dst_core=dst, vc_class=vc,
        payload=[payload] if payload else [],
    )
    return pkt.build_flits(PAPER_CONFIG)[0]


def seat_flit(router, in_key, vc_idx, flit, cycle=-1):
    vc = router.inputs[in_key].vcs[vc_idx]
    flit.last_move_cycle = cycle
    vc.push(flit)
    return vc


class TestRouteCompute:
    def test_rc_eastbound(self):
        net, router = fresh_router(rid=5)
        vc = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        router.route_compute(cycle=1)
        assert vc.route_out == Direction.EAST  # router 5 -> 7 goes east
        assert vc.rc_cycle == 1

    def test_rc_local_ejection(self):
        net, router = fresh_router(rid=5)
        # dst core 22 lives on router 5, local index 2
        vc = seat_flit(router, Direction.WEST, 1, head_flit(src=0, dst=22))
        router.route_compute(cycle=1)
        assert vc.route_out == ("ej", 2)

    def test_rc_waits_one_cycle_after_arrival(self):
        net, router = fresh_router()
        vc = seat_flit(router, ("inj", 0), 0, head_flit(), cycle=3)
        router.route_compute(cycle=3)  # same cycle as arrival: no RC
        assert vc.route_out is None
        router.route_compute(cycle=4)
        assert vc.route_out is not None

    def test_rc_skips_body_flits(self):
        net, router = fresh_router()
        pkt = Packet(pkt_id=1, src_core=20, dst_core=63, payload=[1])
        body = pkt.build_flits(PAPER_CONFIG)[1]
        vc = seat_flit(router, ("inj", 0), 0, body)
        router.route_compute(cycle=1)
        assert vc.route_out is None

    def test_rc_idempotent(self):
        net, router = fresh_router()
        vc = seat_flit(router, ("inj", 0), 0, head_flit())
        router.route_compute(cycle=1)
        first = (vc.route_out, vc.rc_cycle)
        router.route_compute(cycle=2)
        assert (vc.route_out, vc.rc_cycle) == first


class TestHeaderNamingNoRouter:
    """After header SDC a 3x3 mesh's 4-bit router fields can name
    routers 9-15, which do not exist: the head ejects where it stands
    and the endpoint counts the misdelivery."""

    @pytest.mark.parametrize(
        "routing, field", [("xy", "dst_router"), ("odd-even", "src_router")]
    )
    def test_ejected_as_one_misdelivery(self, routing, field):
        cfg = NoCConfig(
            mesh_width=3, mesh_height=3, concentration=1, routing=routing
        )
        net = Network(cfg)
        net.add_packet(Packet(pkt_id=1, src_core=0, dst_core=8, payload=[7]))
        head = net._backlogs[0][0]
        assert head.is_head
        setattr(head, field, 12)
        assert net.run_until_drained(200)
        assert net.stats.misdeliveries == 1


class TestVcAllocation:
    def _routed_vc(self, router, cycle=1):
        vc = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        router.route_compute(cycle)
        return vc

    def test_va_grants_free_vc(self):
        net, router = fresh_router(5)
        vc = self._routed_vc(router)
        router.vc_allocate(cycle=2)
        assert vc.out_vc is not None
        out = router.outputs[Direction.EAST]
        assert out.holders[vc.out_vc] == (("inj", 0), 0)

    def test_va_waits_cycle_after_rc(self):
        net, router = fresh_router(5)
        vc = self._routed_vc(router, cycle=1)
        router.vc_allocate(cycle=1)  # same cycle as RC
        assert vc.out_vc is None

    def test_va_no_double_grant(self):
        net, router = fresh_router(5)
        vc = self._routed_vc(router)
        router.vc_allocate(cycle=2)
        granted = vc.out_vc
        router.vc_allocate(cycle=3)
        assert vc.out_vc == granted

    def test_va_exhausted_vcs_block(self):
        net, router = fresh_router(5)
        out = router.outputs[Direction.EAST]
        out.holders = [(("inj", 3), 0)] * PAPER_CONFIG.num_vcs  # all held
        vc = self._routed_vc(router)
        router.vc_allocate(cycle=2)
        assert vc.out_vc is None

    def test_va_one_grant_per_output_per_cycle(self):
        net, router = fresh_router(5)
        vc_a = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        vc_b = seat_flit(router, ("inj", 1), 0, head_flit(src=21, dst=28))
        router.route_compute(cycle=1)
        router.vc_allocate(cycle=2)
        granted = [v for v in (vc_a, vc_b) if v.out_vc is not None]
        assert len(granted) == 1
        router.vc_allocate(cycle=3)
        assert vc_a.out_vc is not None and vc_b.out_vc is not None


class TestSwitchTraverse:
    def _ready_vc(self, router):
        vc = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        router.route_compute(cycle=1)
        router.vc_allocate(cycle=2)
        return vc

    def test_st_moves_flit_to_retrans(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        moved = router.switch_traverse(cycle=3)
        assert moved == 1
        assert vc.occupancy == 0
        out = router.outputs[Direction.EAST]
        assert out.retrans.occupancy == 1

    def test_st_consumes_credit(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        out = router.outputs[Direction.EAST]
        before = out.credits.available(vc.out_vc)
        router.switch_traverse(cycle=3)
        # vc.out_vc was reset (single flit = tail) so capture earlier
        assert sum(out.credits.snapshot()) == 4 * PAPER_CONFIG.vc_depth - 1
        assert before >= 1

    def test_st_waits_cycle_after_va(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        assert router.switch_traverse(cycle=2) == 0  # same cycle as VA

    def test_st_blocked_by_full_retrans(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        out = router.outputs[Direction.EAST]
        while not out.retrans.is_full:
            out.retrans.admit(head_flit(), 0, 0)
        assert router.switch_traverse(cycle=3) == 0
        assert vc.occupancy == 1

    def test_st_blocked_without_credits(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        out = router.outputs[Direction.EAST]
        grant = vc.out_vc
        while out.credits.available(grant) > 0:
            out.credits.consume(grant)
        assert router.switch_traverse(cycle=3) == 0

    def test_st_tail_resets_vc_state(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)  # single-flit packet: head==tail
        router.switch_traverse(cycle=3)
        assert vc.route_out is None and vc.out_vc is None

    def test_st_tail_keeps_holder_until_ack(self):
        net, router = fresh_router(5)
        vc = self._ready_vc(router)
        grant = vc.out_vc
        router.switch_traverse(cycle=3)
        out = router.outputs[Direction.EAST]
        assert out.holders[grant] is not None  # released only on tail ACK

    def test_st_one_winner_per_output(self):
        net, router = fresh_router(5)
        vc_a = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        vc_b = seat_flit(router, ("inj", 1), 0, head_flit(src=21, dst=28))
        router.route_compute(1)
        router.vc_allocate(2)
        router.vc_allocate(3)
        moved = router.switch_traverse(4)
        assert moved == 1  # same output port: crossbar serializes

    def test_st_parallel_outputs(self):
        net, router = fresh_router(5)
        vc_a = seat_flit(router, ("inj", 0), 0, head_flit(src=20, dst=28))
        vc_b = seat_flit(router, ("inj", 1), 0, head_flit(src=21, dst=36))
        router.route_compute(1)  # east and north
        router.vc_allocate(2)
        moved = router.switch_traverse(3)
        assert moved == 2

    def test_policy_gates_switch(self):
        class NoSwitch(SchedulingPolicy):
            def flit_may_use_switch(self, flit, cycle):
                return False

        net, router = fresh_router(5)
        router.policy = NoSwitch()
        vc = self._ready_vc(router)
        assert router.switch_traverse(cycle=3) == 0


class TestLatencyPercentiles:
    def test_percentiles_and_histogram(self):
        net = Network(NoCConfig())
        for pid in range(30):
            net.add_packet(
                Packet(pkt_id=pid, src_core=(pid * 4) % 64,
                       dst_core=(pid * 12 + 5) % 64, created_cycle=0)
            )
        net.run_until_drained(3000)
        p50 = net.stats.latency_percentile(0.5)
        p99 = net.stats.latency_percentile(0.99)
        assert p50 is not None and p99 >= p50
        hist = net.stats.latency_histogram(bucket=20)
        assert sum(hist.values()) == net.stats.packets_completed
        assert all(k % 20 == 0 for k in hist)

    def test_percentile_validation(self):
        net = Network(NoCConfig())
        with pytest.raises(ValueError):
            net.stats.latency_percentile(1.5)
        with pytest.raises(ValueError):
            net.stats.latency_histogram(bucket=0)

    def test_empty_stats(self):
        net = Network(NoCConfig())
        assert net.stats.latency_percentile(0.5) is None
        assert net.stats.latency_histogram() == {}
