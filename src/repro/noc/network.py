"""Top-level network: topology wiring and the cycle loop.

One :meth:`Network.step` call advances the whole NoC by one clock.
Phases run in sink-to-source order each cycle; per-flit/per-VC cycle
guards inside the router enforce the 5-stage pipeline timing, so the
ordering is about *consistency* (no flit is processed twice), not about
granting extra speed.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable, Optional

from repro.ecc import SECDED_72_64, Secded
from repro.noc.config import NoCConfig
from repro.noc.flit import Flit, Packet
from repro.noc.link import Link, pop_due
from repro.noc.receiver import EccReceiver
from repro.noc.router import InputPort, OutputPort, Router, SchedulingPolicy
from repro.noc.routing import TableRouting, make_route_fn
from repro.noc.stats import NetworkStats, PacketRecord, Sample
from repro.noc.topology import (
    LinkKey,
    OPPOSITE,
    all_links,
    link_endpoints,
)

#: Builds the receive pipeline for one direction input port.
ReceiverFactory = Callable[[NoCConfig, Link], EccReceiver]
#: Builds the (optional) L-Ob encoder for one direction output port.
LobFactory = Callable[[NoCConfig, Link], object]


class TrafficSource:
    """Protocol for traffic generators: called once per cycle."""

    def generate(self, cycle: int) -> list[Packet]:  # pragma: no cover
        raise NotImplementedError

    def done(self, cycle: int) -> bool:
        """True when the source will never emit again (drain checks)."""
        return False

    def next_active_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` at which :meth:`generate` may
        emit packets, advance seeded RNG state, or flip :meth:`done` —
        ``None`` when the source is finished forever.

        The event engine (:mod:`repro.sim.sched`) skips the clock
        across cycles every source disclaims.  The default is maximally
        conservative: an unfinished source demands every cycle (which
        is also *exact* for the synthetic/app sources — they draw RNG
        per non-done cycle, so skipping any would desynchronize the
        stream).  Sources with known idle windows override this.
        """
        return None if self.done(cycle) else cycle


class Network:
    """A concentrated-mesh NoC instance."""

    def __init__(
        self,
        cfg: NoCConfig,
        *,
        policy: Optional[SchedulingPolicy] = None,
        receiver_factory: Optional[ReceiverFactory] = None,
        lob_factory: Optional[LobFactory] = None,
        routing_table: Optional[TableRouting] = None,
        e2e=None,
        codec: Secded = SECDED_72_64,
    ):
        self.cfg = cfg
        self.codec = codec
        self.policy = policy or SchedulingPolicy()
        self.e2e = e2e
        self.routing_table = routing_table
        self.route_fn = make_route_fn(cfg, routing_table)
        #: what built each link's two ends, kept so a recovery epoch
        #: rebuilds them alike (a checkpoint pickles them with the rest)
        self.receiver_factory = receiver_factory or EccReceiver
        self.lob_factory = lob_factory

        self.stats = NetworkStats()
        self.routers = [
            Router(cfg, rid, self.route_fn, self.policy)
            for rid in range(cfg.num_routers)
        ]
        self.links: dict[LinkKey, Link] = {}
        #: each link with the receiver and input port at its far end and
        #: the output port feeding it, resolved once so the cycle loop
        #: does no lookups
        self._wiring: dict[
            LinkKey, tuple[Link, EccReceiver, InputPort, OutputPort]
        ] = {}
        for key in all_links(cfg):
            src, dst = link_endpoints(cfg, key)
            link = Link(
                src, key[1], dst, cfg.link_latency, cfg.ack_latency
            )
            self.links[key] = link
            out_port = self.routers[src].add_link_output(key[1], link)
            in_port = self.routers[dst].add_link_input(OPPOSITE[key[1]])
            in_port.receiver = self.receiver_factory(cfg, link)
            in_port.receiver.upstream_credits = out_port.credits
            in_port.receiver.stats_sink = self.stats
            in_port.upstream_credits = out_port.credits
            in_port.upstream_router = src
            if lob_factory is not None:
                out_port.lob = lob_factory(cfg, link)
            self._wiring[key] = (link, in_port.receiver, in_port, out_port)
        for router in self.routers:
            router.finish_wiring()

        # Active-set stepping bookkeeping.  Canonical iteration orders
        # are frozen at wiring time so the active-set path visits
        # components in exactly the full-sweep order.
        self._link_keys: list[LinkKey] = list(self.links)
        #: canonical position of each link key, so the active-set scan
        #: can sort a handful of live keys instead of filtering the
        #: full canonical list every cycle
        self._link_order: dict[LinkKey, int] = {
            key: index for index, key in enumerate(self._link_keys)
        }
        self._full_sweep = False
        self._active_routers: set[int] = set(range(cfg.num_routers))
        self._active_links: set[LinkKey] = set(self._link_keys)
        #: links whose retransmission buffer may hold an entry a NACK
        #: re-armed: the ACK phase adds a link when it re-arms one, and
        #: the watchdog, which acts only on such entries and on the
        #: links it dropped on, removes a link once its buffer is empty
        self.retrying: set[LinkKey] = set()

        #: the flits each core has waiting to inject, keyed by core and
        #: held only while the core has any (kept exact by add_packet
        #: and _inject), so injection and idleness checks cost
        #: O(pending); a deque, because a backlog is unbounded
        self._backlogs: dict[int, deque[Flit]] = {}
        self.cycle = 0
        self.traffic: Optional[TrafficSource] = None
        #: back-pressure sampling cadence in cycles (0 disables
        #: sampling: no Sample is ever constructed)
        self.sample_interval = 10
        #: phase wall-clock attribution (repro.obs.profiler); None (the
        #: default) costs one identity test per phase per cycle
        self.profiler = None
        #: invoked with (flit, cycle, core) on every ejection
        self.ejection_hooks: list[Callable] = []
        #: invoked with (flit, cycle) on every injection (BW entry)
        self.injection_hooks: list[Callable] = []
        #: per-cycle observers (e.g. the resilience watchdog); each is
        #: called as ``monitor.on_cycle(network, cycle)`` at end of step
        self.monitors: list = []

    # -- active-set stepping -------------------------------------------------
    @property
    def full_sweep(self) -> bool:
        """When True, :meth:`step` walks every router and link each
        cycle (the historical behaviour).  When False (the default),
        settled components are skipped and woken on activity; the two
        modes produce bit-identical :class:`NetworkStats`."""
        return self._full_sweep

    @full_sweep.setter
    def full_sweep(self, value: bool) -> None:
        value = bool(value)
        if self._full_sweep and not value:
            # The active sets are not maintained while sweeping fully;
            # re-arm everything before switching back.
            self._active_routers = set(range(self.cfg.num_routers))
            self._active_links = set(self._link_keys)
        self._full_sweep = value

    def wake_router(self, router_id: int) -> None:
        """Mark a router active so the next :meth:`step` visits it.

        External code that mutates router state outside the cycle loop
        (tests, custom monitors) should call this; the built-in phases
        wake components themselves."""
        self._active_routers.add(router_id)

    def wake_all(self) -> None:
        """Re-activate every router and link (e.g. after bulk external
        mutation of network state)."""
        self._active_routers = set(range(self.cfg.num_routers))
        self._active_links = set(self._link_keys)

    def _router_settled(self, router: Router) -> bool:
        """True when the router holds no state requiring cycle work."""
        if router.holds_flits():
            return False
        for out in router.out_ports:
            link = out.link
            if (
                out.retrans._entries
                or link._in_flight
                or link._acks
                or out.credits._pending
            ):
                return False
        return True

    @property
    def quiescent(self) -> bool:
        """No component holds work: the active sets and injection
        backlogs are empty (only meaningful with active-set stepping —
        a full sweep maintains no sets, so it is never quiescent).

        The sets are pruned exactly at the end of every step, so
        quiescence is the O(1) form of "drained except for traffic yet
        to come and credit returns still in flight"."""
        return not (
            self._full_sweep
            or self._active_routers
            or self._active_links
            or self._backlogs
        )

    def next_event_cycle(self) -> Optional[int]:
        """Earliest cycle >= the current clock at which any tracked
        component has pending work, or ``None`` when every component is
        idle.  Consulted by the event engine (:mod:`repro.sim.sched`)
        before skipping the clock; a full sweep pins every cycle.

        Iterating the active *sets* here is deterministic even though
        set order is not: a minimum is order-independent, and the
        early exit returns the same ``cycle`` whichever member
        triggers it.
        """
        cycle = self.cycle
        if self._full_sweep or self._backlogs:
            return cycle
        best: Optional[int] = None
        for rid in self._active_routers:
            when = self.routers[rid].next_event_cycle(cycle)
            if when is not None:
                if when <= cycle:
                    return cycle
                if best is None or when < best:
                    best = when
        for key in self._active_links:
            when = self.links[key].next_event_cycle()
            if when is not None:
                if when <= cycle:
                    return cycle
                if best is None or when < best:
                    best = when
        return best

    # -- wiring helpers ------------------------------------------------------
    def attach_tamperer(self, key: LinkKey, tamperer) -> None:
        """Attach a fault model or trojan to a link."""
        self.links[key].tamperers.append(tamperer)

    def set_route_fn(self, fn) -> None:
        self.route_fn = fn
        for router in self.routers:
            router.route_fn = fn

    def disable_link(self, key: LinkKey) -> None:
        """Take a link out of service (rerouting mitigation).

        Intended for *static* fault configurations set up before traffic
        runs (the Fig. 10 infected-link sweeps).  Any flits already
        pinned in the retransmission buffer are dropped and counted —
        the price of disabling hardware mid-flight.
        """
        link = self.links[key]
        link.disabled = True
        out = self.routers[key[0]].outputs[key[1]]
        dropped = out.retrans.occupancy
        if dropped:
            self.stats.dropped_flits += dropped
            for entry in list(out.retrans):
                out.retrans.on_ack(entry.tag)
        out.holders = [None] * self.cfg.num_vcs
        out.holder_pkts = [None] * self.cfg.num_vcs

    def reinstate_link(self, key: LinkKey) -> None:
        """Return a sealed link to service (probation recovery).

        The inverse of :meth:`disable_link`, with the same invariant
        discipline run in reverse: it is only legal while the link
        holds no protocol state — which sealing already guaranteed and
        this method re-checks.  Both ends' per-VC sequence state is
        re-zeroed as one atomic epoch change (``disable_link`` retires
        pinned entries without ``skip_seq``, so the old counters have
        diverged), and the receiver's skip/poison tombstones from the
        condemned era are cleared so fresh deliveries are not
        misclassified as stale duplicates.
        """
        link = self.links[key]
        if not link.disabled:
            raise RuntimeError(f"link {key} is not disabled")
        out = self.output_port_of(key)
        if not out.retrans.is_empty or not link.idle:
            raise RuntimeError(
                f"link {key} still holds protocol state; reinstate only "
                "a sealed link"
            )
        receiver = self.receiver_of(key)
        receiver.reset_sequencing()
        out.vc_seq_counters = [0] * self.cfg.num_vcs
        link.disabled = False
        # Allocation skipped this output while it was disabled; wake
        # everything so stalled heads re-arbitrate from live state.
        self.wake_all()

    def purge_packet(self, pkt_id: int, cycle: int) -> int:
        """Flush every in-network trace of a condemned packet.

        Dropping a packet at one port cuts its wormhole mid-flight:
        flits that already crossed the drop point keep flowing with no
        tail behind them, so the VC holders they pinned at downstream
        outputs would never be released — a handful of drops can wedge
        the whole mesh.  This models the control-plane flush a
        fault-tolerant NoC broadcasts alongside the drop notification:
        buffered flits of the packet are discarded with exact credit
        and sequence accounting, its VC grants and pinned route state
        are force-released, and every receiver is poisoned so in-flight
        stragglers retire through the accept-and-discard path.

        Returns the number of buffered/pinned flits purged.
        """
        from repro.noc.retrans import EntryState

        purged = 0
        for router in self.routers:
            work = router.work
            for port in router.inputs.values():
                for vc in port.vcs:
                    doomed = [f for f in vc.buffer if f.pkt_id == pkt_id]
                    if doomed:
                        # the one place a buffer is rewritten rather than
                        # pushed or popped: keep the tallies in step
                        vc.buffer = [
                            f for f in vc.buffer if f.pkt_id != pkt_id
                        ]
                        work.flits -= len(doomed)
                        work.ports[vc.position] -= len(doomed)
                        for flit in doomed:
                            self.stats.on_flit_degraded(flit)
                            # the freed slot's credit goes back upstream
                            if port.upstream_credits is not None:
                                port.upstream_credits.release(vc.idx, cycle)
                        purged += len(doomed)
                    if vc.cur_pkt == pkt_id:
                        vc.reset_packet_state()
                    elif doomed:
                        vc.requeue()
            for out in router.outputs.values():
                receiver = self.receiver_of(out.link.key)
                for entry in list(out.retrans):
                    if (
                        entry.flit.pkt_id != pkt_id
                        or entry.state is not EntryState.READY
                    ):
                        # launched entries retire via the poisoned
                        # receiver's OK-ACK
                        continue
                    out.retrans.drop(entry.tag)
                    if entry.vc_seq >= 0:
                        receiver.skip_seq(entry.out_vc, entry.vc_seq)
                    out.credits.release(entry.out_vc, cycle)
                    self.stats.on_flit_degraded(entry.flit)
                    purged += 1
                for v in range(self.cfg.num_vcs):
                    if out.holder_pkts[v] == pkt_id:
                        out.holders[v] = None
                        out.holder_pkts[v] = None
                receiver.poison_packet(pkt_id)
        self.wake_all()
        return purged

    def receiver_of(self, key: LinkKey) -> EccReceiver:
        """The receive pipeline at the downstream end of ``key``."""
        return self._wiring[key][1]

    def output_port_of(self, key: LinkKey):
        return self.routers[key[0]].outputs[key[1]]

    # -- traffic --------------------------------------------------------------
    def set_traffic(self, source: TrafficSource) -> None:
        self.traffic = source

    def add_packet(self, packet: Packet) -> None:
        """Queue a packet at its source core's network interface."""
        if self.e2e is not None and hasattr(self.e2e, "prepare_packet"):
            self.e2e.prepare_packet(packet)
        flits = packet.build_flits(self.cfg)
        if self.e2e is not None:
            for flit in flits:
                self.e2e.encode_flit(flit)
        record = PacketRecord(
            pkt_id=packet.pkt_id,
            src_core=packet.src_core,
            dst_core=packet.dst_core,
            num_flits=packet.num_flits(),
            created_cycle=packet.created_cycle,
        )
        self.stats.on_packet_created(record)
        backlog = self._backlogs.get(packet.src_core)
        if backlog is None:
            self._backlogs[packet.src_core] = deque(flits)
        else:
            backlog.extend(flits)

    # -- cycle loop -------------------------------------------------------------
    def step(self) -> None:
        cycle = self.cycle
        prof = self.profiler
        _t = perf_counter() if prof is not None else 0.0

        if self.traffic is not None:
            for packet in self.traffic.generate(cycle):
                self.add_packet(packet)
        if prof is not None:
            _t = prof.lap("traffic", _t)

        full = self._full_sweep
        if full:
            routers = self.routers
            link_keys = self._link_keys
        else:
            # Snapshot in canonical (full-sweep) order.  Routers woken
            # during this cycle join from the next step; per-flit cycle
            # guards make every phase a no-op for freshly arrived state
            # anyway, so the timing matches the full sweep exactly.
            # Router ids ARE their canonical positions and link keys
            # sort by their wiring-time index, so sorting the live sets
            # costs O(active log active) instead of an O(mesh) filter.
            all_routers = self.routers
            routers = [all_routers[rid] for rid in sorted(self._active_routers)]
            link_keys = sorted(
                self._active_links, key=self._link_order.__getitem__
            )

        # Credit returns become visible.  Returns queue at the current
        # cycle plus a fixed latency, so a tracker's oldest return is
        # its first due.
        for router in routers:
            for out in router.out_ports:
                pending = out.credits._pending
                if pending and pending[0][0] <= cycle:
                    out.credits.tick(cycle)
        if prof is not None:
            _t = prof.lap("credit", _t)

        # ACK/NACK processing (reverse wires), link-major: the snapshot
        # is in canonical link order, which is router order and then
        # output order, and every link with an ACK on its wire is in it
        # (with its source router, whose entry awaits the ACK).
        wiring = self._wiring
        for key in link_keys:
            acks = wiring[key][0]._acks
            if (
                acks
                and acks[0][0] <= cycle
                and wiring[key][3].process_acks(cycle)
            ):
                self.retrying.add(key)
        if prof is not None:
            _t = prof.lap("ack", _t)

        # Link arrivals -> receive pipeline (ECC + detection).
        active_routers = self._active_routers
        for key in link_keys:
            link, receiver, _port, _out = wiring[key]
            in_flight = link._in_flight
            if not in_flight or in_flight[0][0] > cycle:
                continue
            for _when, tx in pop_due(in_flight, cycle):
                receiver.process(tx, cycle)
            active_routers.add(link.dst_router)

        # Staged flits drop into their VC buffers.
        for key in link_keys:
            link, receiver, in_port, _out = wiring[key]
            if not receiver.staged_count:
                continue
            discarded_before = receiver.flits_discarded
            deliveries = receiver.take_deliveries(cycle)
            for vc, flit in deliveries:
                in_port.vcs[vc].push(flit)
            if deliveries:
                active_routers.add(link.dst_router)
            if receiver.flits_discarded != discarded_before:
                # Consuming a tombstone released an upstream credit.
                active_routers.add(link.src_router)
        if prof is not None:
            _t = prof.lap("ecc", _t)

        # Ejection: cores consume.
        for router in routers:
            if not router.work.ejects:
                continue
            for flit in router.drain_ejects(cycle):
                core = router.ejects[
                    flit.dst_core % self.cfg.concentration
                ].core
                if self.e2e is not None:
                    self.e2e.decode_flit(flit, cycle, core)
                self.stats.on_flit_ejected(flit, cycle, core)
                for hook in self.ejection_hooks:
                    hook(flit, cycle, core)
        if prof is not None:
            _t = prof.lap("eject", _t)

        # LT launch, ST, VA, RC.  Each stage runs only where its
        # worklist holds a VC.
        active_links = self._active_links
        for router in routers:
            launched = router.launch_links(cycle, self.codec)
            if launched:
                # newly launched transmissions put their links in play
                active_links.update(launched)
        for router in routers:
            if router.work.sa:
                router.switch_traverse(cycle)
                active_routers.update(router.credit_woken)
        if prof is not None:
            _t = prof.lap("traverse", _t)
        for router in routers:
            if router.work.va:
                router.vc_allocate(cycle)
        if prof is not None:
            _t = prof.lap("arbitrate", _t)
        for router in routers:
            if router.work.rc:
                router.route_compute(cycle)
        if prof is not None:
            _t = prof.lap("route", _t)

        # Injection: one flit per core per cycle.
        self._inject(cycle)
        if prof is not None:
            _t = prof.lap("inject", _t)

        # Per-cycle observers (resilience watchdog etc.) see the fully
        # settled cycle state.
        if prof is None:
            for monitor in self.monitors:
                monitor.on_cycle(self, cycle)
        else:
            # monitors declaring ``profile_phase`` (the detector) get
            # their own lap; the rest stay pooled under "defense"
            for monitor in self.monitors:
                monitor.on_cycle(self, cycle)
                _t = prof.lap(
                    getattr(monitor, "profile_phase", "defense"), _t
                )
            _t = prof.lap("defense", _t)

        interval = self.sample_interval
        if interval and cycle % interval == 0:
            self.collect_sample()
        if prof is not None:
            _t = prof.lap("sample", _t)

        self.cycle = cycle + 1

        if not full:
            # Lazy prune: drop whatever settled this cycle.  Iterating
            # the sets themselves (instead of the full canonical lists)
            # keeps the prune O(active); membership results are
            # identical and set-build order is irrelevant.
            self._active_links = {
                key
                for key in self._active_links
                if wiring[key][0]._in_flight
                or wiring[key][0]._acks
                or wiring[key][1].staged_count
            }
            all_routers = self.routers
            self._active_routers = {
                rid
                for rid in self._active_routers
                if all_routers[rid].work.flits
                or not self._router_settled(all_routers[rid])
            }
        if prof is not None:
            prof.lap("active", _t)

    def _inject(self, cycle: int) -> None:
        backlogs = self._backlogs
        if not backlogs:
            return
        cfg = self.cfg
        policy = self.policy
        gated = "may_inject" in policy.gated
        # sorted() both fixes the visitation order (ascending core, the
        # full-scan order) and snapshots the keys before mutation
        for core in sorted(backlogs):
            backlog = backlogs[core]
            flit = backlog[0]
            if gated and not policy.may_inject(flit, cycle):
                continue
            router = self.routers[cfg.router_of_core(core)]
            port = router.inputs[("inj", cfg.local_index(core))]
            vc = port.vcs[flit.vc_class]
            if vc.is_full:
                continue
            backlog.popleft()
            if not backlog:
                del backlogs[core]
            flit.injected_cycle = cycle
            flit.last_move_cycle = cycle
            vc.push(flit)
            self._active_routers.add(router.id)
            self.stats.on_flit_injected(flit, cycle)
            for hook in self.injection_hooks:
                hook(flit, cycle)

    # -- measurement --------------------------------------------------------
    def core_blocked(self, core: int) -> bool:
        """The core cannot inject: pending traffic faces a full VC."""
        if core not in self._backlogs:
            return False
        backlog = self._backlogs[core]
        cfg = self.cfg
        router = self.routers[cfg.router_of_core(core)]
        port = router.inputs[("inj", cfg.local_index(core))]
        return port.vcs[backlog[0].vc_class].is_full

    def collect_sample(self) -> Sample:
        cfg = self.cfg
        cycle = self.cycle
        input_util = output_util = injection_util = blocked = 0
        for router in self.routers:
            if router.work.flits:
                injected = router.injection_occupancy()
                injection_util += injected
                input_util += router.work.flits - injected
            output_util += router.output_occupancy()
            blocked += router.any_output_blocked(cycle)
        # only a core with a backlog can be blocked
        blocked_cores: dict[int, int] = {}
        for core in self._backlogs:
            if self.core_blocked(core):
                rid = cfg.router_of_core(core)
                blocked_cores[rid] = blocked_cores.get(rid, 0) + 1
        all_full = sum(
            1 for n in blocked_cores.values() if n == cfg.concentration
        )
        half_full = sum(
            1 for n in blocked_cores.values() if n > cfg.concentration / 2
        )
        sample = Sample(
            cycle=cycle,
            input_utilization=input_util,
            output_utilization=output_util,
            injection_utilization=injection_util,
            routers_with_blocked_port=blocked,
            routers_all_cores_full=all_full,
            routers_half_cores_full=half_full,
        )
        self.stats.samples.append(sample)
        return sample

    # -- run helpers ------------------------------------------------------------
    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    @property
    def drained(self) -> bool:
        """No traffic anywhere in the NoC."""
        if self._backlogs:
            return False
        if self.traffic is not None and not self.traffic.done(self.cycle):
            return False
        for router in self.routers:
            if router.holds_flits() or any(
                not o.retrans.is_empty for o in router.outputs.values()
            ):
                return False
        return all(link.idle for link in self.links.values())

    def run_until_drained(
        self, max_cycles: int, stall_limit: Optional[int] = None
    ) -> bool:
        """Run until all traffic is delivered.

        Returns True on drain; False when ``max_cycles`` elapsed or the
        network made no delivery for ``stall_limit`` cycles (deadlock).
        """
        for _ in range(max_cycles):
            if self.drained:
                return True
            self.step()
            if (
                stall_limit is not None
                and self.stats.stalled_for(self.cycle) > stall_limit
            ):
                return False
        return self.drained

    def link_load(self) -> dict[LinkKey, int]:
        """Traversal counts per link (paper Fig. 1c)."""
        return {key: link.traversals for key, link in self.links.items()}
