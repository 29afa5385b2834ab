"""The 5-stage virtual-channel router.

Pipeline (paper §IV): buffer write / route compute (BW/RC), VC
allocation (VA), switch allocation (SA), switch traversal (ST), link
traversal (LT).  Retransmission buffers sit at the output, after the
crossbar (the paper's worst-case placement, Fig. 5).

The simulator is cycle-driven: the network calls the phase methods in a
fixed order every cycle, and per-flit / per-VC ``*_cycle`` guards ensure
a flit advances at most one stage per cycle, so latency through an
uncongested router is the paper's 5 cycles (4 in-router stages + LT).

Router state is kept incrementally rather than rescanned: flit tallies
per input port and per router, and per-stage VC worklists, all updated
where a VC's state changes (see :class:`Worklists`).  Each stage visits
only the VCs on its worklist; since the arbiters grant over index sets,
outcomes depend on which VCs request, never on the visiting order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union, TYPE_CHECKING

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.config import NoCConfig
from repro.noc.credit import CreditTracker
from repro.noc.flit import Flit
from repro.noc.link import Link, Transmission
from repro.noc.receiver import EccReceiver
from repro.noc.retrans import RetransBuffer
from repro.noc.topology import Direction, dateline_high

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.lob import LObEncoder
    from repro.ecc import Secded

#: Input ports: a mesh direction or ("inj", local core index).
#: Output targets: a mesh direction or ("ej", local core index).
PortKey = Union[Direction, tuple[str, int]]


class SchedulingPolicy:
    """Hook points for QoS schemes (overridden by the TDM baseline)."""

    def flit_may_use_switch(self, flit: Flit, cycle: int) -> bool:
        return True

    def flit_may_use_link(self, flit: Flit, cycle: int) -> bool:
        return True

    def allowed_out_vcs(self, flit: Flit, num_vcs: int) -> range:
        return range(num_vcs)

    def may_inject(self, flit: Flit, cycle: int) -> bool:
        return True

    def may_admit_retrans(self, flit: Flit, retrans: RetransBuffer) -> bool:
        """Gate admission into a retransmission buffer (TDM partitions
        the slots per domain so one domain's pinned retransmissions
        cannot starve the other's)."""
        return True


class Worklists:
    """A router's incrementally kept state: flit tallies and per-stage
    VC worklists, which its VCs update in place.

    ``flits`` counts the flits buffered across the router's input VCs,
    ``ports[p]`` those of the input port at wiring position ``p``.  The
    worklists are bitmasks over the router's VCs (``VCState.bit``), and
    membership is a pure function of a VC's state, re-derived by
    :meth:`VCState.requeue` whenever that state changes:

    * ``rc`` — a head flit at the front and no route yet;
    * ``va`` — routed to a direction output, no downstream VC yet;
    * ``sa`` — routed to an ejection port, or holding a downstream VC.

    A VC with an empty buffer is on no list.  VCs hold this object,
    never their port or router, so a network stays an acyclic object
    graph that refcounting frees as soon as it is dropped: back-references
    would leave every dropped network to the cyclic garbage collector.
    """

    __slots__ = ("flits", "ports", "rc", "va", "sa")

    def __init__(self) -> None:
        self.flits = 0
        self.ports: list[int] = []
        self.rc = self.va = self.sa = 0


class VCState:
    """One virtual channel of an input port."""

    __slots__ = ("capacity", "buffer", "route_out", "out", "rc_cycle",
                 "out_vc", "va_cycle", "cur_pkt", "position", "idx", "flat",
                 "bit", "_work")

    def __init__(self, capacity: int, position: int, idx: int, flat: int,
                 work: Worklists):
        self.capacity = capacity
        self.buffer: deque[Flit] = deque()
        self.route_out: Optional[PortKey] = None
        #: the OutputPort or EjectPort behind ``route_out``, resolved at RC
        self.out: Union["OutputPort", "EjectPort", None] = None
        self.rc_cycle = -1
        self.out_vc: Optional[int] = None
        self.va_cycle = -1
        #: pkt_id the pinned route/VC state belongs to, so a purge of a
        #: dropped packet can find and reset stale per-VC state even
        #: after the packet's flits have left the buffer
        self.cur_pkt: Optional[int] = None
        #: the port's wiring position, the index within the port, and
        #: the index within the router with its worklist bit
        self.position = position
        self.idx = idx
        self.flat = flat
        self.bit = 1 << flat
        self._work = work

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    @property
    def is_full(self) -> bool:
        return len(self.buffer) >= self.capacity

    def push(self, flit: Flit) -> None:
        buffer = self.buffer
        if len(buffer) >= self.capacity:
            raise RuntimeError("VC overflow: credit flow control broken")
        buffer.append(flit)
        work = self._work
        work.flits += 1
        work.ports[self.position] += 1
        if len(buffer) == 1:
            self.requeue()

    def pop(self) -> Flit:
        flit = self.buffer.popleft()
        work = self._work
        work.flits -= 1
        work.ports[self.position] -= 1
        if not self.buffer:
            # an empty VC is on no worklist
            work.rc &= ~self.bit
            work.va &= ~self.bit
            work.sa &= ~self.bit
        elif self.route_out is None:
            self.requeue()
        return flit

    def reset_packet_state(self) -> None:
        self.route_out = None
        self.out = None
        self.rc_cycle = -1
        self.out_vc = None
        self.va_cycle = -1
        self.cur_pkt = None
        self.requeue()

    def requeue(self) -> None:
        """Put this VC on the one worklist its state calls for."""
        work = self._work
        bit = self.bit
        work.rc &= ~bit
        work.va &= ~bit
        work.sa &= ~bit
        if not self.buffer:
            return
        if self.route_out is None:
            if self.buffer[0].is_head:
                work.rc |= bit
        elif self.out_vc is None and isinstance(self.route_out, Direction):
            work.va |= bit
        else:
            work.sa |= bit


class InputPort:
    """A router input: VC buffers plus (for link inputs) the receive
    pipeline and a handle on the upstream credit tracker."""

    __slots__ = ("key", "vcs", "receiver", "upstream_credits")

    def __init__(self, key: PortKey, cfg: NoCConfig, position: int,
                 work: Worklists):
        self.key = key
        base = position * cfg.num_vcs
        self.vcs = [
            VCState(cfg.vc_depth, position, idx, base + idx, work)
            for idx in range(cfg.num_vcs)
        ]
        self.receiver: Optional[EccReceiver] = None
        self.upstream_credits: Optional[CreditTracker] = None


class OutputPort:
    """A direction output: retransmission buffer + link + credits."""

    __slots__ = ("direction", "link", "retrans", "credits", "holders",
                 "holder_pkts", "lob", "vc_seq_counters", "last_ack_cycle")

    def __init__(self, direction: Direction, link: Link, cfg: NoCConfig):
        self.direction = direction
        self.link = link
        self.retrans = RetransBuffer(cfg.retrans_depth)
        self.credits = CreditTracker(
            cfg.num_vcs, cfg.vc_depth, cfg.credit_latency
        )
        #: which (input key, vc index) holds each downstream VC; held from
        #: VA until the packet's tail flit is ACKed by the neighbour, so
        #: retransmissions cannot interleave two packets on one VC
        self.holders: list[Optional[tuple[PortKey, int]]] = [None] * cfg.num_vcs
        #: pkt_id behind each holder; a dropped packet whose tail will
        #: never cross this link must have its grants force-released
        self.holder_pkts: list[Optional[int]] = [None] * cfg.num_vcs
        self.lob: Optional["LObEncoder"] = None
        #: next per-VC link sequence number
        self.vc_seq_counters = [0] * cfg.num_vcs
        #: cycle of the most recent positive acknowledgement
        self.last_ack_cycle = -1

    def is_blocked(self, cycle: int, stall_window: int = 24) -> bool:
        """Completely stalled from back pressure (paper Fig. 11 metric).

        Three stall signatures: the retransmission buffer is pinned
        full; every downstream VC's credits are exhausted; or the port
        holds unacknowledged flits but has made no forward progress
        (no ACK) for ``stall_window`` cycles — which catches the case
        where a pinned packet per VC starves VC allocation long before
        the buffer itself fills.
        """
        if self.retrans.is_full:
            return True
        if not any(self.credits.snapshot()):
            return True
        return (
            self.retrans.oldest_wait(cycle) > stall_window
            and cycle - self.last_ack_cycle > stall_window
        )


class EjectPort:
    """Queue from the router to one local core."""

    __slots__ = ("core", "queue", "capacity")

    def __init__(self, core: int, capacity: int):
        self.core = core
        self.queue: deque[Flit] = deque()
        self.capacity = capacity

    @property
    def is_full(self) -> bool:
        return len(self.queue) >= self.capacity


class Router:
    """One mesh router with its local cores' injection/ejection ports."""

    def __init__(
        self,
        cfg: NoCConfig,
        router_id: int,
        route_fn,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.cfg = cfg
        self.id = router_id
        self.route_fn = route_fn
        self.policy = policy or SchedulingPolicy()

        #: flit tallies and stage worklists, updated by the VCs
        self.work = Worklists()
        self.inputs: dict[PortKey, InputPort] = {}
        self.outputs: dict[Direction, OutputPort] = {}
        self.ejects: dict[int, EjectPort] = {}
        for local in range(cfg.concentration):
            self.add_link_input(("inj", local))
            self.ejects[local] = EjectPort(
                cfg.core_of(router_id, local), cfg.ejection_depth
            )

        # Lookups and arbiters are created once wiring is complete.
        #: input ports by wiring position, output ports, and the VC
        #: behind each worklist bit
        self._ports: list[InputPort] = []
        self.out_ports: list[OutputPort] = []
        self._vc_of_bit: dict[int, VCState] = {}
        self._sa_input_arb: dict[PortKey, RoundRobinArbiter] = {}
        self._sa_output_arb: dict[PortKey, RoundRobinArbiter] = {}
        self._va_arb: dict[Direction, RoundRobinArbiter] = {}

        # counters
        self.flits_switched = 0
        self.flits_ejected = 0

        #: input directions whose upstream credit tracker was released
        #: during the most recent :meth:`switch_traverse` call; the
        #: network uses this to wake the upstream router under
        #: active-set stepping.
        self.credit_release_dirs: list[Direction] = []
        #: input-port key of the head currently in route compute (an
        #: adaptive route_fn reads it to refuse 180-degree turns)
        self.routing_input: Optional[PortKey] = None

    # -- wiring (done by Network) ----------------------------------------
    def add_link_input(self, key: PortKey) -> InputPort:
        port = InputPort(key, self.cfg, len(self.work.ports), self.work)
        self.work.ports.append(0)
        self.inputs[key] = port
        return port

    def add_link_output(self, direction: Direction, link: Link) -> OutputPort:
        port = OutputPort(direction, link, self.cfg)
        self.outputs[direction] = port
        return port

    def finish_wiring(self) -> None:
        self._ports = list(self.inputs.values())
        self.out_ports = list(self.outputs.values())
        self._vc_of_bit = {
            vc.bit: vc for port in self._ports for vc in port.vcs
        }
        n_in = len(self._ports)
        for key in self.inputs:
            self._sa_input_arb[key] = RoundRobinArbiter(self.cfg.num_vcs)
        out_keys: list[PortKey] = list(self.outputs.keys()) + [
            ("ej", local) for local in self.ejects
        ]
        for key in out_keys:
            self._sa_output_arb[key] = RoundRobinArbiter(n_in)
        for direction in self.outputs:
            self._va_arb[direction] = RoundRobinArbiter(
                n_in * self.cfg.num_vcs
            )

    # -- BW/RC -------------------------------------------------------------
    def route_compute(self, cycle: int) -> None:
        pending = self.work.rc
        while pending:
            bit = pending & -pending
            pending ^= bit
            vc = self._vc_of_bit[bit]
            head = vc.buffer[0]
            if head.last_move_cycle >= cycle:
                continue
            vc.cur_pkt = head.pkt_id
            direction = None
            if head.dst_router != self.id:
                # arrival port, for routing functions that forbid
                # 180-degree turns (non-minimal containment detours)
                self.routing_input = self._ports[vc.position].key
                direction = self.route_fn(
                    self.id, head.dst_router, head.src_router, self
                )
            if direction is None:
                # Local delivery — or routing says "local" but the id
                # disagrees (can happen after header SDC): eject here
                # and let the endpoint detect the misdelivery.
                local = head.dst_core % self.cfg.concentration
                vc.route_out = ("ej", local)
                vc.out = self.ejects[local]
            else:
                vc.route_out = direction
                vc.out = self.outputs[direction]
            vc.rc_cycle = cycle
            vc.requeue()

    # -- VA -----------------------------------------------------------------
    def vc_allocate(self, cycle: int) -> None:
        pending = self.work.va
        # Bucket requesters by their routed output; outputs with no
        # requesters cost nothing.
        buckets: dict[OutputPort, list[VCState]] = {}
        while pending:
            bit = pending & -pending
            pending ^= bit
            vc = self._vc_of_bit[bit]
            if vc.rc_cycle >= cycle or not vc.buffer[0].is_head:
                continue
            buckets.setdefault(vc.out, []).append(vc)
        num_vcs = self.cfg.num_vcs
        torus = self.cfg.topology == "torus"
        dateline_half = num_vcs // 2
        for out, requesters in buckets.items():
            holders = out.holders
            free_set = {v for v in range(num_vcs) if holders[v] is None}
            if not free_set:
                continue
            allowed_by_flat: dict[int, tuple[VCState, list[int]]] = {}
            for vc in requesters:
                head = vc.buffer[0]
                allowed = [
                    v
                    for v in self.policy.allowed_out_vcs(head, num_vcs)
                    if v in free_set
                ]
                if torus:
                    # dateline VC discipline: low half before the ring's
                    # wrap edge, high half at/after it — the restriction
                    # that makes torus dimension-order routing
                    # deadlock-free (repro.noc.topology.dateline_high)
                    high = dateline_high(
                        self.cfg,
                        self.id,
                        head.src_router,
                        out.direction,
                    )
                    allowed = [
                        v
                        for v in allowed
                        if (v >= dateline_half) == high
                    ]
                if allowed:
                    allowed_by_flat[vc.flat] = (vc, allowed)
            if not allowed_by_flat:
                continue
            vc, allowed = allowed_by_flat[
                self._va_arb[out.direction].grant_indices(allowed_by_flat)
            ]
            grant_vc = allowed[0]
            vc.out_vc = grant_vc
            vc.va_cycle = cycle
            out.holders[grant_vc] = (self._ports[vc.position].key, vc.idx)
            out.holder_pkts[grant_vc] = vc.buffer[0].pkt_id
            vc.requeue()

    # -- SA + ST -------------------------------------------------------------
    def switch_traverse(self, cycle: int) -> int:
        """Run SA then move the winning flits through the crossbar.

        Returns the number of flits switched.
        """
        self.credit_release_dirs.clear()
        pending = self.work.sa
        policy = self.policy
        # Input-side arbitration: each input port nominates one of its
        # movable VCs.
        movable: dict[int, list[int]] = {}
        while pending:
            bit = pending & -pending
            pending ^= bit
            vc = self._vc_of_bit[bit]
            head = vc.buffer[0]
            if head.last_move_cycle >= cycle or vc.rc_cycle >= cycle:
                continue
            if not policy.flit_may_use_switch(head, cycle):
                continue
            out = vc.out
            if vc.out_vc is None:  # ejection
                if out.is_full:
                    continue
            elif (
                vc.va_cycle >= cycle
                or len(out.retrans._entries) >= out.retrans.depth
                or not policy.may_admit_retrans(head, out.retrans)
                or out.credits._credits[vc.out_vc] <= 0
            ):
                continue
            if vc.position in movable:
                movable[vc.position].append(vc.idx)
            else:
                movable[vc.position] = [vc.idx]
        ports = self._ports
        nominations: dict[int, VCState] = {}
        requests_per_out: dict[PortKey, list[int]] = {}
        for position, idxs in movable.items():
            port = ports[position]
            vc = port.vcs[self._sa_input_arb[port.key].grant_indices(idxs)]
            nominations[position] = vc
            if vc.route_out in requests_per_out:
                requests_per_out[vc.route_out].append(position)
            else:
                requests_per_out[vc.route_out] = [position]

        # Output-side arbitration: one winner per output.
        for out_key, positions in requests_per_out.items():
            vc = nominations[
                self._sa_output_arb[out_key].grant_indices(positions)
            ]
            flit = vc.pop()
            flit.last_move_cycle = cycle
            out = vc.out
            if vc.out_vc is None:  # ejection
                out.queue.append(flit)
            else:
                tag = out.retrans.admit(flit, vc.out_vc, cycle)
                assert tag is not None, "retrans admit after is_full check"
                entry = out.retrans.get(tag)
                entry.vc_seq = out.vc_seq_counters[vc.out_vc]
                out.vc_seq_counters[vc.out_vc] += 1
                out.credits.consume(vc.out_vc)

            # Free the input buffer slot: return a credit upstream.
            port = ports[vc.position]
            if port.upstream_credits is not None:
                port.upstream_credits.release(vc.idx, cycle)
                self.credit_release_dirs.append(port.key)

            if flit.is_tail:
                vc.reset_packet_state()
        moved = len(requests_per_out)
        self.flits_switched += moved
        return moved

    # -- LT (output side) -----------------------------------------------------
    def launch_links(self, cycle: int, codec: "Secded") -> list:
        """Launch one ready flit per output link; returns the keys of
        the links launched on."""
        launched = []
        for out in self.out_ports:
            link = out.link
            # the emptiness tests in the stepping loops read the
            # containers directly: a property read is a Python call
            if not out.retrans._order or link.disabled or link.paused:
                continue
            candidates = [
                entry
                for entry in out.retrans.ready_entries(cycle)
                if self.policy.flit_may_use_link(entry.flit, cycle)
            ]
            if not candidates:
                continue
            if out.lob is not None:
                selection = out.lob.select_and_encode(candidates, cycle)
                if selection is None:
                    continue
                entry, data, descriptor = selection
            else:
                entry = candidates[0]
                data, descriptor = entry.flit.data, None
            codeword = codec.encode(data)
            tx = Transmission(
                tag=entry.tag,
                vc=entry.out_vc,
                vc_seq=entry.vc_seq,
                codeword=codeword,
                flit=entry.flit,
                ob=descriptor,
                launch_cycle=cycle,
            )
            link.launch(tx, cycle)
            out.retrans.mark_launched(entry.tag, cycle)
            launched.append((self.id, out.direction))
        return launched

    # -- ACK processing ----------------------------------------------------
    def process_acks(self, cycle: int) -> None:
        for out in self.out_ports:
            if not out.link._acks:
                continue
            for ack in out.link.pop_acks(cycle):
                if out.link.ack_hooks:
                    entry_for_hook = out.retrans.get(ack.tag)
                    flit = entry_for_hook.flit if entry_for_hook else None
                    for hook in out.link.ack_hooks:
                        hook(ack, cycle, flit)
                if ack.ok:
                    out.last_ack_cycle = cycle
                    entry = out.retrans.on_ack(ack.tag)
                    if entry is not None and entry.flit.is_tail:
                        # Tail safely across: the downstream VC may now be
                        # re-allocated to another packet.
                        out.holders[entry.out_vc] = None
                        out.holder_pkts[entry.out_vc] = None
                    if out.lob is not None and ack.ob_success is not None:
                        out.lob.record_success(
                            ack.flow_signature, ack.ob_success
                        )
                else:
                    out.retrans.on_nack(ack.tag, ack.advice)

    # -- ejection ------------------------------------------------------------
    def drain_ejects(self, cycle: int) -> list[Flit]:
        """Each local core consumes at most one flit per cycle."""
        delivered = []
        for port in self.ejects.values():
            if port.queue:
                flit = port.queue.popleft()
                flit.ejected_cycle = cycle
                delivered.append(flit)
                self.flits_ejected += 1
        return delivered

    # -- introspection ------------------------------------------------------
    def holds_flits(self) -> bool:
        """A flit sits in an input VC, a link input's receive pipeline
        or an ejection queue (attribute reads, no buffer scans)."""
        if self.work.flits:
            return True
        for port in self._ports:
            if port.receiver is not None and port.receiver.staged_count:
                return True
        for eject in self.ejects.values():
            if eject.queue:
                return True
        return False

    def link_input_occupancy(self) -> int:
        return self.work.flits - self.injection_occupancy()

    def injection_occupancy(self) -> int:
        # injection ports are wired first, one per local core
        return sum(self.work.ports[:self.cfg.concentration])

    def output_occupancy(self) -> int:
        return sum(out.retrans.occupancy for out in self.outputs.values())

    def any_output_blocked(self, cycle: int) -> bool:
        return any(out.is_blocked(cycle) for out in self.outputs.values())

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` this router may do work, or
        ``None`` when it holds no state at all.

        Buffered flits, staged receiver deliveries and ejection queues
        pin the clock to "now" (their pipeline guards are per-cycle);
        the only *future* demands a router can prove are deferred
        retransmission entries and credit returns still in flight.  Its
        links' wires are accounted separately through the network's
        active-link set.
        """
        if self.holds_flits():
            return cycle
        best: Optional[int] = None
        for out in self.outputs.values():
            for when in (
                out.retrans.next_event_cycle(cycle),
                out.credits.next_visible_cycle(),
            ):
                if when is not None:
                    if when <= cycle:
                        return cycle
                    if best is None or when < best:
                        best = when
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router(id={self.id})"
