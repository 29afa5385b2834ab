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

from typing import Optional, Union, TYPE_CHECKING

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.config import NoCConfig
from repro.noc.credit import CreditTracker
from repro.noc.flit import Flit
from repro.noc.link import Link, Transmission, pop_due
from repro.noc.receiver import EccReceiver
from repro.noc.retrans import EntryState, RetransBuffer
from repro.noc.topology import Direction, dateline_high

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.lob import LObEncoder
    from repro.ecc import Secded

_READY = EntryState.READY
_IN_FLIGHT = EntryState.IN_FLIGHT

#: Input ports: a mesh direction or ("inj", local core index).
#: Output targets: a mesh direction or ("ej", local core index).
PortKey = Union[Direction, tuple[str, int]]


#: the per-flit hooks of :class:`SchedulingPolicy`
_POLICY_HOOKS = (
    "flit_may_use_switch",
    "flit_may_use_link",
    "allowed_out_vcs",
    "may_inject",
    "may_admit_retrans",
)


class SchedulingPolicy:
    """Hook points for QoS schemes (overridden by the TDM baseline).

    The defaults allow everything, so the router and network call a
    hook per flit only when the policy's class overrides it; ``gated``
    names those hooks and is derived for every subclass.
    """

    gated: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.gated = frozenset(
            name
            for name in _POLICY_HOOKS
            if getattr(cls, name) is not getattr(SchedulingPolicy, name)
        )

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
    ``ports[p]`` those of the input port at wiring position ``p``, and
    ``ejects`` those waiting in the router's ejection queues.  The
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

    __slots__ = ("flits", "ports", "ejects", "rc", "va", "sa")

    def __init__(self) -> None:
        self.flits = 0
        self.ports: list[int] = []
        self.ejects = 0
        self.rc = self.va = self.sa = 0


class VCState:
    """One virtual channel of an input port."""

    __slots__ = ("capacity", "buffer", "route_out", "out", "rc_cycle",
                 "out_vc", "va_cycle", "cur_pkt", "position", "idx", "flat",
                 "bit", "_work")

    def __init__(self, capacity: int, position: int, idx: int, flat: int,
                 work: Worklists):
        self.capacity = capacity
        #: at most ``capacity`` flits, oldest first: a bounded FIFO this
        #: short is a list, whose head pop moves at most a few pointers
        #: (a deque allocates a 64-slot block per VC)
        self.buffer: list[Flit] = []
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
        flit = self.buffer.pop(0)
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

    __slots__ = ("key", "vcs", "receiver", "upstream_credits",
                 "upstream_router")

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
        #: id of the router at the far end of the input link
        self.upstream_router: Optional[int] = None


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
        entries = self.retrans._entries
        if len(entries) >= self.retrans.depth:
            return True
        if not any(self.credits._credits):
            return True
        if cycle - self.last_ack_cycle <= stall_window:
            return False
        for oldest in entries.values():
            return cycle - oldest.admitted_cycle > stall_window
        return False

    def process_acks(self, cycle: int) -> bool:
        """Retire or re-arm the retransmission entries whose ACK/NACK
        reaches this port by ``cycle`` (the reverse wire is a FIFO).
        Returns whether a NACK re-armed an entry."""
        link = self.link
        retrans = self.retrans
        entries = retrans._entries
        rearmed = False
        for _when, ack in pop_due(link._acks, cycle):
            if link.ack_hooks:
                entry_for_hook = entries.get(ack.tag)
                flit = entry_for_hook.flit if entry_for_hook else None
                for hook in link.ack_hooks:
                    hook(ack, cycle, flit)
            if ack.ok:
                self.last_ack_cycle = cycle
                # RetransBuffer.on_ack, inlined
                entry = entries.pop(ack.tag, None)
                if entry is not None:
                    retrans.acks_received += 1
                    if entry.flit.is_tail:
                        # Tail safely across: the downstream VC may now
                        # be re-allocated to another packet.
                        self.holders[entry.out_vc] = None
                        self.holder_pkts[entry.out_vc] = None
                if self.lob is not None and ack.ob_success is not None:
                    self.lob.record_success(ack.flow_signature, ack.ob_success)
            elif retrans.on_nack(ack.tag, ack.advice):
                rearmed = True
        return rearmed


class EjectPort:
    """Queue from the router to one local core."""

    __slots__ = ("core", "queue", "capacity")

    def __init__(self, core: int, capacity: int):
        self.core = core
        #: at most ``capacity`` flits, oldest first (a list, like a VC
        #: buffer)
        self.queue: list[Flit] = []
        self.capacity = capacity


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
        self.num_routers = cfg.num_routers
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
        #: switch arbiters: per input port by wiring position, and per
        #: OutputPort or EjectPort
        self._sa_input_arb: list[RoundRobinArbiter] = []
        self._sa_output_arb: dict[object, RoundRobinArbiter] = {}
        self._va_arb: dict[Direction, RoundRobinArbiter] = {}

        # counters
        self.flits_switched = 0
        self.flits_ejected = 0

        #: upstream routers whose credit tracker got a return during the
        #: most recent :meth:`switch_traverse` call; the network wakes
        #: them under active-set stepping.
        self.credit_woken: list[int] = []
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
        self._sa_input_arb = [
            RoundRobinArbiter(self.cfg.num_vcs) for _ in self._ports
        ]
        for port in [*self.outputs.values(), *self.ejects.values()]:
            self._sa_output_arb[port] = RoundRobinArbiter(n_in)
        for direction in self.outputs:
            self._va_arb[direction] = RoundRobinArbiter(
                n_in * self.cfg.num_vcs
            )

    # -- BW/RC -------------------------------------------------------------
    def route_compute(self, cycle: int) -> None:
        pending = self.work.rc
        num_routers = self.num_routers
        while pending:
            bit = pending & -pending
            pending ^= bit
            vc = self._vc_of_bit[bit]
            head = vc.buffer[0]
            if head.last_move_cycle >= cycle:
                continue
            vc.cur_pkt = head.pkt_id
            direction = None
            if (
                head.dst_router != self.id
                and head.dst_router < num_routers
                and head.src_router < num_routers
            ):
                # arrival port, for routing functions that forbid
                # 180-degree turns (non-minimal containment detours)
                self.routing_input = self._ports[vc.position].key
                direction = self.route_fn(
                    self.id, head.dst_router, head.src_router, self
                )
            if direction is None:
                # Local delivery — or, after header SDC, routing says
                # "local" but the id disagrees, or the header names no
                # router (a field wider than the router count): eject
                # here and let the endpoint detect the misdelivery.
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
        policy = self.policy
        gated = "allowed_out_vcs" in policy.gated
        for out, requesters in buckets.items():
            holders = out.holders
            free = [v for v in range(num_vcs) if holders[v] is None]
            if not free:
                continue
            allowed_by_flat: dict[int, tuple[VCState, list[int]]] = {}
            for vc in requesters:
                head = vc.buffer[0]
                if gated:
                    allowed = [
                        v
                        for v in policy.allowed_out_vcs(head, num_vcs)
                        if v in free
                    ]
                else:
                    allowed = free
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
        self.credit_woken.clear()
        pending = self.work.sa
        policy = self.policy
        switch_gate = "flit_may_use_switch" in policy.gated
        admit_gate = "may_admit_retrans" in policy.gated
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
            if switch_gate and not policy.flit_may_use_switch(head, cycle):
                continue
            out = vc.out
            if vc.out_vc is None:  # ejection
                if len(out.queue) >= out.capacity:
                    continue
            elif (
                vc.va_cycle >= cycle
                or len(out.retrans._entries) >= out.retrans.depth
                or (
                    admit_gate
                    and not policy.may_admit_retrans(head, out.retrans)
                )
                or out.credits._credits[vc.out_vc] <= 0
            ):
                continue
            if vc.position in movable:
                movable[vc.position].append(vc.idx)
            else:
                movable[vc.position] = [vc.idx]
        ports = self._ports
        input_arbs = self._sa_input_arb
        nominations: dict[int, VCState] = {}
        # keyed by the routed OutputPort/EjectPort, one per route_out
        requests_per_out: dict[object, list[int]] = {}
        for position, idxs in movable.items():
            vc = ports[position].vcs[input_arbs[position].grant_indices(idxs)]
            nominations[position] = vc
            if vc.out in requests_per_out:
                requests_per_out[vc.out].append(position)
            else:
                requests_per_out[vc.out] = [position]

        # Output-side arbitration: one winner per output.
        for out, positions in requests_per_out.items():
            vc = nominations[
                self._sa_output_arb[out].grant_indices(positions)
            ]
            flit = vc.pop()
            flit.last_move_cycle = cycle
            out_vc = vc.out_vc
            if out_vc is None:  # ejection
                out.queue.append(flit)
                self.work.ejects += 1
            else:
                seqs = out.vc_seq_counters
                tag = out.retrans.admit(flit, out_vc, cycle, seqs[out_vc])
                assert tag is not None, "retrans admit after is_full check"
                seqs[out_vc] += 1
                # CreditTracker.consume, inlined: the credit was
                # checked above and only this flit claims the output
                credits = out.credits
                credits._credits[out_vc] -= 1
                credits.consumed_total += 1

            # Free the input buffer slot: return a credit upstream.
            port = ports[vc.position]
            if port.upstream_credits is not None:
                port.upstream_credits.release(vc.idx, cycle)
                self.credit_woken.append(port.upstream_router)

            if flit.is_tail:
                vc.reset_packet_state()
        moved = len(requests_per_out)
        self.flits_switched += moved
        return moved

    # -- LT (output side) -----------------------------------------------------
    def launch_links(self, cycle: int, codec: "Secded") -> list:
        """Launch one ready flit per output link; returns the keys of
        the links launched on.

        A word is SECDED-encoded only for a link with a tamperer:
        nothing else can alter it before the receiver, and there a
        clean decode returns the word itself.  A launch hook on an
        unencoded link sees ``tx.codeword is None == original``, so it
        observes no corruption.
        """
        launched = []
        policy = self.policy
        link_gate = "flit_may_use_link" in policy.gated
        for out in self.out_ports:
            entries = out.retrans._entries
            link = out.link
            # the emptiness tests in the stepping loops read the
            # containers directly: a property read is a Python call
            if not entries or link.disabled:
                continue
            if out.lob is None:
                # the oldest sendable entry, if any is due
                for entry in entries.values():
                    if (
                        entry.state is _READY
                        and entry.defer_until <= cycle
                        and (
                            not link_gate
                            or policy.flit_may_use_link(entry.flit, cycle)
                        )
                    ):
                        break
                else:
                    continue
                data, descriptor = entry.flit.data, None
            else:
                candidates = [
                    entry
                    for entry in out.retrans.ready_entries(cycle)
                    if not link_gate
                    or policy.flit_may_use_link(entry.flit, cycle)
                ]
                if not candidates:
                    continue
                selection = out.lob.select_and_encode(candidates, cycle)
                if selection is None:
                    continue
                entry, data, descriptor = selection
            link.launch(
                Transmission(
                    entry.tag, entry.out_vc, entry.vc_seq,
                    codec.encode(data) if link.tamperers else None,
                    entry.flit, descriptor, cycle, data,
                ),
                cycle,
            )
            # RetransBuffer.mark_launched, inlined: the entry is READY
            entry.state = _IN_FLIGHT
            entry.send_count += 1
            entry.last_send_cycle = cycle
            launched.append((self.id, out.direction))
        return launched

    # -- ejection ------------------------------------------------------------
    def drain_ejects(self, cycle: int) -> list[Flit]:
        """Each local core consumes at most one flit per cycle."""
        delivered = []
        for port in self.ejects.values():
            if port.queue:
                flit = port.queue.pop(0)
                flit.ejected_cycle = cycle
                delivered.append(flit)
        self.flits_ejected += len(delivered)
        self.work.ejects -= len(delivered)
        return delivered

    # -- introspection ------------------------------------------------------
    def holds_flits(self) -> bool:
        """A flit sits in an input VC, a link input's receive pipeline
        or an ejection queue (attribute reads, no buffer scans)."""
        if self.work.flits or self.work.ejects:
            return True
        for port in self._ports:
            if port.receiver is not None and port.receiver.staged_count:
                return True
        return False

    def link_input_occupancy(self) -> int:
        return self.work.flits - self.injection_occupancy()

    def injection_occupancy(self) -> int:
        # injection ports are wired first, one per local core
        return sum(self.work.ports[:self.cfg.concentration])

    def output_occupancy(self) -> int:
        return sum(len(out.retrans._entries) for out in self.out_ports)

    def any_output_blocked(self, cycle: int) -> bool:
        for out in self.out_ports:
            if out.is_blocked(cycle):
                return True
        return False

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
