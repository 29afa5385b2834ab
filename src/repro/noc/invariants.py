"""Runtime invariant checking for the simulator.

A :class:`NetworkValidator` audits a live network for the conservation
laws the microarchitecture must uphold no matter what faults or trojans
are active.  The test suite runs it inside fault-injection campaigns;
the sentinel (:mod:`repro.sim.sentinel`) runs it online inside
:class:`~repro.sim.engine.Simulation`; users can attach it while
debugging their own extensions::

    validator = NetworkValidator(net)
    for _ in range(1000):
        net.step()
        validator.check()   # raises InvariantViolation with a report

Checked invariant families (selectable via ``families``):

* ``credit`` — for every (link, VC): visible upstream credits +
  in-flight credit returns + downstream occupancy (buffered or staged)
  + not-yet-accepted retransmission entries == VC depth;
* ``buffer`` — no VC buffer, ejection queue or retransmission buffer
  ever exceeds its capacity;
* ``holder`` — every held output VC refers to a real input VC whose
  allocation agrees;
* ``flit`` — every injected flit is ejected, dropped, or findable
  exactly once inside the network;
* ``counters`` — the state the routers and receivers keep incrementally
  (flit tallies per router and per input port, the per-stage VC
  worklists, each VC's resolved output port, each receiver's staged
  count) agrees with a recount from the VC buffers and staging stores,
  every link whose retransmission buffer holds an entry a NACK
  re-armed is in ``Network.retrying``, the set the watchdog walks, and
  no injection backlog or receiver skip set is kept once empty.

The flit sweep, and the ``credit``, ``buffer`` and ``counters`` checks
with it, support two scopes.  ``"full"`` walks every router and link.
``"active"`` walks only the network's active sets — settled
components provably hold no flits (settlement requires empty VC
buffers, retransmission buffers, staging stores and eject queues), so
the two scopes agree whenever the active-set bookkeeping is intact.
``"active"`` is what keeps the online sentinel cheap on drain-heavy
traffic; code that mutates network state behind the engine's back must
call :meth:`~repro.noc.network.Network.wake_all` first or audit with
``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.network import Network
from repro.noc.retrans import EntryState
from repro.noc.topology import Direction

#: every invariant family, in audit order
FAMILIES = ("credit", "buffer", "holder", "flit", "counters")


class InvariantViolation(RuntimeError):
    """A conservation law broke — the report names where.

    Deliberately a :class:`RuntimeError`, not an ``AssertionError``:
    stripped-assert interpreters (``python -O``) and broad
    ``pytest.raises(AssertionError)`` idioms must never swallow a real
    conservation failure.  The full :class:`ValidationReport` rides on
    the exception as ``report``.
    """

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class ValidationReport:
    """Accumulated audit outcome.

    Repeated *identical* violation messages are folded into
    ``duplicates`` (a validator polled in a loop over a broken network
    would otherwise grow its list without bound), and once
    ``max_violations`` distinct messages are listed further distinct
    ones only bump ``overflow``.
    """

    checks: int = 0
    violations: list[str] = field(default_factory=list)
    #: identical messages suppressed after their first occurrence
    duplicates: int = 0
    #: distinct messages dropped after the list hit ``max_violations``
    overflow: int = 0
    #: distinct-violation counts keyed by invariant family
    by_family: dict[str, int] = field(default_factory=dict)
    max_violations: int = 200
    _seen: set = field(default_factory=set, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_failures(self) -> int:
        """Every failed assertion ever observed, folded or not."""
        return len(self.violations) + self.duplicates + self.overflow

    def record(self, family: str, message: str) -> None:
        if message in self._seen:
            self.duplicates += 1
            return
        self._seen.add(message)
        self.by_family[family] = self.by_family.get(family, 0) + 1
        if len(self.violations) >= self.max_violations:
            self.overflow += 1
            return
        self.violations.append(message)


class NetworkValidator:
    """Audits a network's conservation laws.

    ``families`` selects which invariant families run (default: all);
    ``flit_scope`` picks the flit-conservation sweep (``"full"`` or
    ``"active"``, see the module docstring).
    """

    def __init__(
        self,
        network: Network,
        *,
        families: tuple = FAMILIES,
        flit_scope: str = "full",
        max_violations: int = 200,
    ):
        unknown = set(families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown invariant families: {sorted(unknown)}")
        if flit_scope not in ("full", "active"):
            raise ValueError(f"unknown flit_scope {flit_scope!r}")
        self.net = network
        self.families = tuple(families)
        self.flit_scope = flit_scope
        self.report = ValidationReport(max_violations=max_violations)

    # ------------------------------------------------------------------
    def check(self, raise_on_violation: bool = True) -> ValidationReport:
        self.report.checks += 1
        if "credit" in self.families:
            self._check_credit_conservation()
        if "buffer" in self.families:
            self._check_buffer_bounds()
        if "holder" in self.families:
            self._check_holders()
        if "flit" in self.families:
            self._check_flit_conservation()
        if "counters" in self.families:
            self._check_counters()
        if raise_on_violation and not self.report.ok:
            raise InvariantViolation(
                "; ".join(self.report.violations[-5:]), self.report
            )
        return self.report

    def _fail(self, family: str, message: str) -> None:
        self.report.record(family, message)

    # ------------------------------------------------------------------
    def _check_credit_conservation(self) -> None:
        net = self.net
        num_vcs = net.cfg.num_vcs
        all_visible = [net.cfg.vc_depth] * num_vcs
        active_r, active_l = (
            (net._active_routers, net._active_links)
            if self.flit_scope == "active"
            else (None, None)
        )
        for key, (link, receiver, in_port, out) in net._wiring.items():
            visible = out.credits._credits
            if (
                active_r is not None
                and visible == all_visible
                and key not in active_l
                and link.src_router not in active_r
                and link.dst_router not in active_r
            ):
                # both ends settled and the wire idle: nothing is
                # pending, unaccepted or buffered, so the full depth of
                # every VC must be visible, and it is
                continue
            pending = [0] * num_vcs
            for _, vc in out.credits._pending:
                pending[vc] += 1
            # an entry's reserved slot becomes *occupancy* once the
            # downstream receiver accepts it (staged or delivered)
            unaccepted = [0] * num_vcs
            for entry in out.retrans._entries.values():
                vc = entry.out_vc
                if (
                    entry.vc_seq >= receiver._expected_seq[vc]
                    and entry.vc_seq not in receiver._staging[vc]
                ):
                    unaccepted[vc] += 1
            for vc in range(num_vcs):
                occupancy = (
                    len(in_port.vcs[vc].buffer) + len(receiver._staging[vc])
                )
                total = visible[vc] + pending[vc] + unaccepted[vc] + occupancy
                if total != net.cfg.vc_depth:
                    self._fail(
                        "credit",
                        f"credit conservation on link {key} vc {vc}: "
                        f"visible={visible[vc]} pending={pending[vc]} "
                        f"unaccepted={unaccepted[vc]} occupancy={occupancy} "
                        f"!= depth {net.cfg.vc_depth}",
                    )

    def _check_buffer_bounds(self) -> None:
        # a settled router's buffers are empty, so the flit sweep's
        # scope loses nothing here either
        routers, _ = self._flit_sweep_scope()
        for router in routers:
            for pkey, port in router.inputs.items():
                for vc in port.vcs:
                    if len(vc.buffer) > vc.capacity:
                        self._fail(
                            "buffer",
                            f"router {router.id} input {pkey} vc {vc.idx} "
                            f"over capacity: {len(vc.buffer)}>{vc.capacity}",
                        )
            for direction, out in router.outputs.items():
                if out.retrans.occupancy > out.retrans.depth:
                    self._fail(
                        "buffer",
                        f"router {router.id} output {direction.name} "
                        "retransmission buffer over depth",
                    )
            for local, eject in router.ejects.items():
                if len(eject.queue) > eject.capacity:
                    self._fail(
                        "buffer",
                        f"router {router.id} eject {local} over capacity",
                    )

    def _check_holders(self) -> None:
        net = self.net
        for router in net.routers:
            for direction, out in router.outputs.items():
                for out_vc, holder in enumerate(out.holders):
                    if holder is None:
                        continue
                    in_key, vc_idx = holder
                    port = router.inputs.get(in_key)
                    if port is None:
                        self._fail(
                            "holder",
                            f"router {router.id} output {direction.name} "
                            f"vc {out_vc} held by unknown port {in_key}",
                        )
                        continue
                    vc = port.vcs[vc_idx]
                    if vc.out_vc == out_vc:
                        continue  # active allocation agrees
                    # otherwise the held packet's tail must already have
                    # switched out and be awaiting its ACK in the
                    # retransmission buffer (the holder clears on tail
                    # ACK); the input VC may even have started a new
                    # packet on a different out VC by then
                    tail_pending = any(
                        entry.out_vc == out_vc and entry.flit.is_tail
                        for entry in out.retrans
                    )
                    if not tail_pending:
                        self._fail(
                            "holder",
                            f"router {router.id}: holder mismatch on "
                            f"{direction.name} vc {out_vc}",
                        )

    def _flit_sweep_scope(self):
        """(routers, link_keys) the flit sweep must walk.

        In ``"active"`` scope on an active-set-stepped network the
        sweep is restricted to the active sets: a settled router/link
        holds no flits by the definition of settlement, so restricting
        the sweep cannot change the verdict.  Full-sweep networks keep
        their active sets maximal, so the scopes coincide there.
        """
        net = self.net
        if self.flit_scope == "active":
            active_r = net._active_routers
            active_l = net._active_links
            return (
                [r for r in net.routers if r.id in active_r],
                [k for k in net._link_keys if k in active_l],
            )
        return net.routers, net._link_keys

    def _check_flit_conservation(self) -> None:
        net = self.net
        routers, link_keys = self._flit_sweep_scope()
        ids: set[int] = set()
        for router in routers:
            for port in router.inputs.values():
                for vc in port.vcs:
                    if vc.buffer:
                        ids.update(map(id, vc.buffer))
            for out in router.outputs.values():
                ids.update(id(e.flit) for e in out.retrans)
            for eject in router.ejects.values():
                ids.update(id(f) for f in eject.queue)
        for key in link_keys:
            receiver = net.receiver_of(key)
            for store in receiver._staging.values():
                ids.update(id(s.flit) for s in store.values())
        in_network = len(ids)
        accounted = (
            net.stats.flits_ejected + in_network + net.stats.dropped_flits
        )
        if accounted != net.stats.flits_injected:
            self._fail(
                "flit",
                f"flit conservation: injected={net.stats.flits_injected} "
                f"ejected={net.stats.flits_ejected} in_network={in_network} "
                f"dropped={net.stats.dropped_flits}",
            )

    def _check_counters(self) -> None:
        """Recount the incrementally kept router and receiver figures
        from scratch and report any drift, over the same scope as the
        flit sweep.  An active-scoped audit may skip settled routers:
        tallies that missed a buffered flit would let its router
        settle, stranding the flit outside the active sets, where the
        flit sweep's conservation count misses it and fails.  State
        kept only while in use (injection backlogs, receiver skip sets)
        must not outlive its use."""
        net = self.net
        for core, backlog in net._backlogs.items():
            if not backlog:
                self._fail(
                    "counters", f"core {core}: an empty backlog is kept"
                )
        routers, link_keys = self._flit_sweep_scope()
        for router in routers:
            work = router.work
            lists = {"rc": 0, "va": 0, "sa": 0}
            total = 0
            for position, (pkey, port) in enumerate(router.inputs.items()):
                held = sum(len(vc.buffer) for vc in port.vcs)
                if work.ports[position] != held:
                    self._fail(
                        "counters",
                        f"router {router.id} input {pkey}: flit tally "
                        f"{work.ports[position]} != {held} buffered",
                    )
                total += held
                for vc_idx, vc in enumerate(port.vcs):
                    if vc.buffer:
                        stage = _worklist_of(vc)
                        if stage is not None:
                            lists[stage] |= vc.bit
                    if (
                        vc.route_out is not None or vc.out is not None
                    ) and vc.out is not _resolved_output(router, vc.route_out):
                        self._fail(
                            "counters",
                            f"router {router.id} input {pkey} vc {vc_idx}: "
                            f"resolved output disagrees with route "
                            f"{vc.route_out}",
                        )
            if work.flits != total:
                self._fail(
                    "counters",
                    f"router {router.id}: flit tally {work.flits} != "
                    f"{total} buffered",
                )
            queued = sum(len(eject.queue) for eject in router.ejects.values())
            if work.ejects != queued:
                self._fail(
                    "counters",
                    f"router {router.id}: eject tally {work.ejects} != "
                    f"{queued} queued",
                )
            for stage, expected in lists.items():
                if getattr(work, stage) != expected:
                    self._fail(
                        "counters",
                        f"router {router.id}: {stage} worklist "
                        f"{getattr(work, stage):#x} != {expected:#x}",
                    )
            for out in router.out_ports:
                key = (router.id, out.direction)
                if key not in net.retrying and any(
                    _rearmed(entry) for entry in out.retrans._entries.values()
                ):
                    self._fail(
                        "counters",
                        f"link {key}: a re-armed retransmission entry on "
                        f"a link the watchdog does not walk",
                    )
        for key in link_keys:
            receiver = net.receiver_of(key)
            staged = sum(len(store) for store in receiver._staging.values())
            if receiver.staged_count != staged:
                self._fail(
                    "counters",
                    f"link {key}: staged count {receiver.staged_count} "
                    f"!= {staged} staged",
                )
            for vc, store in receiver._staging.items():
                if (store or vc in receiver._skipped) and not (
                    receiver._live >> vc & 1
                ):
                    self._fail(
                        "counters",
                        f"link {key} vc {vc}: staged or skipped sequence "
                        f"numbers on a VC the resequencer does not visit",
                    )
            for vc, skipped in receiver._skipped.items():
                if not skipped:
                    self._fail(
                        "counters",
                        f"link {key} vc {vc}: an empty skip set is kept",
                    )


def _rearmed(entry) -> bool:
    """A NACK re-armed the entry: it is READY after a send, or was sent
    again after one (only a NACK makes a sent entry READY)."""
    return entry.send_count >= 2 or (
        entry.send_count >= 1 and entry.state is EntryState.READY
    )


def _worklist_of(vc) -> "str | None":
    """The stage worklist a VC belongs on, derived from its buffer and
    pinned state alone (the definition in repro.noc.router.Worklists)."""
    if not vc.buffer:
        return None
    if vc.route_out is None:
        return "rc" if vc.buffer[0].is_head else None
    if vc.out_vc is None and isinstance(vc.route_out, Direction):
        return "va"
    return "sa"


def _resolved_output(router, route):
    """The port object route compute must have resolved ``route`` to."""
    if route is None:
        return None
    if isinstance(route, tuple):
        return router.ejects.get(route[1])
    return router.outputs.get(route)
