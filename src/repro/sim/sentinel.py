"""Online invariant sentinel: continuous in-run failure detection.

The paper's whole attack surface lives in the gap between "the network
looks alive" and "a conservation law has quietly broken" — TASP pins
retransmission slots and deadlocks the chip while every router keeps
clocking.  The :class:`Sentinel` closes that gap: it rides on
:attr:`repro.noc.network.Network.monitors` inside a
:class:`~repro.sim.engine.Simulation` and audits the run *while it
executes* instead of post-mortem:

* the :class:`~repro.noc.invariants.NetworkValidator` conservation
  families, at a configurable cadence, with the flit sweep scoped to
  the active set so active-set stepping stays fast;
* a **global-deadlock** detector — no flit movement of any kind
  (injection, ejection, drop, link traversal) for ``deadlock_window``
  cycles while flits are still in the network;
* a **livelock** detector — one retransmission entry re-launched
  ``livelock_sends`` times without ever being accepted (the signature
  of a TASP-pinned slot: the link stays busy, nothing advances).

A detection raises :class:`SentinelTrip` (an
:class:`~repro.noc.invariants.InvariantViolation`) out of
``Simulation.step()``; with forensics enabled
(:meth:`~repro.sim.engine.Simulation.enable_forensics`) the trip is
captured as a self-contained repro bundle.

The sentinel is a pure observer: it never mutates network state, so a
run with the sentinel attached produces bit-identical
:class:`~repro.noc.stats.NetworkStats` to one without (proof in
``tests/test_sim_sentinel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.invariants import (
    FAMILIES,
    InvariantViolation,
    NetworkValidator,
    ValidationReport,
)
from repro.noc.network import Network


@dataclass(frozen=True)
class SentinelSpec:
    """Scenario-level sentinel configuration (JSON-round-trippable).

    ``every <= 0`` disables the sentinel entirely.  ``flit_scope``
    chooses between the exhaustive flit-conservation sweep (``"full"``)
    and the active-set-restricted one (``"active"``, the default: same
    verdicts, a fraction of the cost on drain-heavy traffic).
    """

    #: audit cadence in cycles (<= 0 disables)
    every: int = 64
    #: invariant families to run (see repro.noc.invariants.FAMILIES)
    families: tuple[str, ...] = FAMILIES
    #: "active" (sampled to the active set) or "full" (exhaustive)
    flit_scope: str = "active"
    #: no movement for this many cycles with occupancy > 0 => deadlock
    deadlock_window: int = 1000
    #: one retrans entry sent this many times unaccepted => livelock
    livelock_sends: int = 64
    #: distinct violations kept on the report before overflow counting
    max_violations: int = 50


class SentinelTrip(InvariantViolation):
    """The sentinel detected a failure mid-run.

    ``kind`` is the machine-readable failure signature
    (``"deadlock"``, ``"livelock"``, or ``"invariant:<families>"``);
    ``cycle`` is the network clock at detection.
    """

    def __init__(
        self,
        kind: str,
        cycle: int,
        message: str,
        report: "ValidationReport | None" = None,
    ):
        super().__init__(message, report)
        self.kind = kind
        self.cycle = cycle


class Sentinel:
    """Per-cycle monitor implementing the ``on_cycle`` protocol.

    Attach via ``network.monitors.append(sentinel)`` (the engine does
    this when ``Scenario.sentinel`` is set).  All state is plain data,
    so a checkpointed simulation carries its sentinel — detector
    windows included — across snapshot/restore.
    """

    def __init__(self, spec: SentinelSpec):
        # fail at build time, not at the first audit: a scenario decoded
        # from JSON may carry families/scopes this build doesn't know
        unknown = set(spec.families) - set(FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown invariant families: {sorted(unknown)}"
            )
        if spec.flit_scope not in ("full", "active"):
            raise ValueError(f"unknown flit_scope {spec.flit_scope!r}")
        self.spec = spec
        self.validator: NetworkValidator | None = None
        self.checks = 0
        self._recorded_failures = 0
        self._move_sig: tuple = ()
        self._last_move_cycle = 0

    @property
    def report(self) -> "ValidationReport | None":
        return self.validator.report if self.validator is not None else None

    # ------------------------------------------------------------------
    def _bind(self, network: Network) -> NetworkValidator:
        validator = self.validator
        if validator is None or validator.net is not network:
            validator = NetworkValidator(
                network,
                families=self.spec.families,
                flit_scope=self.spec.flit_scope,
                max_violations=self.spec.max_violations,
            )
            self.validator = validator
            self._recorded_failures = 0
        return validator

    def _movement_signature(self, network: Network) -> tuple:
        stats = network.stats
        traversals = 0
        for link in network.links.values():
            traversals += link.traversals
        return (
            stats.flits_injected,
            stats.flits_ejected,
            stats.dropped_flits,
            traversals,
        )

    def _in_network(self, network: Network) -> int:
        stats = network.stats
        return (
            stats.flits_injected
            - stats.flits_ejected
            - stats.dropped_flits
        )

    def next_event_cycle(self, network: Network, cycle: int):
        """Event-engine contract: the sentinel is a pure cadence — all
        of its state updates and detections happen on audit cycles
        (multiples of ``spec.every``), so it only demands those."""
        every = self.spec.every
        if every <= 0:
            return None
        if cycle % every == 0:
            return cycle
        return (cycle // every + 1) * every

    # ------------------------------------------------------------------
    def on_cycle(self, network: Network, cycle: int) -> None:
        spec = self.spec
        if spec.every <= 0 or cycle % spec.every:
            return
        self.checks += 1
        validator = self._bind(network)

        # 1. conservation families
        validator.check(raise_on_violation=False)
        report = validator.report
        if report.total_failures > self._recorded_failures:
            self._recorded_failures = report.total_failures
            families = "+".join(sorted(report.by_family))
            raise SentinelTrip(
                f"invariant:{families}",
                cycle,
                "sentinel: invariant violation at cycle "
                f"{cycle}: " + "; ".join(report.violations[-5:]),
                report,
            )

        # 2. livelock: a pinned retransmission slot relaunched forever
        if spec.livelock_sends > 0:
            active = network._active_routers
            for router in network.routers:
                if router.id not in active:
                    continue
                for direction, out in router.outputs.items():
                    for entry in out.retrans:
                        if entry.send_count >= spec.livelock_sends:
                            raise SentinelTrip(
                                "livelock",
                                cycle,
                                f"sentinel: livelock at cycle {cycle}: "
                                f"router {router.id} output "
                                f"{direction.name} tag {entry.tag} "
                                f"(pkt {entry.flit.pkt_id} flit "
                                f"{entry.flit.seq}) re-sent "
                                f"{entry.send_count} times without "
                                "acceptance",
                                report,
                            )

        # 3. global deadlock: occupancy without movement
        if spec.deadlock_window > 0:
            sig = self._movement_signature(network)
            if sig != self._move_sig:
                self._move_sig = sig
                self._last_move_cycle = cycle
            elif (
                self._in_network(network) > 0
                and cycle - self._last_move_cycle >= spec.deadlock_window
            ):
                raise SentinelTrip(
                    "deadlock",
                    cycle,
                    f"sentinel: global deadlock at cycle {cycle}: "
                    f"{self._in_network(network)} flit(s) in-network, "
                    "no movement since cycle "
                    f"{self._last_move_cycle}",
                    report,
                )
