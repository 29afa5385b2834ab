"""Per-output-port progress watchdog with an escalation ladder.

The TASP attack works because the baseline retransmission protocol is
infinitely patient: a flit the trojan corrupts on every traversal
retries forever, pinning its slot and farming back-pressure into a
chip-scale deadlock.  :class:`RetransWatchdog` bounds that patience.
Once per cycle (wired in through ``network.monitors``) it observes the
retransmission buffers of the output ports that took a NACK
(``Network.retrying``) and of the links it has dropped on, and walks
pinned entries up a ladder:

1. **backoff** — after ``backoff_after`` sends, defer relaunches with
   exponential backoff.  This stops a pinned flit from monopolising the
   link and — crucially — creates the deferred-READY windows in which
   the later rungs may act (an undeferred pinned entry relaunches the
   same cycle its NACK lands, so it is almost always IN_FLIGHT).
2. **obfuscate** — after ``obfuscate_after`` sends, force L-Ob
   engagement by planting :class:`repro.noc.retrans.NackAdvice` on the
   entry.  Against a content-triggered trojan (TASP) this is usually
   decisive: the obfuscated wire image no longer matches the target.
   The paper's threat detector normally advises this on its own; the
   watchdog's rung is the belt-and-braces path (and the only path on
   networks built without detectors — where, with no encoder either,
   the rung is skipped).
3. **drop** — after ``max_retries`` sends, give up link-level delivery:
   purge the packet via
   :func:`repro.resilience.degrade.drop_packet_at_port` and notify the
   caller (``take_dropped``) so the end-to-end ledger can resubmit it.
4. **condemn** — a link that keeps eating packets (``condemn_after_drops``)
   or stays pinned for ``condemn_pinned_age`` cycles despite the ladder
   is reported for epoch recovery (``take_condemned``).

A condemned link is *not* abandoned: the ladder keeps running on it in
**drop-only mode** (backoff + drop, no further obfuscation or condemn
events), so pinned entries keep draining into end-to-end resubmission
even when nobody consumes the condemnation.  Before this, traffic whose
sole xy route crossed a condemned link stranded silently; now the link
drains, and the strand hazard itself is surfaced as a structured
:class:`PartitionRisk` (``take_partition_risks``) naming the
destinations whose only minimal route dies with the link.

A network-level coordinator can plug into ``action_gate`` to veto
OBFUSCATE/DROP rungs (global action budgets, per-link retry backoff) —
see :mod:`repro.resilience.containment`.

Every rung needs an entry sent ``backoff_after`` (at least 2) times,
and only a NACK re-arms an entry for a second send, so a port that
never took a NACK holds only entries below every rung; the condemn
check needs a drop on the link or such an entry.  The links outside
those two sets are therefore skipped, which changes no action, no gate
call and no counter.

The watchdog only *observes and advises* within the link-level
protocol's own legal moves (defers, advice, READY-entry drops), so all
conservation invariants hold whether or not it is attached — and it is
strictly opt-in: without it, the deadlock reproduction of the paper is
unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.noc.network import Network
from repro.noc.retrans import EntryState, NackAdvice, RetransEntry
from repro.noc.router import OutputPort
from repro.noc.topology import LinkKey, links_on_xy_path
from repro.resilience.degrade import DropReport, drop_packet_at_port


class EscalationStage(enum.Enum):
    BACKOFF = "backoff"
    OBFUSCATE = "obfuscate"
    DROP = "drop"
    CONDEMN = "condemn"


@dataclass(frozen=True)
class PartitionRisk:
    """A condemnation that strands traffic if the link stops serving.

    Emitted alongside CONDEMN when, under minimal xy routing, the
    condemned link is the sole first-hop route from its source router
    to some destinations.  Consumers (the containment coordinator, the
    obs layer) decide whether a reroute can absorb the risk; the
    watchdog itself falls back to drop-only mode so nothing strands
    silently either way.
    """

    cycle: int
    link: LinkKey
    #: destination routers whose only minimal route from the link's
    #: source router dies with the link
    stranded_dsts: tuple[int, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class EscalationEvent:
    """One rung taken on one entry/link (kept in a bounded log)."""

    cycle: int
    link: LinkKey
    stage: EscalationStage
    pkt_id: Optional[int] = None
    tag: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class WatchdogConfig:
    """Ladder thresholds, all in units of per-entry send attempts."""

    #: sends before exponential backoff starts
    backoff_after: int = 3
    #: backoff base (cycles); the delay is ``base << excess_sends``.
    #: Must exceed the link's NACK round trip (2 cycles at defaults) or
    #: the first deferral expires before it opens a READY window.
    backoff_base: int = 4
    #: backoff ceiling in cycles
    backoff_cap: int = 64
    #: sends before obfuscation is forced
    obfuscate_after: int = 6
    #: sends before the packet is dropped for end-to-end resubmission
    max_retries: int = 12
    #: packet drops on one link before it is condemned
    condemn_after_drops: int = 3
    #: a port pinned this long (with ladder-stage entries) is condemned
    #: even if drops have not accumulated
    condemn_pinned_age: int = 600
    #: escalation events retained for reporting
    event_log_capacity: int = 256

    def __post_init__(self) -> None:
        if not 0 < self.backoff_after <= self.obfuscate_after <= self.max_retries:
            raise ValueError(
                "ladder must be ordered: backoff_after <= obfuscate_after "
                "<= max_retries"
            )
        # the ladder watches only ports that took a NACK and links it
        # dropped on; below these bounds an unwatched port could act
        if self.backoff_after < 2:
            raise ValueError(
                "backoff_after must be at least 2: a first send is no retry"
            )
        if self.condemn_after_drops < 1:
            raise ValueError(
                "condemn_after_drops must be at least 1: a link that never "
                "dropped is condemned only by its pinned age"
            )
        if self.backoff_base <= 0 or self.backoff_cap <= 0:
            raise ValueError("backoff parameters must be positive")


class RetransWatchdog:
    """Progress watchdog over the output ports of one network.

    Attach with :meth:`attach`; detach (e.g. across an epoch change)
    with :meth:`detach` and re-attach to the new network.
    """

    def __init__(self, config: Optional[WatchdogConfig] = None):
        self.config = config or WatchdogConfig()
        self.network: Optional[Network] = None
        #: (link, tag) -> send_count at the last backoff, so each retry
        #: level defers exactly once
        self._backed_off: dict[tuple[LinkKey, int], int] = {}
        #: (link, tag) -> True once obfuscation was forced on the entry
        self._advised: set[tuple[LinkKey, int]] = set()
        self._drops_per_link: dict[LinkKey, int] = {}
        self._condemned: set[LinkKey] = set()
        #: links an early detector flagged; their ladder thresholds are
        #: halved so containment starts before the tree saturates
        self._suspect: set[LinkKey] = set()
        self._pending_drops: list[DropReport] = []
        self._pending_condemned: list[LinkKey] = []
        self._pending_risks: list[PartitionRisk] = []
        #: every partition risk ever surfaced (unbounded, small)
        self.partition_risks: list[PartitionRisk] = []
        #: optional veto on OBFUSCATE/DROP rungs:
        #: ``gate(stage, link, cycle) -> bool`` (False = hold this
        #: cycle).  The containment coordinator enforces its global
        #: action budget and per-link retry backoff here.
        self.action_gate: Optional[
            Callable[[EscalationStage, LinkKey, int], bool]
        ] = None
        self.events: list[EscalationEvent] = []
        #: observers called with every EscalationEvent as it is logged
        #: (unbounded, unlike the trimmed ``events`` list); the
        #: observability layer hangs its escalation hook here
        self.event_hooks: list = []
        #: cycle of the very first ladder action (the bounded event log
        #: may have trimmed the event itself)
        self.first_event_cycle: Optional[int] = None
        # -- counters ----------------------------------------------------
        self.backoffs_applied = 0
        self.obfuscations_forced = 0
        self.packets_dropped = 0
        self.links_condemned = 0

    # -- wiring ------------------------------------------------------------
    def attach(self, network: Network) -> "RetransWatchdog":
        """Register on ``network.monitors``; per-entry ladder state is
        reset (a new epoch starts clean) but counters and the event log
        accumulate across epochs."""
        if self.network is not None:
            self.detach()
        self.network = network
        network.monitors.append(self)
        self._backed_off.clear()
        self._advised.clear()
        self._drops_per_link.clear()
        self._condemned.clear()
        self._suspect.clear()
        return self

    def detach(self) -> None:
        if self.network is not None:
            try:
                self.network.monitors.remove(self)
            except ValueError:
                pass
        self.network = None

    # -- results consumed by the campaign/caller ---------------------------
    def take_dropped(self) -> list[DropReport]:
        """Drop notifications since the last call (drop-with-notify)."""
        out, self._pending_drops = self._pending_drops, []
        return out

    def take_condemned(self) -> list[LinkKey]:
        """Links condemned since the last call."""
        out, self._pending_condemned = self._pending_condemned, []
        return out

    def take_partition_risks(self) -> list[PartitionRisk]:
        """Partition risks surfaced since the last call."""
        out, self._pending_risks = self._pending_risks, []
        return out

    @property
    def condemned_links(self) -> frozenset[LinkKey]:
        """Links condemned so far this epoch (drop-only mode)."""
        return frozenset(self._condemned)

    @property
    def suspect_links(self) -> frozenset[LinkKey]:
        """Links under detector-accelerated ladder thresholds."""
        return frozenset(self._suspect)

    # -- early-detector feed ------------------------------------------------
    def mark_suspect(self, key: LinkKey) -> None:
        """An online detector flagged ``key`` as statistically anomalous
        *before* the ladder completed on its own.  The ladder keeps its
        shape but every later rung fires at half its configured send
        threshold (ordering preserved), so containment starts early on
        the flagged link while unflagged links see the exact default
        ladder.  Idempotent; cleared by :meth:`reset_link`."""
        self._suspect.add(key)

    def _ladder_thresholds(self, key: LinkKey) -> tuple[int, int, int, int]:
        """Effective (obfuscate_after, max_retries, condemn_after_drops,
        condemn_pinned_age) for ``key``: the configured values, halved
        — without breaking ladder ordering — while the link is suspect."""
        cfg = self.config
        if key not in self._suspect:
            return (
                cfg.obfuscate_after,
                cfg.max_retries,
                cfg.condemn_after_drops,
                cfg.condemn_pinned_age,
            )
        obfuscate_after = max(cfg.backoff_after, cfg.obfuscate_after // 2)
        return (
            obfuscate_after,
            max(obfuscate_after, cfg.max_retries // 2),
            max(1, cfg.condemn_after_drops // 2),
            max(1, cfg.condemn_pinned_age // 2),
        )

    # -- reinstatement -------------------------------------------------------
    def reset_link(self, key: LinkKey) -> None:
        """Restart the ladder from rung 0 for a reinstated link.

        Condemnation used to be terminal, so per-link ladder state
        (backoff levels, forced-advice marks, the drop tally, the
        condemned flag, detector suspicion) survived it; a link
        returned to service would have resumed mid-ladder and been
        re-condemned by its *old* drop count on the first slip.  The
        probation path calls this so a reinstated link is judged like
        a fresh one."""
        self._condemned.discard(key)
        self._suspect.discard(key)
        self._drops_per_link.pop(key, None)
        self._backed_off = {
            state_key: sends
            for state_key, sends in self._backed_off.items()
            if state_key[0] != key
        }
        self._advised = {
            state_key for state_key in self._advised if state_key[0] != key
        }
        if key in self._pending_condemned:
            self._pending_condemned = [
                k for k in self._pending_condemned if k != key
            ]

    def _gate_allows(
        self, stage: EscalationStage, key: LinkKey, cycle: int
    ) -> bool:
        return self.action_gate is None or self.action_gate(stage, key, cycle)

    def next_event_cycle(self, network: Network, cycle: int):
        """Event-engine contract: the ladder must observe every cycle in
        which a watched link (one in ``Network.retrying``, or dropped on
        and not condemned) holds entries — the drop rung fires on the
        exact cycle an entry turns READY and the containment gate draws
        per-denial jitter, both cycle-sensitive.  The hook demands every
        non-quiescent cycle, a superset of those.  On a quiescent
        network every buffer is empty and :meth:`on_cycle` is a proven
        no-op, so the watchdog demands nothing."""
        return None if network.quiescent else cycle

    # -- the per-cycle ladder ----------------------------------------------
    def on_cycle(self, network: Network, cycle: int) -> None:
        # the links a rung can act on: those whose output port re-armed
        # an entry, and those dropped on and not condemned (their drop
        # count alone can condemn them)
        retrying = watched = network.retrying
        if self._drops_per_link:
            watched = retrying.union(
                key
                for key in self._drops_per_link
                if key not in self._condemned
            )
        if not watched:
            return
        # canonical link order: the containment gate draws jitter per
        # denial, so the order of its calls is part of the result
        watched = sorted(watched, key=network._link_order.__getitem__)
        cfg = self.config
        wiring = network._wiring
        for key in watched:
            out = wiring[key][3]
            if not out.retrans._entries:
                # every re-armed entry has retired
                retrying.discard(key)
                continue
            condemned = key in self._condemned
            thresholds = self._ladder_thresholds(key)
            obfuscate_after, max_retries, _, _ = thresholds
            ladder_active = False
            for entry in list(out.retrans._entries.values()):
                sends = entry.send_count
                if sends < cfg.backoff_after:
                    continue
                ladder_active = True
                if (
                    sends >= max_retries
                    and entry.state is EntryState.READY
                    and self._gate_allows(EscalationStage.DROP, key, cycle)
                ):
                    # READY means no transmission is on the wire (backoff
                    # deferral created this window) — safe to purge.
                    self._drop(network, key, entry, cycle)
                    continue
                if (
                    sends >= obfuscate_after
                    and not condemned
                    and self._gate_allows(EscalationStage.OBFUSCATE, key, cycle)
                ):
                    self._force_obfuscation(network, key, entry, cycle)
                self._apply_backoff(network, key, entry, cycle)
            if not condemned:
                self._maybe_condemn(
                    network, key, cycle, ladder_active, out, thresholds
                )
        self._prune(network, watched)

    # -- rungs ---------------------------------------------------------------
    def _apply_backoff(
        self, network: Network, key: LinkKey, entry: RetransEntry, cycle: int
    ) -> None:
        cfg = self.config
        state_key = (key, entry.tag)
        if self._backed_off.get(state_key) == entry.send_count:
            return  # this retry level already deferred once
        if entry.defer_until > cycle:
            return  # an earlier defer is still pending
        # Deferring an IN_FLIGHT entry is both legal and necessary:
        # ``defer_until`` only gates the *next* launch, and a pinned
        # entry relaunches the same cycle its NACK lands, so this is the
        # only way to ever observe it in a READY window.
        excess = min(entry.send_count - cfg.backoff_after, 16)
        delay = min(cfg.backoff_cap, cfg.backoff_base << excess)
        entry.defer_until = cycle + delay
        self._backed_off[state_key] = entry.send_count
        self.backoffs_applied += 1
        network.stats.retrans_backoffs += 1
        self._log(
            EscalationEvent(
                cycle, key, EscalationStage.BACKOFF,
                pkt_id=entry.flit.pkt_id, tag=entry.tag,
                detail=f"sends={entry.send_count} defer={delay}",
            )
        )

    def _force_obfuscation(
        self, network: Network, key: LinkKey, entry: RetransEntry, cycle: int
    ) -> None:
        state_key = (key, entry.tag)
        if state_key in self._advised:
            return
        if network.output_port_of(key).lob is None:
            return  # no encoder on this port: the rung does not exist
        self._advised.add(state_key)
        already = (
            entry.ob_advice is not None
            and entry.ob_advice.enable_obfuscation
        )
        if not already:
            # suspect links reach this rung below the configured send
            # threshold; clamp so the method ladder starts at step 0
            method = max(0, entry.send_count - self.config.obfuscate_after)
            entry.ob_advice = NackAdvice(
                enable_obfuscation=True, method_index=method
            )
        self.obfuscations_forced += 1
        network.stats.lob_escalations += 1
        self._log(
            EscalationEvent(
                cycle, key, EscalationStage.OBFUSCATE,
                pkt_id=entry.flit.pkt_id, tag=entry.tag,
                detail="detector-advised" if already else "forced",
            )
        )

    def _drop(
        self, network: Network, key: LinkKey, entry: RetransEntry, cycle: int
    ) -> None:
        pkt_id = entry.flit.pkt_id
        report = drop_packet_at_port(network, key, pkt_id, cycle)
        self._pending_drops.append(report)
        self.packets_dropped += 1
        self._drops_per_link[key] = self._drops_per_link.get(key, 0) + 1
        self._log(
            EscalationEvent(
                cycle, key, EscalationStage.DROP,
                pkt_id=pkt_id, tag=entry.tag,
                detail=(
                    f"entries={report.entries_dropped} "
                    f"staged={report.staged_discarded} "
                    f"in_flight={report.entries_in_flight}"
                ),
            )
        )

    def _maybe_condemn(
        self,
        network: Network,
        key: LinkKey,
        cycle: int,
        ladder_active: bool,
        out: Optional[OutputPort] = None,
        thresholds: Optional[tuple[int, int, int, int]] = None,
    ) -> None:
        """Condemn ``key`` once its drops or pinned age cross the
        ladder's thresholds; :meth:`on_cycle` passes the output port and
        thresholds it already resolved."""
        if out is None:
            out = network.output_port_of(key)
        if thresholds is None:
            thresholds = self._ladder_thresholds(key)
        _, _, condemn_after_drops, condemn_pinned_age = thresholds
        by_drops = self._drops_per_link.get(key, 0) >= condemn_after_drops
        by_age = (
            ladder_active
            and out.retrans.oldest_wait(cycle) > condemn_pinned_age
        )
        if not (by_drops or by_age):
            return
        self._condemned.add(key)
        self._pending_condemned.append(key)
        self.links_condemned += 1
        self._log(
            EscalationEvent(
                cycle, key, EscalationStage.CONDEMN,
                detail="drop-threshold" if by_drops else "pinned-age",
            )
        )
        self._surface_partition_risk(network, key, cycle)

    def _surface_partition_risk(
        self, network: Network, key: LinkKey, cycle: int
    ) -> None:
        """Name the destinations whose only minimal route dies with
        ``key``; the link itself stays in drop-only mode regardless."""
        cfg = network.cfg
        src_router = key[0]
        stranded = tuple(
            dst
            for dst in range(cfg.num_routers)
            if dst != src_router
            and links_on_xy_path(cfg, src_router, dst)[0] == key
        )
        if not stranded:
            return
        risk = PartitionRisk(
            cycle=cycle,
            link=key,
            stranded_dsts=stranded,
            detail=f"sole xy first hop from router {src_router}",
        )
        self.partition_risks.append(risk)
        self._pending_risks.append(risk)

    # -- housekeeping --------------------------------------------------------
    def _prune(self, network: Network, watched: list[LinkKey]) -> None:
        """Forget ladder state of entries that have retired.  Ladder
        state exists only for entries on watched links, and a link
        leaves ``Network.retrying`` only once its buffer is empty, so
        ``watched`` holds every entry the state can name (retired state
        is never read again, so a cycle with nothing watched skips the
        prune)."""
        if len(self._backed_off) < 512 and len(self._advised) < 512:
            return
        wiring = network._wiring
        live = {
            (key, entry.tag)
            for key in watched
            for entry in wiring[key][3].retrans._entries.values()
        }
        self._backed_off = {
            k: v for k, v in self._backed_off.items() if k in live
        }
        self._advised &= live

    def _log(self, event: EscalationEvent) -> None:
        if self.first_event_cycle is None:
            self.first_event_cycle = event.cycle
        self.events.append(event)
        if len(self.events) > self.config.event_log_capacity:
            del self.events[: len(self.events) // 2]
        for hook in self.event_hooks:
            hook(event)

    @property
    def activity(self) -> int:
        """Monotonic count of all ladder actions (progress signal)."""
        return (
            self.backoffs_applied
            + self.obfuscations_forced
            + self.packets_dropped
            + self.links_condemned
        )

    def stages_taken(self) -> tuple[str, ...]:
        """Ladder rungs that fired at least once, in ladder order."""
        out = []
        if self.backoffs_applied:
            out.append(EscalationStage.BACKOFF.value)
        if self.obfuscations_forced:
            out.append(EscalationStage.OBFUSCATE.value)
        if self.packets_dropped:
            out.append(EscalationStage.DROP.value)
        if self.links_condemned:
            out.append(EscalationStage.CONDEMN.value)
        return tuple(out)
