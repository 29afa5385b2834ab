"""Deterministic skip decisions: the event-driven engine core.

The sweep engine advances the clock one cycle at a time and asks every
active component for work; on drain-heavy or attack-quiescent traffic
most of those cycles are provable no-ops, and the interpreter pays for
them anyway.  The event engine closes that gap without forking the
simulation semantics: a landed cycle executes the ordinary
``Network.step()`` (so behaviour on processed cycles is the sweep
engine's, by construction), and between landings the
:class:`EventCore` *teleports* the clock across cycles no component
could possibly act on.

Correctness therefore reduces to one question — "is cycle ``c`` a
guaranteed no-op?" — answered conservatively by next-event hooks
across the stack:

* ``Link.next_event_cycle()`` — earliest in-flight codeword or ACK
  arrival;
* ``CreditTracker.next_visible_cycle()`` — earliest pending credit
  return;
* ``RetransBuffer.next_event_cycle(cycle)`` — deferred-READY entries
  wake at ``defer_until``; anything launchable or in flight pins the
  clock to "now";
* ``Router.next_event_cycle(cycle)`` — folds inputs, ejection queues,
  retransmission buffers and credit trackers;
* ``Network.next_event_cycle()`` — folds the active sets (a settled
  component demands nothing, so idle components cost zero);
* ``TrafficSource.next_active_cycle(cycle)`` — earliest cycle the
  source may emit packets *or advance its RNG* (the RNG clause is what
  keeps skipping bit-exact: synthetic sources draw every non-done
  cycle, so they simply refuse to be skipped);
* monitor ``next_event_cycle(network, cycle)`` — the watchdog and the
  containment coordinator demand every non-quiescent cycle (their
  ladder rungs and gate jitter are cycle-sensitive), the sentinel and
  the obs window collector expose their pure cadences.  A monitor
  without the hook disables skipping entirely while it is attached —
  unknown observers are never second-guessed;
* the simulation's scenario edges (trojan enable/disable, attack
  arm/disarm, fault attach/detach) — the next one still to fire.

Any component that cannot cheaply prove idleness just answers "now"
and the engine lands the cycle; wrong-but-conservative degrades to
sweep speed, never to wrong results.

Every decision is derived from live state alone: nothing is scheduled
ahead, so there is no stale wake to land on.  :class:`EventCore` holds
only counters, which checkpoints carry as plain data.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class EventCore:
    """The event-driven advance loop for one :class:`Simulation`.

    Owns the skip decision.  The core never steps the network itself —
    it decides *which* cycles must be stepped and delegates each
    landing to ``sim.step()``, so a landed cycle is bit-identical to
    the sweep engine's by construction.
    """

    __slots__ = ("sim", "pinned_by", "cycles_skipped", "leaps", "decisions")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        #: token -> decisions that landed "now" because of that hook
        #: (the first to demand it; ``edge`` for a due scenario edge),
        #: so they sum to ``decisions - leaps``
        self.pinned_by: dict[str, int] = {}
        #: no-op cycles the clock teleported across
        self.cycles_skipped = 0
        #: number of teleports
        self.leaps = 0
        #: skip decisions taken (landings + leaps)
        self.decisions = 0

    # -- the skip decision ------------------------------------------------
    def _next_due(self, bound: int, stall: Optional[int] = None) -> int:
        """First cycle >= the current clock that must be processed, or
        ``bound`` when every component is provably idle until then.

        Every candidate is consulted against live state and the
        earliest one wins.  The method early-exits the moment any
        candidate demands "now", keeping busy-path overhead to a few
        attribute reads per cycle, and counts that candidate in
        ``pinned_by``.
        """
        sim = self.sim
        net = sim.network
        cycle = net.cycle
        self.decisions += 1
        pinned_by = self.pinned_by
        due = bound

        # components (routers, links, credits, retransmission timers)
        component = net.next_event_cycle()
        if component is not None:
            if component <= cycle:
                pinned_by["component"] = pinned_by.get("component", 0) + 1
                return cycle
            if component < due:
                due = component

        # traffic injectors
        traffic = net.traffic
        if traffic is not None:
            when = traffic.next_active_cycle(cycle)
            if when is not None:
                if when <= cycle:
                    pinned_by["traffic"] = pinned_by.get("traffic", 0) + 1
                    return cycle
                if when < due:
                    due = when

        # monitors (watchdog ladder, containment, sentinel, obs window);
        # a monitor without the hook forbids skipping outright
        for monitor in net.monitors:
            hook = getattr(monitor, "next_event_cycle", None)
            when = cycle if hook is None else hook(net, cycle)
            if when is not None:
                if when <= cycle:
                    token = "monitor:" + type(monitor).__name__
                    pinned_by[token] = pinned_by.get(token, 0) + 1
                    return cycle
                if when < due:
                    due = when

        # back-pressure sampling cadence
        interval = net.sample_interval
        if interval:
            if cycle % interval == 0:
                pinned_by["sample"] = pinned_by.get("sample", 0) + 1
                return cycle
            when = (cycle // interval + 1) * interval
            if when < due:
                due = when

        # periodic checkpoints and forensics snapshots fire *after* the
        # step that reaches their threshold, so the cycle that must be
        # processed is threshold - 1
        if sim._ckpt_next is not None:
            when = sim._ckpt_next - 1
            if when <= cycle:
                pinned_by["checkpoint"] = pinned_by.get("checkpoint", 0) + 1
                return cycle
            if when < due:
                due = when
        if sim.forensics is not None:
            when = sim.forensics._next_snapshot - 1
            if when <= cycle:
                pinned_by["forensics"] = pinned_by.get("forensics", 0) + 1
                return cycle
            if when < due:
                due = when

        # drain-mode stall abort: the sweep engine detects the stall on
        # the step after last_delivery + stall_limit cycles of silence
        if stall is not None:
            if stall <= cycle:
                pinned_by["stall-abort"] = pinned_by.get("stall-abort", 0) + 1
                return cycle
            if stall < due:
                due = stall

        # the next scenario edge still to fire (latest-first list)
        edges = sim._edges
        if edges:
            when = edges[-1][0]
            if when <= cycle:
                pinned_by["edge"] = pinned_by.get("edge", 0) + 1
                return cycle
            if when < due:
                due = when
        return due

    # -- the advance loop -------------------------------------------------
    def advance(
        self, end: int, *, drain: bool = False,
        stall_limit: Optional[int] = None,
    ) -> bool:
        """Step every cycle before ``end`` that some candidate demands
        and teleport the clock across the rest.

        Without ``drain`` this is :meth:`Simulation.advance_to`'s loop
        and returns False.  With it, it is
        :meth:`Simulation.run_until_drained`'s: the same drain
        detection, stall abort and cycle budget as the sweep loop, and
        the same return value.
        """
        sim = self.sim
        net = sim.network
        stats = net.stats
        prof = net.profiler
        while net.cycle < end:
            if drain and (net.traffic is None or net.traffic.done(net.cycle)):
                # quiescent (empty active sets) + finished traffic is
                # the O(1) drained fast path; the full scan still runs
                # when only credit returns are in flight — they keep
                # the active sets warm but don't block draining
                if net.quiescent or net.drained:
                    return True
            stall = None
            if stall_limit is not None and stats.last_delivery_cycle >= 0:
                stall = stats.last_delivery_cycle + stall_limit
            _t = perf_counter() if prof is not None else 0.0
            due = self._next_due(end, stall)
            if due > net.cycle:
                # every skipped cycle is a proven no-op
                self.cycles_skipped += due - net.cycle
                self.leaps += 1
                net.cycle = due
            if prof is not None:
                prof.add("wheel", perf_counter() - _t)
            if net.cycle >= end:
                break
            sim.step()
            if (
                stall_limit is not None
                and stats.stalled_for(net.cycle) > stall_limit
            ):
                return False
        return drain and net.drained
