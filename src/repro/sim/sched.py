"""Deterministic wakeup scheduling: the event-driven engine core.

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
guaranteed no-op?" — answered conservatively by the next-event hooks
this PR adds across the stack:

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
  unknown observers are never second-guessed.

Any component that cannot cheaply prove idleness just answers "now"
and the engine lands the cycle; wrong-but-conservative degrades to
sweep speed, never to wrong results.

The :class:`WakeupWheel` underneath is a cycle-keyed bucket wheel with
stable FIFO ordering inside each cycle and set-based dedup, so wake
accounting (``EventCore.wake_counts``) is deterministic and immune to
``PYTHONHASHSEED``.  The wheel is bookkeeping, not ground truth: every
leap decision re-derives the candidate set from live component state,
so a stale early wake merely lands a cycle (harmless — landed cycles
run real steps) and a stale late wake is superseded by a fresher
minimum.  Both classes are plain picklable data, so checkpoints of an
event-mode run carry the scheduler state (see
``repro.sim.checkpoint``, format 2).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class WakeupWheel:
    """Cycle-keyed wakeup buckets with stable FIFO order per cycle.

    ``schedule(cycle, token)`` is idempotent per (cycle, token) pair;
    tokens inside one cycle pop in first-scheduled order.  Ordering is
    list-based throughout, so iteration never depends on hash order.
    """

    __slots__ = ("_buckets", "_bucket_sets", "_heap")

    def __init__(self) -> None:
        #: cycle -> tokens in first-scheduled order
        self._buckets: dict[int, list[str]] = {}
        #: cycle -> same tokens as a set (dedup membership only)
        self._bucket_sets: dict[int, set[str]] = {}
        #: min-heap of bucket cycles (lazily deduplicated)
        self._heap: list[int] = []

    def schedule(self, cycle: int, token: str) -> None:
        """Arrange for ``token`` to wake at ``cycle``."""
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [token]
            self._bucket_sets[cycle] = {token}
            heapq.heappush(self._heap, cycle)
            return
        members = self._bucket_sets[cycle]
        if token not in members:
            members.add(token)
            bucket.append(token)

    def next_cycle(self, now: int) -> Optional[int]:
        """Earliest scheduled cycle >= ``now`` (stale buckets below
        ``now`` are discarded on the way)."""
        heap = self._heap
        while heap:
            cycle = heap[0]
            if cycle not in self._buckets:
                heapq.heappop(heap)  # lazily deleted duplicate
                continue
            if cycle < now:
                heapq.heappop(heap)
                del self._buckets[cycle]
                del self._bucket_sets[cycle]
                continue
            return cycle
        return None

    def pop_due(self, now: int) -> list[str]:
        """Retire every token scheduled at or before ``now``, in
        (cycle, FIFO) order."""
        out: list[str] = []
        heap = self._heap
        while heap and heap[0] <= now:
            cycle = heapq.heappop(heap)
            bucket = self._buckets.pop(cycle, None)
            if bucket is None:
                continue  # lazily deleted duplicate
            del self._bucket_sets[cycle]
            out.extend(bucket)
        return out

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def __bool__(self) -> bool:
        return bool(self._buckets)

    # pickle support for __slots__ (no __dict__)
    def __getstate__(self):
        return (self._buckets, self._bucket_sets, self._heap)

    def __setstate__(self, state):
        self._buckets, self._bucket_sets, self._heap = state


class EventCore:
    """Event-driven advance loops for one :class:`Simulation`.

    Owns the wakeup wheel and the skip decision.  The core never steps
    the network itself — it decides *which* cycles must be stepped and
    delegates each landing to ``sim.step()``, so a landed cycle is
    bit-identical to the sweep engine's by construction.
    """

    __slots__ = (
        "sim",
        "wheel",
        "wake_counts",
        "pinned_by",
        "cycles_skipped",
        "leaps",
        "decisions",
    )

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.wheel = WakeupWheel()
        #: token -> wakes retired through the wheel (deterministic)
        self.wake_counts: dict[str, int] = {}
        #: token -> decisions that landed "now" because of that hook
        #: (the first to demand it; ``wheel`` for a due wheel bucket),
        #: so they sum to ``decisions - leaps``
        self.pinned_by: dict[str, int] = {}
        #: no-op cycles the clock teleported across
        self.cycles_skipped = 0
        #: number of teleports
        self.leaps = 0
        #: skip decisions taken (landings + leaps)
        self.decisions = 0
        # Statically known wakes: every scheduled edge (trojan
        # enable/disable, attack arm/disarm, fault attach/detach)
        # self-schedules at build time.
        for at, _order, token, _action, _args in sim._edges:
            self.wheel.schedule(at, token)

    # -- the skip decision ------------------------------------------------
    def _next_due(self, bound: int, stall: Optional[int] = None) -> int:
        """First cycle >= the current clock that must be processed, or
        ``bound`` when every component is provably idle until then.

        Every candidate is consulted against live state; future
        candidates are recorded on the wheel (for accounting and
        checkpoint persistence) and the earliest one wins.  The method
        early-exits the moment any candidate demands "now", keeping
        busy-path overhead to a few attribute reads per cycle, and
        counts that candidate in ``pinned_by``.
        """
        sim = self.sim
        net = sim.network
        cycle = net.cycle
        self.decisions += 1
        wheel = self.wheel
        pinned_by = self.pinned_by

        # components (routers, links, credits, retransmission timers)
        component = net.next_event_cycle()
        if component is not None:
            if component <= cycle:
                pinned_by["component"] = pinned_by.get("component", 0) + 1
                return cycle
            wheel.schedule(component, "component")

        # traffic injectors
        traffic = net.traffic
        if traffic is not None:
            when = traffic.next_active_cycle(cycle)
            if when is not None:
                if when <= cycle:
                    pinned_by["traffic"] = pinned_by.get("traffic", 0) + 1
                    return cycle
                wheel.schedule(when, "traffic")

        # monitors (watchdog ladder, containment, sentinel, obs window);
        # a monitor without the hook forbids skipping outright
        for monitor in net.monitors:
            hook = getattr(monitor, "next_event_cycle", None)
            when = cycle if hook is None else hook(net, cycle)
            if when is not None:
                token = "monitor:" + type(monitor).__name__
                if when <= cycle:
                    pinned_by[token] = pinned_by.get(token, 0) + 1
                    return cycle
                wheel.schedule(when, token)

        # back-pressure sampling cadence
        interval = net.sample_interval
        if interval:
            if cycle % interval == 0:
                pinned_by["sample"] = pinned_by.get("sample", 0) + 1
                return cycle
            wheel.schedule((cycle // interval + 1) * interval, "sample")

        # periodic checkpoints and forensics snapshots fire *after* the
        # step that reaches their threshold, so the cycle that must be
        # processed is threshold - 1
        if sim._ckpt_next is not None:
            due = sim._ckpt_next - 1
            if due <= cycle:
                pinned_by["checkpoint"] = pinned_by.get("checkpoint", 0) + 1
                return cycle
            wheel.schedule(due, "checkpoint")
        if sim.forensics is not None:
            due = sim.forensics._next_snapshot - 1
            if due <= cycle:
                pinned_by["forensics"] = pinned_by.get("forensics", 0) + 1
                return cycle
            wheel.schedule(due, "forensics")

        # drain-mode stall abort: the sweep engine detects the stall on
        # the step after last_delivery + stall_limit cycles of silence
        if stall is not None:
            if stall <= cycle:
                pinned_by["stall-abort"] = pinned_by.get("stall-abort", 0) + 1
                return cycle
            wheel.schedule(stall, "stall-abort")

        due = wheel.next_cycle(cycle)
        if due is None or due > bound:
            return bound
        if due <= cycle:
            pinned_by["wheel"] = pinned_by.get("wheel", 0) + 1
        return due

    def _leap(self, target: int) -> None:
        """Teleport the clock to ``target`` (all skipped cycles are
        proven no-ops by :meth:`_next_due`)."""
        net = self.sim.network
        self.cycles_skipped += target - net.cycle
        self.leaps += 1
        net.cycle = target

    def _retire_wakes(self) -> None:
        wheel = self.wheel
        heap = wheel._heap
        if not heap or heap[0] > self.sim.network.cycle:
            return
        for token in wheel.pop_due(self.sim.network.cycle):
            self.wake_counts[token] = self.wake_counts.get(token, 0) + 1

    # -- advance loops ----------------------------------------------------
    def advance_to(self, target: int) -> None:
        """Event-mode :meth:`Simulation.advance_to`: identical landed
        cycles, teleportation across the proven-idle ones."""
        sim = self.sim
        net = sim.network
        prof = net.profiler
        while net.cycle < target:
            _t = perf_counter() if prof is not None else 0.0
            due = self._next_due(target)
            if due > net.cycle:
                self._leap(min(due, target))
            if prof is not None:
                prof.add("wheel", perf_counter() - _t)
            if net.cycle >= target:
                break
            self._retire_wakes()
            sim.step()
        sim._fire_edges()

    def run_until_drained(
        self, max_cycles: int, stall_limit: Optional[int] = None
    ) -> bool:
        """Event-mode :meth:`Simulation.run_until_drained`: same drain
        detection, stall abort and cycle budget as the sweep loop."""
        sim = self.sim
        net = sim.network
        stats = net.stats
        prof = net.profiler
        end = net.cycle + max_cycles
        while net.cycle < end:
            if net.traffic is None or net.traffic.done(net.cycle):
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
            due = self._next_due(end, stall=stall)
            if due > net.cycle:
                self._leap(min(due, end))
            if prof is not None:
                prof.add("wheel", perf_counter() - _t)
            if net.cycle >= end:
                break
            self._retire_wakes()
            sim.step()
            if (
                stall_limit is not None
                and stats.stalled_for(net.cycle) > stall_limit
            ):
                return False
        return net.drained
