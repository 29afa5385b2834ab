"""Outside-in instrumentation of one workload operation.

The benchmark measures the simulator's layers without editing them.
For the length of one operation, :func:`instrument` wraps a few public
entry points and reads public counters:

* ``Simulation.__init__`` — set-up time, and one :class:`SimRecord`
  per simulation the operation builds;
* ``Simulation.run`` / ``advance_to`` / ``run_until_drained`` — host
  time spent stepping and simulated cycles advanced (outermost call
  only, so nested calls are not counted twice).  After each such call
  the simulation's counters are copied into its record and flit
  conservation is checked; that bookkeeping is timed separately so the
  operation's wall-clock can exclude it;
* every module binding of ``build_mitigated_network`` — the L-Ob table
  build that dominates set-up of mitigated networks;

and, in a traced operation only:

* a :class:`~repro.obs.profiler.PhaseProfiler` attached through the
  public ``Network.profiler`` attribute, with each resilience monitor
  given its own ``profile_phase`` lap;
* ``TopologyLocalizer.ingest``, whose time is moved out of the
  detector's lap into ``localize``;
* ``Secded.encode`` / ``Secded.decode`` call counters.

Records keep only counters and each simulation's ``NetworkStats``, so
the ledger does not keep finished networks alive (that would inflate
the peak memory the benchmark reports).

A probe operation instead runs one named simulation to a warm-up cycle,
counts interpreter calls over a fixed window with :mod:`cProfile`, and
ends the operation with :class:`ProbeDone`.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

#: phases ``Network.step`` laps when a profiler is attached
NOC_PHASES = (
    "credit",
    "ack",
    "ecc",
    "eject",
    "traverse",
    "arbitrate",
    "route",
    "inject",
    "sample",
    "active",
)

#: monitors that get their own profiler lap, by class name
MONITOR_PHASES = {
    "RetransWatchdog": "watchdog",
    "ContainmentCoordinator": "containment",
    "Sentinel": "sentinel",
}

RESILIENCE_PHASES = (
    "watchdog", "containment", "detect", "localize", "sentinel"
)

STEPPING = ("run", "advance_to", "run_until_drained")


class ProbeDone(Exception):
    """Ends a probe operation once its call-count window is measured."""


class SimRecord:
    """Counters of one simulation, as of its last stepping call."""

    __slots__ = (
        "stats", "flit_hops", "corrupt_hops", "decisions", "leaps",
        "cycles_skipped", "actions_allowed", "actions_denied",
    )

    def __init__(self, sim) -> None:
        self.stats = sim.network.stats
        self.update(sim)

    def update(self, sim) -> None:
        self.flit_hops, self.corrupt_hops = flit_hops(sim)
        core = sim.event_core
        self.decisions = core.decisions if core is not None else 0
        self.leaps = core.leaps if core is not None else 0
        self.cycles_skipped = core.cycles_skipped if core is not None else 0
        containment = sim.containment
        self.actions_allowed = (
            containment.actions_allowed if containment is not None else 0
        )
        self.actions_denied = (
            containment.actions_denied if containment is not None else 0
        )


class Ledger:
    """Everything one operation's wrappers accumulate."""

    def __init__(
        self, traced: bool = False, probe: Optional[tuple] = None
    ) -> None:
        self.traced = traced
        #: (scenario name, warm-up cycle, window end cycle) or None
        self.probe = probe
        self.records: list[SimRecord] = []
        self.init_s = 0.0
        self.step_s = 0.0
        #: host time of the ledger's own bookkeeping inside the operation
        self.bookkeeping_s = 0.0
        self.cycles = 0
        self.mitigated_builds = 0
        self.mitigated_build_s = 0.0
        self.encode_calls = 0
        self.decode_calls = 0
        self.profiler = None
        #: named sub-steps of an operation (the experiments of paper-figs)
        self.walls: dict[str, float] = {}
        #: flit conservation failures found after stepping calls
        self.failures: list[str] = []
        self.probe_result: Optional[dict] = None
        self._depth = 0

    def total(self, field: str) -> int:
        return sum(getattr(record, field) for record in self.records)


def flit_hops(sim) -> tuple[int, int]:
    """(link traversals, corrupted traversals) of one simulation."""
    hops = corrupt = 0
    for link in sim.network.links.values():
        hops += link.traversals
        corrupt += link.corrupted_traversals
    return hops, corrupt


def conservation_failure(sim) -> Optional[str]:
    """Flit conservation: injected == ejected + dropped + resident."""
    from repro.noc.invariants import NetworkValidator

    report = NetworkValidator(sim.network, families=("flit",)).check(
        raise_on_violation=False
    )
    if report.ok:
        return None
    return f"{sim.scenario.name} @ {sim.network.cycle}: {report.violations[0]}"


def _probe(ledger: Ledger, sim) -> None:
    _, warm, end = ledger.probe
    sim.advance_to(warm)
    hops_before = flit_hops(sim)[0]
    profile = cProfile.Profile()
    profile.enable()
    sim.advance_to(end)
    profile.disable()
    ledger.probe_result = {
        "scenario": sim.scenario.name,
        "window": [warm, end],
        "calls": pstats.Stats(profile).prim_calls,
        "flit_hops": flit_hops(sim)[0] - hops_before,
    }
    raise ProbeDone


@contextmanager
def instrument(ledger: Ledger) -> Iterator[Ledger]:
    """Install the wrappers for the duration of the ``with`` block."""
    from repro.core import mitigation
    from repro.ecc.hamming import Secded
    from repro.obs.profiler import PhaseProfiler
    from repro.resilience.localize import TopologyLocalizer
    from repro.sim.engine import Simulation

    patches: list[tuple[object, str, object]] = []
    by_sim: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    original_init = Simulation.__init__

    def init(sim, *args, **kwargs):
        t0 = perf_counter()
        original_init(sim, *args, **kwargs)
        t1 = perf_counter()
        ledger.init_s += t1 - t0
        record = SimRecord(sim)
        ledger.records.append(record)
        by_sim[sim] = record
        if ledger.profiler is not None:
            sim.network.profiler = ledger.profiler
            for monitor in sim.network.monitors:
                phase = MONITOR_PHASES.get(type(monitor).__name__)
                if phase is not None:
                    monitor.profile_phase = phase
        ledger.bookkeeping_s += perf_counter() - t1

    patch(Simulation, "__init__", init)

    def settle(sim) -> None:
        t0 = perf_counter()
        by_sim[sim].update(sim)
        failure = conservation_failure(sim)
        if failure is not None:
            ledger.failures.append(failure)
        ledger.bookkeeping_s += perf_counter() - t0

    def stepping(name: str):
        original = getattr(Simulation, name)

        def wrapper(sim, *args, **kwargs):
            if ledger._depth:
                return original(sim, *args, **kwargs)
            ledger._depth += 1
            try:
                if (
                    name == "run"
                    and ledger.probe is not None
                    and sim.scenario.name == ledger.probe[0]
                ):
                    _probe(ledger, sim)
                start = sim.network.cycle
                t0 = perf_counter()
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    ledger.step_s += perf_counter() - t0
                    ledger.cycles += sim.network.cycle - start
                    settle(sim)
            finally:
                ledger._depth -= 1

        return wrapper

    for name in STEPPING:
        patch(Simulation, name, stepping(name))

    original_build = mitigation.build_mitigated_network

    def build_mitigated_network(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original_build(*args, **kwargs)
        finally:
            ledger.mitigated_builds += 1
            ledger.mitigated_build_s += perf_counter() - t0

    # every module that bound the function by name (engine.py does)
    for module_name, module in list(sys.modules.items()):
        if (
            module_name.split(".")[0] == "repro"
            and getattr(module, "build_mitigated_network", None)
            is original_build
        ):
            patch(module, "build_mitigated_network", build_mitigated_network)

    if ledger.traced:
        ledger.profiler = PhaseProfiler()
        original_encode = Secded.encode
        original_decode = Secded.decode
        original_ingest = TopologyLocalizer.ingest

        def encode(codec, data):
            ledger.encode_calls += 1
            return original_encode(codec, data)

        def decode(codec, codeword):
            ledger.decode_calls += 1
            return original_decode(codec, codeword)

        def ingest(localizer, event):
            t0 = perf_counter()
            try:
                return original_ingest(localizer, event)
            finally:
                # ingest runs inside the detector's on_cycle lap
                ledger.profiler.reattribute(
                    perf_counter() - t0, "localize", "detect"
                )

        patch(Secded, "encode", encode)
        patch(Secded, "decode", decode)
        patch(TopologyLocalizer, "ingest", ingest)

    try:
        yield ledger
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    ledger: Ledger, import_s: float, op_s: float, experiments: tuple
) -> dict:
    """Per-layer metrics of one traced operation (everything except
    ``noc.py_calls_per_flit_hop`` and ``trace.overhead_ratio``, which
    need the probe and an untraced operation).  ``experiments`` names
    the runner experiments whose share of the operation is reported
    (zero on workloads that run none)."""
    prof = ledger.profiler
    seconds = prof.seconds
    hops = ledger.total("flit_hops")
    landed = prof.calls.get("credit", 0)
    step_phases = sum(v for k, v in seconds.items() if k != "wheel")
    skipped = ledger.total("cycles_skipped")
    metrics = {
        f"noc.{phase}.ns_per_flit_hop": seconds.get(phase, 0.0) / hops * 1e9
        for phase in NOC_PHASES
    }
    metrics.update(
        {
            "noc.step.us_per_landed_cycle": step_phases / landed * 1e6,
            "noc.phase_coverage": _share(prof.total(), ledger.step_s),
            "noc.flit_hops": hops,
            "noc.corrupt_hops": ledger.total("corrupt_hops"),
            "noc.landed_cycles": landed,
            "traffic.generate.us_per_landed_cycle": (
                seconds.get("traffic", 0.0) / landed * 1e6
            ),
            "ecc.encode_calls_per_flit_hop": ledger.encode_calls / hops,
            "ecc.decode_calls_per_flit_hop": ledger.decode_calls / hops,
            "core.mitigated_builds": ledger.mitigated_builds,
            "core.mitigated_build.setup_share": _share(
                ledger.mitigated_build_s, import_s + ledger.init_s
            ),
            "sim.import_s": import_s,
            "sim.init_s": ledger.init_s,
            "sim.decisions": ledger.total("decisions"),
            "sim.leaps": ledger.total("leaps"),
            "sim.cycles_skipped": skipped,
            "sim.skip_ratio": _share(skipped, ledger.cycles),
            "sim.wheel.step_share": _share(
                seconds.get("wheel", 0.0), ledger.step_s
            ),
            "resilience.actions_allowed": ledger.total("actions_allowed"),
            "resilience.actions_denied": ledger.total("actions_denied"),
        }
    )
    for phase in RESILIENCE_PHASES:
        metrics[f"resilience.{phase}.step_share"] = _share(
            seconds.get(phase, 0.0), ledger.step_s
        )
    for name in experiments:
        metrics[f"experiments.{name}.wall_share"] = _share(
            ledger.walls.get(name, 0.0), op_s
        )
    return metrics
