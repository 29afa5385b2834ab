"""Wiring: attach the observability layer to live simulations.

:func:`wire_hooks` is the one hook wiring: it hangs a publishing hook
on the network's existing public hook points — injection/ejection
hooks and every link's launch/ack hooks — and on the simulation's
watchdog, containment coordinator, detector and localizer event
hooks.  Each hook publishes its event on one :class:`EventBus`, and
only while a sink listens.  Two callers share it: an
:class:`Observability` (one metrics registry, event bus and windowed
back-pressure series, threaded through a
:class:`~repro.sim.engine.Simulation` by :meth:`~Observability.attach`)
and the forensics recorder, whose private bus feeds the repro
bundle's trace window (:mod:`repro.sim.forensics`).  The registry is
filled once per simulation, by the final scrape of the components'
own counters (:mod:`repro.obs.collectors`).  The hooks observe; they
never mutate simulated state, so an observed run is byte-identical to
an unobserved one.

Hooks are module-level classes (not closures) so an instrumented
simulation still pickles cleanly through :mod:`repro.sim.checkpoint`.

One :class:`Observability` may span several simulations (experiments
like fig11 run an attacked and a clean network); every emitted series
and event carries its simulation's ``run`` label: the scenario name,
suffixed ``#k`` when k-1 earlier simulations had that name.  For that
whole-experiment case the **ambient** instance exists: the runner's
``--obs-dir`` flag arms it per experiment via :func:`enable_ambient`,
and every :class:`~repro.sim.engine.Simulation` built while it is armed
attaches automatically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TYPE_CHECKING

from repro.obs.events import Event, EventBus
from repro.obs.registry import MetricsRegistry
from repro.obs.series import WindowedSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.sim.engine import Simulation


#: events the ``events_jsonl`` sink buffers before it appends them to
#: the file (a file handle cannot be pickled into a checkpoint, so the
#: sink holds a batch instead of an open file)
EXPORT_BATCH = 10_000


@dataclass(frozen=True)
class ObsConfig:
    """What to observe and where to export it.

    ``obs=None`` is "off".  Events are built only while a sink listens
    on the bus: the ``events_jsonl`` export, or one attached by hand
    (the verdict pipeline, a test's list).
    """

    #: scrape the components' counters into the registry at finalize
    metrics: bool = True
    #: back-pressure series window in cycles (0 disables the series)
    window: int = 64
    #: JSONL event stream path (None: no file export)
    events_jsonl: Optional[str] = None
    #: metrics.json manifest path (None: no file export)
    metrics_json: Optional[str] = None
    #: Prometheus-style text dump path (None: no file export)
    prometheus: Optional[str] = None


# ---------------------------------------------------------------------------
# picklable hook classes (one per hook point); each only publishes its
# event, and only while a sink listens on the bus
# ---------------------------------------------------------------------------
class _Hook:
    """The bus a hook publishes on, the run label its events carry and
    (for link hooks) the link's label."""

    def __init__(self, bus: EventBus, run: str, label: str = ""):
        self.bus = bus
        self.run = run
        self.label = label


class _InjectHook(_Hook):
    """``network.injection_hooks`` member: flit entered the NoC."""

    def __call__(self, flit, cycle: int) -> None:
        bus = self.bus
        if bus.sinks:
            bus.emit(
                "inject", cycle, self.run,
                pkt_id=flit.pkt_id, seq=flit.seq, core=flit.src_core,
            )


class _EjectHook(_Hook):
    """``network.ejection_hooks`` member: flit delivered to a core."""

    def __call__(self, flit, cycle: int, core: int) -> None:
        bus = self.bus
        if bus.sinks:
            bus.emit(
                "deliver", cycle, self.run,
                pkt_id=flit.pkt_id, seq=flit.seq, core=core,
            )


class _LaunchHook(_Hook):
    """``link.launch_hooks`` member: corruption + L-Ob on the wire."""

    def __call__(self, tx, cycle: int, original: int) -> None:
        bus = self.bus
        if not bus.sinks:
            return
        if tx.codeword != original:
            bus.emit(
                "corrupt", cycle, self.run,
                pkt_id=tx.flit.pkt_id, seq=tx.flit.seq, link=self.label,
                bits=(tx.codeword ^ original).bit_count(),
            )
        ob = tx.ob
        if ob is not None:
            bus.emit(
                "obfuscate", cycle, self.run,
                pkt_id=tx.flit.pkt_id, seq=tx.flit.seq, link=self.label,
                method=ob.method.value,
            )


class _AckHook(_Hook):
    """``link.ack_hooks`` member: NACKs mean a retransmission."""

    def __call__(self, ack, cycle: int, flit) -> None:
        bus = self.bus
        if ack.ok or not bus.sinks:
            return
        bus.emit(
            "retransmit", cycle, self.run,
            pkt_id=flit.pkt_id if flit is not None else None,
            seq=flit.seq if flit is not None else None,
            link=self.label, tag=ack.tag,
        )


class _EscalateHook(_Hook):
    """``watchdog.event_hooks`` member: one ladder rung taken."""

    def __call__(self, event) -> None:
        from repro.obs.collectors import link_label

        if self.bus.sinks:
            self.bus.emit(
                "escalate", event.cycle, self.run,
                link=link_label(event.link), stage=event.stage.value,
                pkt_id=event.pkt_id, tag=event.tag, detail=event.detail,
            )


class _ContainHook(_Hook):
    """``containment.event_hooks`` member: one coordinator decision."""

    def __call__(self, event) -> None:
        from repro.obs.collectors import link_label

        bus = self.bus
        if not bus.sinks:
            return
        label = link_label(event.link) if event.link is not None else None
        if event.kind in ("partition_risk", "probe", "reinstate",
                          "flap_damp"):
            # first-class bus kinds: the recovery loop's stream is
            # what the reinstate experiment and dashboards consume
            bus.emit(
                event.kind, event.cycle, self.run,
                link=label, detail=event.detail,
            )
        else:
            bus.emit(
                "contain", event.cycle, self.run,
                link=label, action=event.kind, detail=event.detail,
            )


class _DetectHook(_Hook):
    """``detector.event_hooks`` member: one statistical flag raised."""

    def __call__(self, event) -> None:
        from repro.obs.collectors import link_label

        if self.bus.sinks:
            self.bus.emit(
                "detect", event.cycle, self.run,
                link=(
                    link_label(event.link)
                    if event.link is not None
                    else None
                ),
                router=event.router, z=event.z, detail=event.detail,
            )


class _LocalizeHook(_Hook):
    """``localizer.event_hooks`` member: one attacker placed."""

    def __call__(self, event) -> None:
        from repro.obs.collectors import link_label

        if self.bus.sinks:
            self.bus.emit(
                "localize", event.cycle, self.run,
                link=link_label(event.link), router=event.router,
                score=event.score, detail=event.detail,
            )


def wire_hooks(
    bus: EventBus,
    run: str,
    network: "Network",
    sim: "Optional[Simulation]" = None,
) -> None:
    """Hang a hook publishing on ``bus`` under ``run`` on ``network``'s
    four hook points and, given ``sim``, on its watchdog, containment
    coordinator, detector and localizer."""
    from repro.obs.collectors import link_label

    network.injection_hooks.append(_InjectHook(bus, run))
    network.ejection_hooks.append(_EjectHook(bus, run))
    for key, link in network.links.items():
        label = link_label(key)
        link.launch_hooks.append(_LaunchHook(bus, run, label))
        link.ack_hooks.append(_AckHook(bus, run, label))
    if sim is None:
        return
    for component, hook in (
        (sim.watchdog, _EscalateHook),
        (getattr(sim, "containment", None), _ContainHook),
        (getattr(sim, "detector", None), _DetectHook),
        (getattr(sim, "localizer", None), _LocalizeHook),
    ):
        if component is not None:
            component.event_hooks.append(hook(bus, run))


class _WindowCollector:
    """``network.monitors`` member: the cycle-windowed scrape.

    At every window boundary it folds chip-wide and per-component
    back-pressure into the windowed series (the Fig. 11/12 heatmap
    substrate) and, while a sink listens, turns detector verdict
    *changes* into ``verdict`` events.  Pure observer: reads only.
    """

    def __init__(self, obs: "Observability", run: str, window: int):
        self.obs = obs
        self.run = run
        self.window = window
        self._verdicts: dict = {}

    def next_event_cycle(self, network: "Network", cycle: int):
        """Event-engine contract: scrapes happen only at window
        boundaries, so only those cycles are demanded."""
        if cycle % self.window == 0:
            return cycle
        return (cycle // self.window + 1) * self.window

    def on_cycle(self, network: "Network", cycle: int) -> None:
        if cycle % self.window:
            return
        from repro.obs.collectors import link_label

        run = self.run
        series = self.obs.series
        if series is not None:
            input_util = 0
            for router in network.routers:
                occupancy = router.link_input_occupancy()
                input_util += occupancy
                if occupancy:
                    series.observe(
                        cycle, f"{run}/router:{router.id}", occupancy
                    )
            series.observe(cycle, f"{run}/input_utilization", input_util)
            series.observe(
                cycle,
                f"{run}/output_utilization",
                sum(r.output_occupancy() for r in network.routers),
            )
            series.observe(
                cycle,
                f"{run}/injection_utilization",
                sum(r.injection_occupancy() for r in network.routers),
            )
            series.observe(
                cycle,
                f"{run}/routers_blocked",
                sum(
                    1
                    for r in network.routers
                    if r.any_output_blocked(cycle)
                ),
            )
            for key in network.links:
                occupancy = network.output_port_of(key).retrans.occupancy
                if occupancy:
                    series.observe(
                        cycle,
                        f"{run}/retrans:{link_label(key)}",
                        occupancy,
                    )
        bus = self.obs.bus
        if not bus.sinks:
            return
        from repro.core.detector import LinkVerdict

        # verdict transitions (mitigated networks only)
        for key in network.links:
            detector = getattr(network.receiver_of(key), "detector", None)
            if detector is None:
                continue
            verdict = detector.verdict
            if self._verdicts.get(key) is verdict:
                continue
            self._verdicts[key] = verdict
            if verdict is not LinkVerdict.UNKNOWN:
                bus.emit(
                    "verdict", cycle, run,
                    link=link_label(key), verdict=verdict.value,
                )


class _ExportSink:
    """``bus.sinks`` member: batches events for ``events_jsonl``."""

    def __init__(self, obs: "Observability"):
        self.obs = obs
        #: events not yet appended to the file
        self.batch: list[Event] = []

    def __call__(self, event: Event) -> None:
        batch = self.batch
        batch.append(event)
        if len(batch) >= EXPORT_BATCH:
            self.obs.spill_events()


# ---------------------------------------------------------------------------
# the bundle
# ---------------------------------------------------------------------------
class Observability:
    """One registry + event bus + windowed series, attachable to any
    number of simulations."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.registry = MetricsRegistry()
        self.bus = EventBus()
        #: the ``events_jsonl`` sink (None: no file export)
        self.export_sink: Optional[_ExportSink] = None
        #: events appended to ``events_jsonl`` so far, its size then,
        #: and lines a restored run found gone (see spill_events)
        self.events_written = 0
        self.events_bytes = 0
        self.events_dropped = 0
        if self.config.events_jsonl:
            self.export_sink = _ExportSink(self)
            self.bus.sinks.append(self.export_sink)
        self.series: Optional[WindowedSeries] = None
        if self.config.window > 0:
            self.series = WindowedSeries(self.config.window)
        #: run labels attached so far, in order: the scenario name, or
        #: ``name#k`` for the k-th simulation attached under one name
        self.runs: list[str] = []
        #: the last simulation attached and not yet finalized
        self._unfinalized: Optional["Simulation"] = None

    # -- attachment ------------------------------------------------------
    def attach(self, sim: "Simulation") -> None:
        """Thread this instance through one simulation's hook points,
        under a run label no earlier simulation holds (set as
        ``sim.obs_run``)."""
        # code that steps its simulation itself (advance_to, step,
        # run_until_drained) never finalizes it: do it now, so its
        # series window closes before this run's opens
        self.finalize(self._unfinalized)
        self._unfinalized = sim
        name = run = sim.scenario.name
        k = 1
        while run in self.runs:
            k += 1
            run = f"{name}#{k}"
        self.runs.append(run)
        sim.obs_run = run
        self.attach_network(sim.network, run, sim)

    def attach_network(
        self,
        network: "Network",
        run: str,
        sim: "Optional[Simulation]" = None,
    ) -> None:
        """Hook one network (and, given ``sim``, its defense) under an
        attached simulation's run label; alone, a network is a chaos
        campaign's next epoch, which swaps the simulation's network."""
        wire_hooks(self.bus, run, network, sim)
        if self.config.window > 0:
            network.monitors.append(
                _WindowCollector(self, run, self.config.window)
            )

    # -- engine notifications -------------------------------------------
    def notify_checkpoint(self, sim: "Simulation", path=None) -> None:
        if self.bus.sinks:
            cycle = sim.network.cycle
            self.bus.emit(
                "checkpoint", cycle, sim.obs_run,
                checkpoint_cycle=cycle,
                path=str(path) if path is not None else None,
            )

    def on_failure(self, sim: "Simulation", exc: BaseException) -> None:
        """Record a run-killing exception, then take the final scrape
        (the registry keeps whatever the dying network counted)."""
        if self.bus.sinks:
            from repro.sim.forensics import failure_signature

            self.bus.emit(
                "sentinel_trip",
                getattr(exc, "cycle", sim.network.cycle),
                sim.obs_run,
                trip_kind=failure_signature(exc),
                message=str(exc),
            )
        self.finalize(sim)

    def finalize(self, sim: Optional["Simulation"]) -> None:
        """Final scrape of one finished simulation into the registry
        (when ``config.metrics`` is on), and close the series window.

        Only the last simulation attached and not yet finalized is
        scraped: finalizing it a second time, or any other, does
        nothing.
        """
        if sim is None or sim is not self._unfinalized:
            return
        self._unfinalized = None
        from repro.obs.collectors import collect_simulation

        if self.config.metrics:
            collect_simulation(sim, self.registry, sim.obs_run)
        if self.series is not None:
            self.series.flush()

    # -- output ----------------------------------------------------------
    def spill_events(self) -> None:
        """Append the export batch to ``events_jsonl`` (the first call
        starts the file): the export sink's step when its batch is
        full, and the last step of :meth:`export`."""
        from repro.obs.exporters import write_events_jsonl

        path = Path(self.config.events_jsonl)
        if self.events_written:
            # a run restored from a checkpoint goes on from the lines
            # its checkpointed self had written; when those are gone
            # the file starts over and they count as dropped
            size = path.stat().st_size if path.exists() else -1
            if size < self.events_bytes:
                self.events_dropped += self.events_written
                self.events_written = 0
            elif size > self.events_bytes:
                os.truncate(path, self.events_bytes)
        batch = self.export_sink.batch
        self.events_written += write_events_jsonl(
            path, batch, append=self.events_written > 0
        )
        batch.clear()
        self.events_bytes = path.stat().st_size

    def manifest(self) -> dict:
        """The per-run ``metrics.json`` payload (deterministic: counts
        and series only, no wall-clock unless profiling is armed)."""
        from repro.obs.exporters import build_manifest

        return build_manifest(self)

    def export(self) -> dict:
        """Write every export path configured on :class:`ObsConfig`;
        returns the manifest written (also built when no path is)."""
        from repro.obs.exporters import export_all

        self.finalize(self._unfinalized)  # the last run's final scrape
        return export_all(self)


# ---------------------------------------------------------------------------
# the ambient (per-process) instance
# ---------------------------------------------------------------------------
_AMBIENT: Optional[Observability] = None


def enable_ambient(config: Optional[ObsConfig] = None) -> Observability:
    """Arm process-wide observability: every Simulation built until
    :func:`disable_ambient` attaches to the returned instance."""
    global _AMBIENT
    _AMBIENT = Observability(config)
    return _AMBIENT


def disable_ambient() -> None:
    global _AMBIENT
    _AMBIENT = None


def ambient() -> Optional[Observability]:
    return _AMBIENT
