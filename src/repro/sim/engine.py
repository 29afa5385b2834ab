"""Build and run :class:`~repro.sim.scenario.Scenario` values.

``build`` wires the network exactly the way the hand-written
experiments used to: defense stack first (mitigated routers, e2e
obfuscation, TDM policy, up*/down* rerouting), then trojans and fault
models onto their links, then traffic sources.  ``Simulation`` keeps
the live handles (network, trojans, sources, watchdog) for experiments
that need mid-run control; ``run`` is the one-shot path returning a
JSON-friendly :class:`RunResult`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.checkpoint import Checkpoint
    from repro.sim.forensics import Forensics

from repro.baselines.e2e import E2EObfuscator
from repro.baselines.reroute import disable_both_ways, updown_table
from repro.baselines.tdm import TdmConfig, TdmPolicy
from repro.core.mitigation import build_mitigated_network
from repro.core.tasp import TaspTrojan
from repro.faults.models import GrayholeAttack, TransientFaultModel
from repro.noc.flit import Packet, layout_for
from repro.noc.network import Network, TrafficSource
from repro.obs import profiler as obs_profiler
from repro.obs.instrument import ObsConfig, Observability, ambient
from repro.resilience.containment import ContainmentCoordinator
from repro.resilience.detect import TrafficStatsDetector
from repro.resilience.localize import TopologyLocalizer
from repro.resilience.watchdog import RetransWatchdog
from repro.sim.scenario import (
    ENGINES,
    AppTraffic,
    ExplicitTraffic,
    FloodTraffic,
    Scenario,
    SyntheticTraffic,
    TrojanSpec,
)
from repro.sim.sched import EventCore
from repro.sim.sentinel import Sentinel
from repro.traffic.apps import PROFILES, AppTraceSource
from repro.traffic.flood import FloodConfig, FloodSource, MergedSource
from repro.traffic.synthetic import PATTERNS, SyntheticConfig, SyntheticSource
from repro.util.rng import SeededStream

#: environment override for the engine mode; forked runner workers
#: inherit it (the runner's --engine flag sets it before dispatch)
ENGINE_ENV = "REPRO_ENGINE"


def _resolve_engine(
    explicit: Optional[str], scenario_engine: str, full_sweep: bool
) -> str:
    """Engine mode precedence: explicit argument > ``REPRO_ENGINE`` env
    var > ``Scenario.engine``.  ``full_sweep=True`` always forces the
    sweep engine — the exhaustive oracle path has no skip semantics, so
    a global env override must not hijack oracle runs."""
    mode = explicit or os.environ.get(ENGINE_ENV) or scenario_engine
    if mode not in ENGINES:
        raise ValueError(
            f"unknown engine {mode!r} (expected one of {ENGINES})"
        )
    if full_sweep:
        return "sweep"
    return mode


class ScheduledSource(TrafficSource):
    """Replays an :class:`ExplicitTraffic` packet schedule."""

    def __init__(self, spec: ExplicitTraffic):
        self._by_cycle: dict[int, list] = {}
        self._remaining = len(spec.packets)
        self._last_cycle = 0
        for p in spec.packets:
            self._by_cycle.setdefault(p.inject_at, []).append(p)
            self._last_cycle = max(self._last_cycle, p.inject_at)

    def generate(self, cycle: int) -> list[Packet]:
        specs = self._by_cycle.pop(cycle, None)
        if not specs:
            return []
        self._remaining -= len(specs)
        return [
            Packet(
                pkt_id=p.pkt_id,
                src_core=p.src_core,
                dst_core=p.dst_core,
                vc_class=p.vc_class,
                mem_addr=p.mem_addr,
                payload=list(p.payload),
                created_cycle=cycle,
                domain=p.domain,
            )
            for p in specs
        ]

    def done(self, cycle: int) -> bool:
        return self._remaining == 0

    def next_active_cycle(self, cycle: int) -> Optional[int]:
        """Next scheduled injection at or after ``cycle`` (stale
        past-due entries are ignored — the sweep engine never emits
        them either, it just times out at the drain budget)."""
        upcoming = [at for at in self._by_cycle if at >= cycle]
        if upcoming:
            return min(upcoming)
        return None


def attach_trojan_specs(
    network: Network, specs: Iterable[TrojanSpec]
) -> list[TaspTrojan]:
    """Solder each spec's trojan into its link; returns the live
    instances in spec order (the specs carry their exact per-instance
    seeds — see :func:`repro.sim.scenario.trojan_specs`)."""
    trojans = []
    layout = layout_for(network.cfg)
    for spec in specs:
        trojan = TaspTrojan(spec.target, spec.config, layout=layout)
        if spec.enable_at is None and spec.enabled:
            trojan.enable()
        network.attach_tamperer(spec.link, trojan)
        trojans.append(trojan)
    return trojans


def _make_source(cfg, spec) -> TrafficSource:
    if isinstance(spec, SyntheticTraffic):
        return SyntheticSource(
            cfg,
            PATTERNS[spec.pattern],
            SyntheticConfig(
                injection_rate=spec.injection_rate,
                payload_words=spec.payload_words,
                duration=spec.duration,
                max_packets=spec.max_packets,
            ),
            seed=spec.seed,
        )
    if isinstance(spec, AppTraffic):
        profile = PROFILES[spec.profile]
        if spec.rate_scale != 1.0:
            profile = dataclasses.replace(
                profile,
                injection_rate=profile.injection_rate * spec.rate_scale,
            )
        return AppTraceSource(
            cfg,
            profile,
            seed=spec.seed,
            duration=spec.duration,
            max_packets=spec.max_packets,
            cores=set(spec.cores) if spec.cores is not None else None,
            domain=spec.domain,
            vc_classes=spec.vc_classes,
            pkt_id_base=spec.pkt_id_base,
        )
    if isinstance(spec, FloodTraffic):
        return FloodSource(
            cfg,
            FloodConfig(
                rogue_cores=spec.rogue_cores,
                victim_cores=spec.victim_cores,
                rate=spec.rate,
                payload_words=spec.payload_words,
                start_cycle=spec.start_cycle,
                stop_cycle=spec.stop_cycle,
            ),
            seed=spec.seed,
            pkt_id_base=spec.pkt_id_base,
        )
    if isinstance(spec, ExplicitTraffic):
        return ScheduledSource(spec)
    raise TypeError(f"unknown traffic spec {type(spec).__name__}")


@dataclass(frozen=True)
class RunResult:
    """JSON-friendly summary of one scenario run."""

    name: str
    completed: bool
    cycles: int
    packets_injected: int
    packets_completed: int
    flits_injected: int
    flits_ejected: int
    mean_network_latency: Optional[float]
    mean_total_latency: Optional[float]
    dropped_flits: int
    misdeliveries: int
    num_samples: int


class Simulation:
    """A built scenario with its live handles.

    Attributes
    ----------
    network:
        The wired :class:`Network` (``full_sweep`` already applied).
    trojans:
        Live :class:`TaspTrojan` instances, in ``scenario.trojans``
        order.
    sources:
        One traffic source per ``scenario.traffic`` entry (they are
        merged onto the network when there is more than one).
    watchdog:
        The attached :class:`RetransWatchdog`, or ``None``.
    obs:
        The attached :class:`~repro.obs.instrument.Observability`
        bundle, or ``None``.  Pass an ``ObsConfig`` to create a
        private bundle, an existing ``Observability`` to share one
        across simulations, or leave it ``None`` to pick up the
        ambient (process-wide) instance when one is armed.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        full_sweep: bool = False,
        engine: Optional[str] = None,
        obs: "ObsConfig | Observability | None" = None,
    ):
        self.scenario = scenario
        cfg = scenario.cfg
        defense = scenario.defense

        kwargs: dict = {}
        if defense.e2e:
            kwargs["e2e"] = E2EObfuscator(layout=layout_for(cfg))
        if defense.tdm_domains:
            if cfg.topology == "torus":
                raise ValueError(
                    "tdm_domains is not supported on a torus: the TDM "
                    "VC partition intersected with the dateline halves "
                    "can leave a packet no legal VC"
                )
            kwargs["policy"] = TdmPolicy(
                TdmConfig(num_domains=defense.tdm_domains), cfg.num_vcs
            )
        build_cfg = cfg
        if defense.rerouted_links:
            build_cfg = dataclasses.replace(cfg, routing="table")
            kwargs["routing_table"] = updown_table(cfg, defense.rerouted_links)
        if defense.mitigated or defense.mitigation is not None:
            net = build_mitigated_network(
                build_cfg, defense.mitigation, **kwargs
            )
        else:
            net = Network(build_cfg, **kwargs)
        net.full_sweep = full_sweep
        if defense.rerouted_links:
            disable_both_ways(net, defense.rerouted_links)

        self.network = net
        self.trojans = attach_trojan_specs(net, scenario.trojans)
        # (cycle, index, arm) triples: arm=True fires enable(), False
        # fires disable() (the kill-switch withdrawal probation recovers
        # from)
        trojan_events: list[tuple[int, int, bool]] = []
        for index, spec in enumerate(scenario.trojans):
            if spec.enable_at is not None:
                trojan_events.append((spec.enable_at, index, True))
            if spec.disable_at is not None:
                trojan_events.append((spec.disable_at, index, False))
        self._pending_enables = sorted(trojan_events, reverse=True)

        #: live gray-hole attack instances, in ``scenario.attacks`` order
        self.attacks: list[GrayholeAttack] = []
        attack_events: list[tuple[int, int, bool]] = []
        for index, spec in enumerate(scenario.attacks):
            attack = GrayholeAttack(
                net.codec.codeword_bits,
                spec.drop_probability,
                SeededStream(
                    spec.seed, "grayhole", spec.link[0], spec.link[1].name
                ),
                armed=spec.enable_at is None,
            )
            net.attach_tamperer(spec.link, attack)
            self.attacks.append(attack)
            if spec.enable_at is not None:
                attack_events.append((spec.enable_at, index, True))
            if spec.disable_at is not None:
                attack_events.append((spec.disable_at, index, False))
        self._pending_attack_events = sorted(attack_events, reverse=True)

        for fault in scenario.faults:
            net.attach_tamperer(
                fault.link,
                TransientFaultModel(
                    net.codec.codeword_bits,
                    fault.rate,
                    SeededStream(fault.seed, *fault.labels),
                    double_fraction=fault.double_fraction,
                ),
            )

        self.sources = [
            _make_source(cfg, spec) for spec in scenario.traffic
        ]
        if len(self.sources) == 1:
            net.set_traffic(self.sources[0])
        elif self.sources:
            net.set_traffic(MergedSource(self.sources))

        #: early traffic-statistics detector (None = not configured).
        #: Attached *before* the watchdog so a link flagged at a window
        #: boundary shortens that same cycle's ladder evaluation.
        self.detector: Optional[TrafficStatsDetector] = None
        if defense.detector is not None:
            self.detector = TrafficStatsDetector(defense.detector).attach(net)

        #: attacker localization engine (None = not configured).  A
        #: pure subscriber of the detector's flag stream — it is not a
        #: network monitor, so it has no engine-timing footprint.
        self.localizer: Optional[TopologyLocalizer] = None
        if defense.localizer is not None:
            if self.detector is None:
                raise ValueError(
                    "defense.localizer requires defense.detector: "
                    "localization fuses the detector's footprints"
                )
            self.localizer = TopologyLocalizer(
                cfg, defense.localizer
            ).attach(self.detector)

        self.watchdog: Optional[RetransWatchdog] = None
        if defense.watchdog is not None:
            self.watchdog = RetransWatchdog(defense.watchdog).attach(net)
        if self.detector is not None:
            self.detector.watchdog = self.watchdog

        #: network-level containment coordinator (None = not configured).
        #: Attached after the watchdog so each cycle the coordinator
        #: consumes that cycle's fresh escalations.
        self.containment: Optional[ContainmentCoordinator] = None
        if defense.probation is not None and defense.containment is None:
            raise ValueError(
                "defense.probation requires defense.containment: "
                "probation is the coordinator's recovery loop"
            )
        if defense.containment is not None:
            if self.watchdog is None:
                raise ValueError(
                    "defense.containment requires defense.watchdog: the "
                    "coordinator owns the watchdog's escalation ladder"
                )
            self.containment = ContainmentCoordinator(
                defense.containment, probation=defense.probation
            ).attach(net, watchdog=self.watchdog)
            if self.localizer is not None:
                self.containment.set_localizer(self.localizer)

        #: online invariant/progress monitor (None = not configured)
        self.sentinel: Optional[Sentinel] = None
        if scenario.sentinel is not None and scenario.sentinel.every > 0:
            self.sentinel = Sentinel(scenario.sentinel)
            net.monitors.append(self.sentinel)

        #: failure-forensics recorder (None until enable_forensics)
        self.forensics: "Optional[Forensics]" = None

        net.sample_interval = scenario.sample_interval

        # -- periodic checkpointing (off until configured) ---------------
        self._ckpt_dir: Optional[Path] = None
        self._ckpt_interval: int = 0
        self._ckpt_next: Optional[int] = None
        self._ckpt_keep: int = 2
        self._ckpt_hash: Optional[str] = None
        #: cycle a restore resumed from (None for a fresh build)
        self.resumed_from_cycle: Optional[int] = None

        # -- engine mode --------------------------------------------------
        #: "sweep" (per-cycle oracle) or "event" (wakeup scheduler);
        #: both produce byte-identical reports — see docs/performance.md
        self.engine: str = _resolve_engine(
            engine, scenario.engine, full_sweep
        )
        #: event-driven advance core (None in sweep mode); checkpoints
        #: carry it, wheel state included
        self.event_core: Optional[EventCore] = (
            EventCore(self) if self.engine == "event" else None
        )

        # -- observability (last: the network is fully wired now) --------
        if obs is None:
            obs = ambient()
        elif isinstance(obs, ObsConfig):
            obs = Observability(obs)
        self.obs: Optional[Observability] = obs
        if obs is not None:
            obs.attach(self)
        # phase profiling is orthogonal to obs: armed per-process via
        # repro.obs.profiler.enable() or the REPRO_PROFILE env var
        prof = obs_profiler.current()
        if prof is not None:
            net.profiler = prof

    # -- checkpoint/restore ----------------------------------------------
    def snapshot(self) -> "Checkpoint":
        """Freeze the complete mutable simulation state.

        The capture is a deep copy keyed by the scenario's content hash;
        ``restore`` of it — in this process or a fresh one — then runs
        bit-identically to never having stopped.
        """
        from repro.sim.checkpoint import Checkpoint

        return Checkpoint.capture(self)

    @classmethod
    def restore(cls, source: "Checkpoint | str | Path") -> "Simulation":
        """Rebuild a live simulation from a :class:`Checkpoint` (or a
        checkpoint file path)."""
        from repro.sim.checkpoint import Checkpoint

        checkpoint = (
            source
            if isinstance(source, Checkpoint)
            else Checkpoint.load(source)
        )
        sim = checkpoint.restore()
        sim.resumed_from_cycle = checkpoint.cycle
        return sim

    def configure_checkpoints(
        self,
        directory: "str | Path",
        interval: int,
        *,
        keep: int = 2,
    ) -> None:
        """Emit an atomic on-disk checkpoint every ``interval`` cycles
        while this simulation steps; the newest ``keep`` are retained.
        An interrupted run then resumes from the last checkpoint via
        :func:`resume_or_build` instead of cycle 0.
        """
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self._ckpt_dir = Path(directory)
        self._ckpt_interval = interval
        self._ckpt_keep = keep
        self._ckpt_hash = self.scenario.content_hash()
        cycle = self.network.cycle
        self._ckpt_next = ((cycle // interval) + 1) * interval

    def _maybe_checkpoint(self) -> None:
        if self._ckpt_next is None or self.network.cycle < self._ckpt_next:
            return
        from repro.sim.checkpoint import checkpoint_path, prune_checkpoints

        assert self._ckpt_dir is not None and self._ckpt_hash is not None
        path = checkpoint_path(
            self._ckpt_dir, self._ckpt_hash, self.network.cycle
        )
        self.snapshot().save(path)
        if self.obs is not None:
            self.obs.notify_checkpoint(self, path)
        prune_checkpoints(self._ckpt_dir, self._ckpt_hash, self._ckpt_keep)
        interval = self._ckpt_interval
        self._ckpt_next = (
            (self.network.cycle // interval) + 1
        ) * interval

    # -- stepping --------------------------------------------------------
    def _fire_enables(self) -> None:
        cycle = self.network.cycle
        while self._pending_enables and self._pending_enables[-1][0] <= cycle:
            _, index, arm = self._pending_enables.pop()
            if arm:
                self.trojans[index].enable()
            else:
                self.trojans[index].disable()
        pending = self._pending_attack_events
        while pending and pending[-1][0] <= cycle:
            _, index, arm = pending.pop()
            if arm:
                self.attacks[index].arm()
            else:
                self.attacks[index].disarm()

    def step(self) -> None:
        self._fire_enables()
        self.network.step()
        if self._ckpt_next is not None:
            self._maybe_checkpoint()
        if self.forensics is not None:
            # after network.step(): a failing cycle raises before this
            # line, so the forensics snapshot is always last-*good*
            self.forensics.maybe_snapshot()

    def advance_to(self, cycle: int) -> None:
        """Step until the network clock reaches ``cycle``, firing any
        scheduled trojan enables on the way.  In event mode, cycles no
        component claims are skipped without stepping (byte-identical
        results — see :mod:`repro.sim.sched`)."""
        if self.event_core is not None:
            self.event_core.advance_to(cycle)
            return
        while self.network.cycle < cycle:
            self.step()
        self._fire_enables()

    def run_until_drained(
        self, max_cycles: int, stall_limit: Optional[int] = None
    ) -> bool:
        if self.event_core is not None:
            return self.event_core.run_until_drained(max_cycles, stall_limit)
        net = self.network
        for _ in range(max_cycles):
            if net.drained:
                return True
            self.step()
            if (
                stall_limit is not None
                and net.stats.stalled_for(net.cycle) > stall_limit
            ):
                return False
        return net.drained

    # -- forensics -------------------------------------------------------
    def enable_forensics(
        self,
        directory: "str | Path",
        *,
        snapshot_every: int = 500,
        trace_capacity: int = 2000,
    ) -> "Forensics":
        """Record enough state, continuously, to reproduce any failure.

        Keeps an in-memory last-good checkpoint (refreshed every
        ``snapshot_every`` cycles) and a ring buffer of the last
        ``trace_capacity`` flit events; any exception escaping
        :meth:`run` is then captured as a ``*.repro`` bundle under
        ``directory`` (see :mod:`repro.sim.forensics`) and carries the
        bundle path as ``exc.repro_bundle``.
        """
        from repro.sim.forensics import Forensics

        self.forensics = Forensics(
            self,
            directory,
            snapshot_every=snapshot_every,
            trace_capacity=trace_capacity,
        )
        return self.forensics

    @classmethod
    def replay(cls, bundle: "str | Path") -> "Simulation":
        """A live simulation restored from a repro bundle's last-good
        checkpoint; calling :meth:`run` on it deterministically
        re-raises the bundled failure."""
        from repro.sim.forensics import load_bundle

        sim = cls.restore(load_bundle(bundle).checkpoint_path)
        # a replay diagnoses an existing bundle — don't write new ones
        sim.forensics = None
        return sim

    # -- one-shot --------------------------------------------------------
    def run(self) -> RunResult:
        try:
            return self._run()
        except Exception as exc:
            if self.obs is not None:
                # record the trip and take the final scrape first, so a
                # forensics bundle can embed the finalized metrics
                self.obs.on_failure(self, exc)
            if self.forensics is not None:
                exc.repro_bundle = self.forensics.write_bundle(exc)
            raise

    def _run(self) -> RunResult:
        scenario = self.scenario
        if scenario.duration is not None:
            self.advance_to(scenario.duration)
            completed = True
        else:
            # Budget in *absolute* cycles so a run restored at cycle k
            # stops exactly where the uninterrupted run would have.
            remaining = max(0, scenario.max_cycles - self.network.cycle)
            completed = self.run_until_drained(
                remaining, scenario.stall_limit
            )
        if self.obs is not None:
            self.obs.finalize(self)
        return self.result(completed)

    def result(self, completed: bool) -> RunResult:
        """The :class:`RunResult` for the network's current state.

        Factored out of :meth:`_run` so chunked drivers (the serving
        layer steps the engine in slices and pumps verdicts between
        them) build the byte-identical report the one-shot path does.
        """
        net = self.network
        stats = net.stats
        return RunResult(
            name=self.scenario.name,
            completed=completed,
            cycles=net.cycle,
            packets_injected=stats.packets_injected,
            packets_completed=stats.packets_completed,
            flits_injected=stats.flits_injected,
            flits_ejected=stats.flits_ejected,
            mean_network_latency=stats.mean_network_latency(),
            mean_total_latency=stats.mean_total_latency(),
            dropped_flits=stats.dropped_flits,
            misdeliveries=stats.misdeliveries,
            num_samples=len(stats.samples),
        )


def build(scenario: Scenario, *, full_sweep: bool = False) -> Network:
    """Wire a network for ``scenario`` (defense stack, trojans, faults,
    traffic) without running it."""
    return Simulation(scenario, full_sweep=full_sweep).network


def resume_or_build(
    scenario: Scenario,
    checkpoint_dir: "str | Path | None",
    *,
    full_sweep: bool = False,
    engine: Optional[str] = None,
    obs: "ObsConfig | Observability | None" = None,
) -> Simulation:
    """The scenario's newest restorable checkpoint as a live
    simulation, or a fresh build when there is none (no directory, no
    matching file, or only corrupt/stale ones).

    ``sim.resumed_from_cycle`` tells the caller which happened.  A
    restored simulation keeps the observability bundle *and engine
    mode* it was checkpointed with; ``obs`` and ``engine`` only apply
    to a fresh build.
    """
    if checkpoint_dir is not None:
        from repro.sim.checkpoint import latest_checkpoint

        checkpoint = latest_checkpoint(checkpoint_dir, scenario)
        if checkpoint is not None:
            return Simulation.restore(checkpoint)
    return Simulation(
        scenario, full_sweep=full_sweep, engine=engine, obs=obs
    )


def run(
    scenario: Scenario,
    *,
    full_sweep: bool = False,
    engine: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
    forensics_dir: "str | Path | None" = None,
    obs: "ObsConfig | Observability | None" = None,
) -> RunResult:
    """Build ``scenario`` and run it to its duration or drain limit.

    ``engine`` picks the advance loop ("sweep" or "event"); left
    ``None`` it falls back to the ``REPRO_ENGINE`` env var, then to
    ``scenario.engine``.  Both engines produce byte-identical results;
    the event engine skips provably idle cycles (docs/performance.md).

    With ``checkpoint_interval`` and ``checkpoint_dir`` set, the run
    emits an atomic state checkpoint every ``interval`` cycles;
    ``resume=True`` additionally starts from the newest restorable
    checkpoint (if any) instead of cycle 0.  Either way the
    :class:`RunResult` is bit-identical to an uninterrupted run.

    ``forensics_dir`` (or the ``REPRO_FORENSICS_DIR`` environment
    variable, which forked runner workers inherit) arms failure
    forensics: any exception escaping the run leaves a ``*.repro``
    bundle there and carries its path as ``exc.repro_bundle``.

    ``obs`` attaches observability (see :class:`Simulation`); passing
    an :class:`~repro.obs.instrument.ObsConfig` additionally writes
    every export path configured on it when the run completes.
    """
    if resume:
        sim = resume_or_build(
            scenario,
            checkpoint_dir,
            full_sweep=full_sweep,
            engine=engine,
            obs=obs,
        )
    else:
        sim = Simulation(
            scenario, full_sweep=full_sweep, engine=engine, obs=obs
        )
    if checkpoint_interval is not None and checkpoint_dir is not None:
        sim.configure_checkpoints(checkpoint_dir, checkpoint_interval)
    if forensics_dir is None:
        forensics_dir = os.environ.get("REPRO_FORENSICS_DIR") or None
    if forensics_dir is not None:
        sim.enable_forensics(forensics_dir)
    result = sim.run()
    if isinstance(obs, ObsConfig) and sim.obs is not None:
        # the bundle was private to this run: write its exports now
        sim.obs.export()
    return result
