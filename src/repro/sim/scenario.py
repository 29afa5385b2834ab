"""Frozen, JSON-round-trippable descriptions of complete simulation runs.

A :class:`Scenario` is a pure value: the NoC configuration, the traffic
offered to it, the hardware trojans soldered into it, the transient
fault environment, the defense stack, and the run limits.  Two
scenarios with equal field values serialize to the same canonical JSON
and therefore share one :meth:`~Scenario.content_hash` — the key the
result cache and the experiment runner use to identify work units.

The traffic vocabulary mirrors the sources in :mod:`repro.traffic`:

=====================  ====================================================
:class:`SyntheticTraffic`  Bernoulli synthetic patterns (uniform/transpose/…)
:class:`AppTraffic`        PARSEC application profiles, optionally core-pinned
:class:`FloodTraffic`      bandwidth-depletion flood attackers
:class:`ExplicitTraffic`   a literal packet schedule (micro-workloads)
=====================  ====================================================

Seeds live **inside** each spec (matching the per-source ``SeededStream``
namespaces of the existing experiments) so that moving an experiment
onto the scenario layer does not move its published numbers.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import typing
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.mitigation import MitigationConfig
from repro.core.targets import TargetSpec
from repro.core.tasp import TaspConfig
from repro.noc.config import NoCConfig, PAPER_CONFIG
from repro.noc.topology import LinkKey
from repro.resilience.containment import ContainmentConfig, ProbationConfig
from repro.resilience.detect import DetectConfig
from repro.resilience.localize import LocalizeConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.sentinel import SentinelSpec

#: serialization format; bump on incompatible layout changes so stale
#: cached results are never revived under a colliding hash
SCENARIO_FORMAT = 1

#: valid Scenario.engine / Simulation(engine=...) values
ENGINES = ("sweep", "event")


class ScenarioDecodeError(ValueError):
    """A scenario payload cannot be decoded.

    Raised with the path of the damage named, e.g.
    ``scenario.trojans[0]: missing required key 'config'`` — an unknown
    traffic ``kind`` or enum name, a missing required key, an unexpected
    extra key, a tuple of the wrong length, or a value the spec itself
    rejects — instead of surfacing a bare ``KeyError``/``TypeError``
    from deep inside the codec.
    """


# ---------------------------------------------------------------------------
# traffic specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SyntheticTraffic:
    """Bernoulli injection of a named synthetic pattern."""

    #: key into :data:`repro.traffic.synthetic.PATTERNS`
    pattern: str = "uniform"
    injection_rate: float = 0.02
    payload_words: int = 2
    duration: Optional[int] = None
    max_packets: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class AppTraffic:
    """Live traffic from a PARSEC application profile."""

    profile: str = "blackscholes"
    seed: int = 0
    duration: Optional[int] = None
    max_packets: Optional[int] = None
    #: multiplies the profile's injection rate (throughput-bound runs)
    rate_scale: float = 1.0
    #: pin the application to a core subset (TDM experiments)
    cores: Optional[tuple[int, ...]] = None
    domain: int = 0
    vc_classes: Optional[tuple[int, ...]] = None
    pkt_id_base: int = 0


@dataclass(frozen=True)
class FloodTraffic:
    """Rogue cores flooding victim cores at a fixed rate."""

    rogue_cores: tuple[int, ...] = ()
    victim_cores: tuple[int, ...] = ()
    rate: float = 1.0
    payload_words: int = 3
    start_cycle: int = 0
    stop_cycle: Optional[int] = None
    seed: int = 0
    pkt_id_base: int = 10_000_000


@dataclass(frozen=True)
class PacketSpec:
    """One literal packet, offered at ``inject_at``."""

    pkt_id: int
    src_core: int
    dst_core: int
    inject_at: int = 0
    vc_class: int = 0
    mem_addr: int = 0
    payload: tuple[int, ...] = ()
    domain: int = 0


@dataclass(frozen=True)
class ExplicitTraffic:
    """A fully enumerated packet schedule."""

    packets: tuple[PacketSpec, ...] = ()


TrafficSpec = Union[SyntheticTraffic, AppTraffic, FloodTraffic, ExplicitTraffic]

_TRAFFIC_KINDS = {
    "synthetic": SyntheticTraffic,
    "app": AppTraffic,
    "flood": FloodTraffic,
    "explicit": ExplicitTraffic,
}
_KIND_OF_TRAFFIC = {cls: kind for kind, cls in _TRAFFIC_KINDS.items()}


# ---------------------------------------------------------------------------
# attack and fault specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TrojanSpec:
    """One TASP instance soldered into a link.

    ``enable_at`` arms the trojan once the simulation clock reaches
    that cycle (the Fig. 11/12 mid-run activations); ``enabled`` arms
    it from cycle 0.  A spec with both off models dormant silicon.
    ``disable_at`` disarms it again mid-run — the transient-attacker
    model the probation/reinstatement loop recovers from (a kill-switch
    withdrawal, a trigger stream ending, or an attacker going quiet).
    """

    link: LinkKey
    target: TargetSpec
    config: TaspConfig = TaspConfig()
    enabled: bool = True
    enable_at: Optional[int] = None
    disable_at: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.disable_at is not None
            and self.enable_at is not None
            and self.disable_at <= self.enable_at
        ):
            raise ValueError("disable_at must come after enable_at")


@dataclass(frozen=True)
class TransientFaultSpec:
    """A per-traversal random fault process on one link.

    ``labels`` are the ``SeededStream`` namespace labels the fault
    model's RNG is derived from — carried verbatim so a scenario
    reproduces the exact fault sequence of the hand-wired experiments.
    """

    link: LinkKey
    rate: float
    double_fraction: float = 0.0
    seed: int = 0
    labels: tuple = ()


@dataclass(frozen=True)
class DropAttackSpec:
    """A gray-hole/packet-drop attack on one link's recovery path.

    Backed by :class:`repro.faults.models.GrayholeAttack`: each selected
    traversal takes a fresh double-bit flip, which SECDED always detects
    and never corrects — so the "drop" manifests as retries consumed on
    the retransmission path rather than silent loss.  ``enable_at`` /
    ``disable_at`` schedule the compromise window (None = from cycle 0 /
    never released).
    """

    link: LinkKey
    drop_probability: float = 1.0
    enable_at: Optional[int] = None
    disable_at: Optional[int] = None
    seed: int = 0


def trojan_specs(
    links,
    target: TargetSpec,
    config: TaspConfig = TaspConfig(),
    enabled: bool = True,
    enable_at: Optional[int] = None,
) -> tuple[TrojanSpec, ...]:
    """Replicate ``attach_trojans``'s seeding convention: the i-th
    infected link gets ``config.seed + i`` so co-resident trojans do
    not trigger in lockstep."""
    return tuple(
        TrojanSpec(
            link=key,
            target=target,
            config=dataclasses.replace(config, seed=config.seed + i),
            enabled=enabled,
            enable_at=enable_at,
        )
        for i, key in enumerate(links)
    )


def coordinated_trojans(
    links,
    target: TargetSpec,
    config: TaspConfig = TaspConfig(),
    start: int = 0,
    stagger: int = 0,
    stop: Optional[int] = None,
) -> tuple[TrojanSpec, ...]:
    """N TASP instances with a coordinated activation schedule.

    The i-th link's trojan arms at ``start + i * stagger`` (stagger=0
    is a simultaneous strike) and draws from seed ``config.seed + i``,
    so the instances are correlated in *time* but not in payload
    sequence — the coordinated-attacker model of ROADMAP item 2.
    With ``stop``, every instance disarms at that cycle — the
    transient coordinated strike the reinstatement experiment recovers
    from.
    """
    return tuple(
        TrojanSpec(
            link=key,
            target=target,
            config=dataclasses.replace(config, seed=config.seed + i),
            enabled=False,
            enable_at=start + i * stagger,
            disable_at=stop,
        )
        for i, key in enumerate(links)
    )


def distributed_flood(
    rogue_cores,
    victim_cores,
    rate: float = 0.25,
    payload_words: int = 3,
    start_cycle: int = 0,
    stop_cycle: Optional[int] = None,
    seed: int = 0,
) -> tuple[FloodTraffic, ...]:
    """A distributed flooding DDoS: one independent flood source per
    victim, each fed by every rogue core.

    Splitting per victim gives each stream its own seed and packet-id
    band, so delivered-throughput accounting can separate benign
    traffic (ids below 10M) from each attacker's flood.
    """
    rogues = tuple(rogue_cores)
    return tuple(
        FloodTraffic(
            rogue_cores=rogues,
            victim_cores=(victim,),
            rate=rate,
            payload_words=payload_words,
            start_cycle=start_cycle,
            stop_cycle=stop_cycle,
            seed=seed + i,
            pkt_id_base=10_000_000 + i * 1_000_000,
        )
        for i, victim in enumerate(victim_cores)
    )


# ---------------------------------------------------------------------------
# defense stack
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DefenseSpec:
    """What the network fights back with."""

    #: build the proposed mitigated router (detector + L-Ob)
    mitigated: bool = False
    #: non-default mitigation tuning (implies ``mitigated``)
    mitigation: Optional[MitigationConfig] = None
    #: end-to-end obfuscation layer
    e2e: bool = False
    #: attach the retransmission watchdog escalation ladder
    watchdog: Optional[WatchdogConfig] = None
    #: >0 selects the TDM QoS baseline with this many domains
    tdm_domains: int = 0
    #: links taken out of service via up*/down* rerouting (Ariadne
    #: baseline); non-empty forces table routing
    rerouted_links: tuple[LinkKey, ...] = ()
    #: attach the network-level containment coordinator on top of the
    #: watchdog (pure observer until the watchdog escalates)
    containment: Optional[ContainmentConfig] = None
    #: probe-based probation/reinstatement of contained links (requires
    #: ``containment``); None keeps every condemnation permanent
    probation: Optional[ProbationConfig] = None
    #: early traffic-statistics detector feeding the watchdog ladder
    #: (requires ``watchdog`` to act on link flags)
    detector: Optional[DetectConfig] = None
    #: topology-aware attacker localization over the detector's
    #: footprints (requires ``detector``); with ``containment`` it
    #: switches quarantine to localized neighborhoods
    localizer: Optional[LocalizeConfig] = None


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible run description."""

    name: str = "scenario"
    cfg: NoCConfig = PAPER_CONFIG
    traffic: tuple[TrafficSpec, ...] = ()
    trojans: tuple[TrojanSpec, ...] = ()
    #: scheduled packet-drop attacks on the recovery path
    attacks: tuple[DropAttackSpec, ...] = ()
    faults: tuple[TransientFaultSpec, ...] = ()
    defense: DefenseSpec = DefenseSpec()
    #: run exactly this many cycles (None = run until drained)
    duration: Optional[int] = None
    #: drain-mode cycle budget
    max_cycles: int = 10_000
    #: abort drain mode after this many delivery-free cycles
    stall_limit: Optional[int] = None
    #: Network.sample_interval (0 disables periodic samples)
    sample_interval: int = 10
    #: online invariant sentinel configuration (None = no sentinel)
    sentinel: Optional[SentinelSpec] = None
    #: experiment-level seed, recorded for provenance/hashing; the
    #: traffic and fault specs carry the derived per-stream seeds
    seed: int = 0
    #: advance loop: "sweep" (per-cycle oracle) or "event" (wakeup
    #: scheduler).  The two are byte-identical by contract, so the
    #: engine is *excluded* from the content hash — results cache and
    #: checkpoints are shared across engines.
    engine: str = "sweep"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (expected one of {ENGINES})"
            )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"format": SCENARIO_FORMAT, **_encode(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ScenarioDecodeError(
                f"scenario format {fmt} not supported "
                f"(this build reads format {SCENARIO_FORMAT})"
            )
        body = {key: value for key, value in data.items() if key != "format"}
        return _decode(cls, body, "scenario")

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Stable hex digest of the canonical serialized form.

        The engine mode is stripped before hashing: the two engines
        are byte-identical by contract (enforced by the CI
        engine-oracle job), so sweep and event variants of a scenario
        share cache entries and checkpoint provenance.
        """
        payload = self.to_dict()
        payload.pop("engine", None)
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------
#: Fields added after scenario documents were already hashed.  Each may
#: be absent on decode, meaning its default.  Those mapped to True are
#: also left out of the encoding while at their default, so a document
#: written before the field existed keeps its bytes and content hash.
_LATE_FIELDS = {
    (NoCConfig, "topology"): True,
    (NoCConfig, "express_interval"): True,
    (TrojanSpec, "disable_at"): True,
    (DefenseSpec, "containment"): True,
    (DefenseSpec, "probation"): True,
    (DefenseSpec, "detector"): True,
    (DefenseSpec, "localizer"): True,
    (Scenario, "attacks"): True,
    (Scenario, "engine"): True,
    # always encoded, as null when unset
    (Scenario, "sentinel"): False,
}

_hints = functools.cache(typing.get_type_hints)

#: JSON-native as they are; most values in a document are these
_SCALARS = (int, float, str, bool, type(None))


def _encode(value):
    """JSON-native form: dataclasses become objects of their fields
    (traffic specs tagged with their ``kind``), enums their names,
    tuples lists."""
    if type(value) in _SCALARS:  # an exact match: Direction is an IntEnum
        return value
    if dataclasses.is_dataclass(value):
        cls = type(value)
        out = {}
        if cls in _KIND_OF_TRAFFIC:
            out["kind"] = _KIND_OF_TRAFFIC[cls]
        for f in dataclasses.fields(cls):
            item = _encode(getattr(value, f.name))
            if _LATE_FIELDS.get((cls, f.name)) and item == _encode(f.default):
                continue
            out[f.name] = item
        return out
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def _decode(tp, data, where: str):
    """Rebuild a value of annotated type ``tp`` from its JSON form,
    naming the path of whatever is damaged."""
    if tp in _SCALARS:
        return data
    origin = typing.get_origin(tp)
    if origin is Union:
        options = typing.get_args(tp)
        if type(None) in options:  # Optional[X]
            return None if data is None else _decode(options[0], data, where)
        kind = _field(data, "kind", where)
        tp = _TRAFFIC_KINDS.get(kind)
        if tp not in options:
            known = ", ".join(sorted(_TRAFFIC_KINDS))
            raise ScenarioDecodeError(
                f"{where}: unknown kind {kind!r} (known kinds: {known})"
            )
        data = {key: value for key, value in data.items() if key != "kind"}
    if dataclasses.is_dataclass(tp):
        return _decode_fields(tp, data, where)
    if tp is tuple or origin is tuple:
        if not isinstance(data, list):
            raise ScenarioDecodeError(f"{where}: expected a list")
        items = typing.get_args(tp)
        if not items:
            return tuple(data)
        if items[-1] is Ellipsis:
            items = items[:1] * len(data)
        elif len(items) != len(data):
            raise ScenarioDecodeError(
                f"{where}: expected {len(items)} items, got {len(data)}"
            )
        return tuple(
            _decode(item, value, f"{where}[{i}]")
            for i, (item, value) in enumerate(zip(items, data))
        )
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp[data]
        except (KeyError, TypeError):
            raise ScenarioDecodeError(
                f"{where}: unknown {tp.__name__} {data!r}"
            ) from None
    return data


def _decode_fields(cls, data, where: str):
    if not isinstance(data, dict):
        raise ScenarioDecodeError(f"{where}: expected an object")
    fields = dataclasses.fields(cls)
    extra = sorted(set(data) - {f.name for f in fields})
    if extra:
        raise ScenarioDecodeError(
            f"{where}: unexpected key(s) {', '.join(map(repr, extra))}"
        )
    hints = _hints(cls)
    kwargs = {
        f.name: _decode(
            hints[f.name], _field(data, f.name, where), f"{where}.{f.name}"
        )
        for f in fields
        if f.name in data or (cls, f.name) not in _LATE_FIELDS
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # the spec's own validation, e.g. a disable_at before enable_at
        raise ScenarioDecodeError(f"{where}: {exc}") from None


def _field(data, key: str, where: str):
    try:
        return data[key]
    except (KeyError, TypeError):
        raise ScenarioDecodeError(
            f"{where}: missing required key {key!r}"
        ) from None
