"""Typed, versioned simulation events with a non-blocking bus.

The event catalog (:data:`EVENT_KINDS`) names every lifecycle moment
the stack emits: flit injection/delivery, on-wire corruption and the
retransmissions it causes, detector verdicts, L-Ob engagements,
watchdog escalations, checkpoints and sentinel trips.  Each kind pins
the data keys it may carry, and every serialized event carries the
schema version (:data:`EVENT_SCHEMA_VERSION`), so a JSONL stream from
one build is validated — not guessed at — by another.

The :class:`EventBus` is deliberately boring: ``emit`` hands each
event to every sink in turn, and with no sink it builds nothing.
Sinks only read events — observability must not be able to change
simulated behaviour (the determinism proof in
``tests/test_obs_integration.py`` depends on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

#: bump on incompatible changes to Event layout or kind semantics
#: (v2 adds the recovery loop: probe / reinstate / flap_damp / detect;
#: v3 adds attacker localization: localize)
EVENT_SCHEMA_VERSION = 3

#: older schema versions this build still reads (strict subsets of v3:
#: every v2 kind keeps its exact key set, so v2 streams validate as-is)
COMPATIBLE_SCHEMA_VERSIONS = (2, EVENT_SCHEMA_VERSION)

#: event kind -> data keys it may carry (all optional per event)
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # flit lifecycle
    "inject": ("pkt_id", "seq", "core"),
    "deliver": ("pkt_id", "seq", "core"),
    # the attack surface
    "corrupt": ("pkt_id", "seq", "link", "bits"),
    "retransmit": ("pkt_id", "seq", "link", "tag"),
    # defense decisions
    "verdict": ("link", "verdict"),
    "obfuscate": ("pkt_id", "seq", "link", "method"),
    "escalate": ("link", "stage", "pkt_id", "tag", "detail"),
    # network-level containment (coordinator decisions)
    "contain": ("link", "action", "detail"),
    "partition_risk": ("link", "detail"),
    # the recovery loop (probation / early detection)
    "probe": ("link", "detail"),
    "reinstate": ("link", "detail"),
    "flap_damp": ("link", "detail"),
    "detect": ("link", "router", "z", "detail"),
    # attacker localization (fused footprint estimates)
    "localize": ("link", "router", "score", "detail"),
    # engine lifecycle
    "checkpoint": ("checkpoint_cycle", "path"),
    "sentinel_trip": ("trip_kind", "message"),
}


class EventSchemaError(ValueError):
    """A serialized event does not match this build's schema."""


@dataclass(frozen=True, slots=True)
class Event:
    """One structured observation.

    ``run`` names the scenario that emitted it (one observability
    instance may span several simulations in one experiment); ``data``
    holds the kind-specific payload.
    """

    kind: str
    cycle: int
    run: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON form, schema version included."""
        out = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": self.kind,
            "cycle": self.cycle,
            "run": self.run,
        }
        out.update(self.data)
        return out


def validate_event_dict(payload: dict) -> None:
    """Raise :class:`EventSchemaError` unless ``payload`` is a valid
    serialized event for this build's schema."""
    if not isinstance(payload, dict):
        raise EventSchemaError(f"event must be an object, got {payload!r}")
    version = payload.get("v")
    if version not in COMPATIBLE_SCHEMA_VERSIONS:
        raise EventSchemaError(
            f"event schema version {version!r} not supported (this "
            f"build reads versions {COMPATIBLE_SCHEMA_VERSIONS})"
        )
    kind = payload.get("kind")
    allowed = EVENT_KINDS.get(kind)
    if allowed is None:
        raise EventSchemaError(f"unknown event kind {kind!r}")
    if not isinstance(payload.get("cycle"), int):
        raise EventSchemaError(f"{kind}: cycle must be an integer")
    if not isinstance(payload.get("run", ""), str):
        raise EventSchemaError(f"{kind}: run must be a string")
    extra = set(payload) - {"v", "kind", "cycle", "run"} - set(allowed)
    if extra:
        raise EventSchemaError(
            f"{kind}: unexpected data keys {sorted(extra)} "
            f"(allowed: {sorted(allowed)})"
        )


def event_from_dict(payload: dict) -> Event:
    """Parse and validate one serialized event."""
    validate_event_dict(payload)
    data = {
        key: value
        for key, value in payload.items()
        if key not in ("v", "kind", "cycle", "run")
    }
    return Event(
        kind=payload["kind"],
        cycle=payload["cycle"],
        run=payload.get("run", ""),
        data=data,
    )


class EventBus:
    """Hands each published :class:`Event` to every sink, in order.

    A sink is any callable taking one event.  Sinks must be picklable
    (module-level classes or bound methods, never closures), the rule
    the hook classes follow, so an observed simulation still pickles
    through :mod:`repro.sim.checkpoint`.
    """

    def __init__(self) -> None:
        #: called with every event, in publish order
        self.sinks: list[Callable[[Event], object]] = []
        self.published = 0

    def emit(
        self, kind: str, cycle: int, run: str = "", **data
    ) -> Optional[Event]:
        """Build the event and hand it to every sink; returns it, or
        None when no sink listens (nothing is built in that case)."""
        sinks = self.sinks
        if not sinks:
            return None
        event = Event(kind=kind, cycle=cycle, run=run, data=data)
        self.published += 1
        for sink in sinks:
            sink(event)
        return event
