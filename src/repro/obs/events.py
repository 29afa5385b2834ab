"""Typed, versioned simulation events with a non-blocking bus.

The event catalog (:data:`EVENT_KINDS`) names every lifecycle moment
the stack emits: flit injection/delivery, on-wire corruption and the
retransmissions it causes, detector verdicts, L-Ob engagements,
watchdog escalations, checkpoints and sentinel trips.  Each kind pins
the data keys it may carry, and every serialized event carries the
schema version (:data:`EVENT_SCHEMA_VERSION`), so a JSONL stream from
one build is validated — not guessed at — by another.

The :class:`EventBus` is deliberately boring: ``publish`` appends to
each subscriber's bounded queue and **never blocks or raises**.  A
full queue counts a drop on that subscription instead of stalling the
simulation — observability must not be able to change simulated
behaviour (the determinism proof in ``tests/test_obs_integration.py``
depends on it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

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


class Subscription:
    """A bounded event queue owned by one consumer.

    The bus appends to it; the consumer :meth:`drain`\\ s it.  When the
    queue is full and the consumer gave no ``flush``, new events are
    *dropped and counted* — never blocked on — so a slow or absent
    consumer cannot stall the simulation.  A consumer that drains only
    at the end of a run (the ``events.jsonl`` export) passes ``flush``
    instead: the bus calls it on a full queue, it drains the queue into
    the consumer, and nothing is dropped while memory stays bounded by
    ``capacity``.
    """

    __slots__ = ("capacity", "queue", "dropped", "received", "flush")

    def __init__(
        self, capacity: int, flush: Optional[Callable[[], object]] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("subscription capacity must be positive")
        self.capacity = capacity
        self.queue: deque[Event] = deque()
        self.dropped = 0
        self.received = 0
        #: drains the full queue into its consumer (None: drop instead);
        #: a bound method, so an instrumented simulation still pickles
        self.flush = flush

    def __len__(self) -> int:
        return len(self.queue)

    def drain(self) -> list[Event]:
        """All queued events, removing them (oldest first)."""
        out = list(self.queue)
        self.queue.clear()
        return out

    def peek(self) -> Iterator[Event]:
        return iter(self.queue)


class EventBus:
    """Fan-out of :class:`Event` values to bounded subscriptions."""

    def __init__(self) -> None:
        self.subscriptions: list[Subscription] = []
        self.published = 0

    @property
    def active(self) -> bool:
        """True when anyone is listening (hooks use this to skip the
        Event construction entirely on the disabled path)."""
        return bool(self.subscriptions)

    def subscribe(
        self,
        capacity: int = 200_000,
        flush: Optional[Callable[[], object]] = None,
    ) -> Subscription:
        """A new subscription; see :class:`Subscription` for ``flush``."""
        sub = Subscription(capacity, flush)
        self.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self.subscriptions.remove(sub)
        except ValueError:
            pass

    def publish(self, event: Event) -> None:
        self.published += 1
        for sub in self.subscriptions:
            if len(sub.queue) >= sub.capacity:
                if sub.flush is None:
                    sub.dropped += 1
                    continue
                sub.flush()
            sub.queue.append(event)
            sub.received += 1

    def emit(
        self, kind: str, cycle: int, run: str = "", **data
    ) -> Optional[Event]:
        """Build and publish in one call; returns the event, or None
        when nobody is subscribed (nothing is built in that case)."""
        if not self.subscriptions:
            return None
        event = Event(kind=kind, cycle=cycle, run=run, data=data)
        self.publish(event)
        return event


def events_to_jsonable(events: Iterable[Event]) -> list[dict]:
    return [event.to_dict() for event in events]
