"""Tests for the structured event schema and bus (repro.obs.events)."""

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventBus,
    EventSchemaError,
    event_from_dict,
    validate_event_dict,
)


class TestSchema:
    def test_round_trip(self):
        event = Event(
            kind="corrupt", cycle=42, run="fig11",
            data={"pkt_id": 7, "seq": 1, "link": "0->EAST", "bits": 2},
        )
        payload = event.to_dict()
        assert payload["v"] == EVENT_SCHEMA_VERSION
        assert event_from_dict(payload) == event

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_every_kind_round_trips_with_full_payload(self, kind):
        data = {key: 1 for key in EVENT_KINDS[kind]}
        event = Event(kind=kind, cycle=0, run="r", data=data)
        assert event_from_dict(event.to_dict()) == event

    def test_version_mismatch_rejected(self):
        payload = Event(kind="inject", cycle=1).to_dict()
        payload["v"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(EventSchemaError, match="schema version"):
            validate_event_dict(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            validate_event_dict({"v": EVENT_SCHEMA_VERSION,
                                 "kind": "teleport", "cycle": 0})

    def test_unexpected_data_keys_rejected(self):
        payload = Event(kind="verdict", cycle=5).to_dict()
        payload["surprise"] = True
        with pytest.raises(EventSchemaError, match="unexpected data keys"):
            validate_event_dict(payload)

    def test_non_integer_cycle_rejected(self):
        with pytest.raises(EventSchemaError, match="cycle"):
            validate_event_dict({"v": EVENT_SCHEMA_VERSION,
                                 "kind": "inject", "cycle": "soon"})


class TestBus:
    def test_emit_without_subscribers_builds_nothing(self):
        bus = EventBus()
        assert bus.emit("inject", 0, pkt_id=1) is None
        assert bus.published == 0

    def test_fan_out_to_all_subscriptions(self):
        bus = EventBus()
        a, b = [], []
        bus.sinks += [a.append, b.append]
        event = bus.emit("deliver", 9, "run", pkt_id=3, seq=0, core=1)
        assert event is not None and bus.published == 1
        assert a == b == [event]

    def test_sinks_see_every_event_in_publish_order(self):
        bus = EventBus()
        seen = []
        bus.sinks += [
            lambda event: seen.append(("first", event.cycle)),
            lambda event: seen.append(("second", event.cycle)),
        ]
        for cycle in range(3):
            bus.emit("inject", cycle)
        assert seen == [
            (sink, cycle)
            for cycle in range(3)
            for sink in ("first", "second")
        ]
        assert bus.published == 3
