"""Tests for observability exporters, validators and bench records."""

import json

import pytest

from repro.obs.events import EVENT_SCHEMA_VERSION, Event
from repro.obs.exporters import (
    ObsExportError,
    build_manifest,
    disabled_manifest,
    main as exporters_main,
    prometheus_text,
    iter_events_jsonl,
    validate_events_jsonl,
    validate_metrics_json,
    write_events_jsonl,
    write_metrics_json,
)
from repro.obs.instrument import ObsConfig, Observability
from repro.obs.perf import (
    BENCH_FORMAT,
    bench_record,
    percentile,
    read_bench_file,
    write_bench_file,
)
from repro.obs.registry import MetricsRegistry


EVENTS = [
    Event(kind="inject", cycle=0, run="r", data={"pkt_id": 1}),
    Event(kind="corrupt", cycle=3, run="r",
          data={"link": "0->EAST", "bits": 2}),
]


class TestEventsJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert write_events_jsonl(path, EVENTS) == 2
        assert list(iter_events_jsonl(path)) == EVENTS
        assert validate_events_jsonl(path) == 2

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"v": %d, "kind": "inject", "cycle": 0}\n{oops\n'
                        % EVENT_SCHEMA_VERSION)
        with pytest.raises(ObsExportError, match=":2: not JSON"):
            list(iter_events_jsonl(path))

    def test_schema_violation_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, EVENTS)
        with open(path, "a") as fh:
            fh.write(json.dumps({"v": 999, "kind": "inject", "cycle": 0}))
        with pytest.raises(ObsExportError, match=":3: "):
            validate_events_jsonl(path)

    def test_iter_yields_each_valid_event_before_a_bad_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, EVENTS)
        with open(path, "a") as fh:
            fh.write("{oops\n")
        events = iter_events_jsonl(path)
        assert [next(events), next(events)] == EVENTS
        with pytest.raises(ObsExportError, match="events.jsonl:3: not JSON"):
            next(events)


class TestPrometheusText:
    def test_gauge_and_histogram_forms(self):
        reg = MetricsRegistry()
        reg.gauge("hits", "how many", link="0->EAST").set(3)
        reg.gauge("depth").set(7)
        reg.histogram("lat", buckets=(10,)).observe(4)
        text = prometheus_text(reg)
        assert "# HELP hits how many" in text
        assert "# TYPE hits gauge" in text
        assert 'hits{link="0->EAST"} 3' in text
        assert "depth 7" in text
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 4" in text and "lat_count 1" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("c", label='say "hi"\\').set(1)
        text = prometheus_text(reg)
        assert 'label="say \\"hi\\"\\\\"' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestMetricsManifest:
    def test_disabled_manifest_is_minimal_and_valid(self, tmp_path):
        path = write_metrics_json(tmp_path / "m.json", disabled_manifest())
        manifest = validate_metrics_json(path)
        assert manifest == {"format": 1, "enabled": False}

    def test_enabled_manifest_round_trips_the_validator(self, tmp_path):
        obs = Observability(ObsConfig())
        obs.registry.gauge("stats_flits_injected", run="r").set(5)
        obs.series.observe(0, "r/input_utilization", 3)
        obs.series.flush()
        events = []
        obs.bus.sinks.append(events.append)
        obs.bus.emit("inject", 0, "r", pkt_id=1)
        manifest = build_manifest(obs)
        path = write_metrics_json(tmp_path / "metrics.json", manifest)
        checked = validate_metrics_json(path)
        assert checked["enabled"] is True
        assert checked["event_schema_version"] == EVENT_SCHEMA_VERSION
        assert checked["events"]["published"] == 1
        assert "stats_flits_injected" in checked["metrics"]
        assert checked["series"]["points"][0]["values"] == {
            "r/input_utilization": 3
        }

    @pytest.mark.parametrize(
        "payload,complaint",
        [
            ([], "must be an object"),
            ({"format": 99, "enabled": True}, "not.*supported"),
            ({"format": 1, "enabled": "yes"}, "boolean"),
            (
                {"format": 1, "enabled": True, "metrics": {"x": {}},
                 "events": {}, "series": None},
                "no valid kind",
            ),
            (
                {"format": 1, "enabled": True, "metrics": {},
                 "events": {"published": "many"}, "series": None},
                "integer",
            ),
        ],
    )
    def test_validator_rejects_malformed_manifests(
        self, tmp_path, payload, complaint
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ObsExportError, match=complaint):
            validate_metrics_json(path)

    def test_validator_accepts_older_counter_families(self, tmp_path):
        # registries once held counters; their exports still validate
        family = {"kind": "counter", "help": "", "series": [
            {"labels": {"run": "r"}, "value": 5},
        ]}
        path = write_metrics_json(tmp_path / "old.json", {
            "format": 1, "enabled": True,
            "metrics": {"noc_flits_injected": family},
            "events": {"published": 0, "queued": 0, "dropped": 0},
            "series": None,
        })
        assert validate_metrics_json(path)["metrics"]["noc_flits_injected"]


class TestExportAll:
    def test_all_configured_paths_written(self, tmp_path):
        config = ObsConfig(
            events_jsonl=str(tmp_path / "out" / "events.jsonl"),
            metrics_json=str(tmp_path / "out" / "metrics.json"),
            prometheus=str(tmp_path / "out" / "metrics.prom"),
        )
        obs = Observability(config)
        obs.registry.gauge("hits", run="r").set(1)
        obs.bus.emit("inject", 0, "r", pkt_id=1)
        manifest = obs.export()
        assert validate_events_jsonl(config.events_jsonl) == 1
        assert validate_metrics_json(config.metrics_json)["enabled"]
        assert "hits" in (tmp_path / "out" / "metrics.prom").read_text()
        assert manifest["events"]["published"] == 1

    def test_cli_validates_a_directory(self, tmp_path, capsys):
        config = ObsConfig(
            events_jsonl=str(tmp_path / "events.jsonl"),
            metrics_json=str(tmp_path / "metrics.json"),
        )
        obs = Observability(config)
        obs.bus.emit("inject", 0, "r", pkt_id=1)
        obs.export()
        assert exporters_main(["validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 events" in out and "metrics format 1" in out

    def test_cli_flags_broken_files(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text("{broken\n")
        assert exporters_main(["validate", str(tmp_path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_cli_rejects_empty_directory(self, tmp_path, capsys):
        assert exporters_main(["validate", str(tmp_path)]) == 1
        assert "no .jsonl/.json" in capsys.readouterr().out

    def test_cli_recurses_into_per_experiment_subdirectories(
        self, tmp_path, capsys
    ):
        for name in ("fig11", "table2"):
            config = ObsConfig(
                events_jsonl=str(tmp_path / name / "events.jsonl"),
                metrics_json=str(tmp_path / name / "metrics.json"),
            )
            obs = Observability(config)
            obs.bus.emit("inject", 0, name, pkt_id=1)
            obs.export()
        assert exporters_main(["validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("1 events") == 2
        assert out.count("metrics format 1") == 2
        assert "4 files checked, all valid" in out

    def test_cli_reports_every_broken_file_not_just_the_first(
        self, tmp_path, capsys
    ):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "events.jsonl").write_text("{broken\n")
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "metrics.json").write_text("[]")
        config = ObsConfig(
            events_jsonl=str(tmp_path / "c" / "events.jsonl")
        )
        obs = Observability(config)
        obs.bus.emit("inject", 0, "r", pkt_id=1)
        obs.export()
        assert exporters_main(["validate", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        # both failures surfaced, the good file still validated
        assert out.count("INVALID") == 2
        assert "1 events" in out
        assert "3 files checked, 2 invalid" in out


class TestBenchRecords:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0.95) == 3.0

    def test_bench_record_derives_cycles_per_sec(self):
        record = bench_record(
            "t", [2.0, 4.0], meta={"cycles": 1000, "scenario_hash": "ab"}
        )
        assert record["median_s"] == 2.0
        assert record["cycles_per_sec"] == 500.0
        assert record["scenario_hash"] == "ab"
        assert record["rounds"] == 2

    def test_write_read_round_trip(self, tmp_path):
        write_bench_file(
            tmp_path, "unit", [bench_record("b", [1.0]),
                               bench_record("a", [2.0])]
        )
        payload = read_bench_file(tmp_path / "BENCH_unit.json")
        assert payload["format"] == BENCH_FORMAT
        assert [r["test"] for r in payload["results"]] == ["a", "b"]
        assert payload["git_sha"]

    def test_read_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="not.*supported"):
            read_bench_file(path)
