"""Exporters and validators for the observability layer.

Three on-disk formats, all versioned:

* **events.jsonl** — one serialized :class:`~repro.obs.events.Event`
  per line, each carrying the schema version (``"v"``);
* **metrics.json** — the per-run manifest: the registry snapshot, the
  windowed back-pressure series, event-stream accounting, and (when
  profiling is armed) the phase wall-clock breakdown.  Everything but
  the optional profile section is deterministic — counts only — so
  identical runs produce identical manifests;
* **metrics.prom** — the registry in Prometheus text exposition
  format, for eyeballing or scraping into external tooling.

``python -m repro.obs.exporters validate PATH...`` re-reads any of
these (or a directory holding them) and fails loudly on schema
mismatch; the CI observability smoke job runs it against a full
``fig11`` export.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, TYPE_CHECKING

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    Event,
    event_from_dict,
    EventSchemaError,
)
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.instrument import Observability

#: bump on incompatible metrics.json layout changes
METRICS_FORMAT = 1


class ObsExportError(ValueError):
    """An export file failed validation."""


# ---------------------------------------------------------------------------
# JSONL event stream
# ---------------------------------------------------------------------------
def write_events_jsonl(
    path: "str | Path", events: Iterable[Event], append: bool = False
) -> int:
    """Write one event per line (after the existing ones with
    ``append``); returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def iter_events_jsonl(path: "str | Path") -> Iterator[Event]:
    """Parse and schema-validate a JSONL event stream one line at a
    time, so no more than one event is held; a bad line raises
    :class:`ObsExportError` naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObsExportError(
                    f"{path}:{lineno}: not JSON: {exc}"
                ) from exc
            try:
                event = event_from_dict(payload)
            except EventSchemaError as exc:
                raise ObsExportError(
                    f"{path}:{lineno}: {exc}"
                ) from exc
            yield event


def validate_events_jsonl(path: "str | Path") -> int:
    """Number of valid events in the stream (raises on any bad one)."""
    return sum(1 for _ in iter_events_jsonl(path))


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _label_str(labels: dict, extra: dict = {}) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines = []
    snapshot = registry.snapshot()
    for name, family in snapshot.items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for child in family["series"]:
            labels = child["labels"]
            value = child["value"]
            if family["kind"] == "histogram":
                for bound, count in value["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(labels, {'le': bound})} {count}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {value['sum']}")
                lines.append(
                    f"{name}_count{_label_str(labels)} {value['count']}"
                )
            else:
                lines.append(f"{name}{_label_str(labels)} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# metrics.json manifest
# ---------------------------------------------------------------------------
def disabled_manifest() -> dict:
    """The metrics section of a run with observability off."""
    return {"format": METRICS_FORMAT, "enabled": False}


def build_manifest(obs: "Observability") -> dict:
    """The per-run metrics.json payload for one observability bundle."""
    from repro.obs import profiler

    sink = obs.export_sink
    manifest = {
        "format": METRICS_FORMAT,
        "enabled": True,
        "event_schema_version": EVENT_SCHEMA_VERSION,
        "runs": list(obs.runs),
        "metrics": obs.registry.snapshot(),
        "events": {
            "published": obs.bus.published,
            "queued": len(sink.batch) if sink is not None else 0,
            "dropped": obs.events_dropped,
        },
        "series": (
            obs.series.to_jsonable() if obs.series is not None else None
        ),
    }
    prof = profiler.current()
    if prof is not None and prof.seconds:
        manifest["profile"] = prof.to_jsonable()
    return manifest


def write_metrics_json(path: "str | Path", manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def validate_metrics_json(path: "str | Path") -> dict:
    """Parse and structurally validate a metrics.json manifest."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ObsExportError(f"{path}: unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ObsExportError(f"{path}: manifest must be an object")
    if manifest.get("format") != METRICS_FORMAT:
        raise ObsExportError(
            f"{path}: metrics format {manifest.get('format')!r} not "
            f"supported (this build reads format {METRICS_FORMAT})"
        )
    if not isinstance(manifest.get("enabled"), bool):
        raise ObsExportError(f"{path}: 'enabled' must be a boolean")
    if not manifest["enabled"]:
        return manifest
    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        raise ObsExportError(f"{path}: 'metrics' must be an object")
    for name, family in metrics.items():
        # this build writes gauges and histograms only; older exports
        # with counter families still validate
        if not isinstance(family, dict) or family.get("kind") not in (
            "counter", "gauge", "histogram",
        ):
            raise ObsExportError(
                f"{path}: family {name!r} has no valid kind"
            )
        series = family.get("series")
        if not isinstance(series, list):
            raise ObsExportError(
                f"{path}: family {name!r} series must be a list"
            )
        for child in series:
            if (
                not isinstance(child, dict)
                or not isinstance(child.get("labels"), dict)
                or "value" not in child
            ):
                raise ObsExportError(
                    f"{path}: family {name!r} has a malformed child"
                )
    events = manifest.get("events")
    if not isinstance(events, dict) or not all(
        isinstance(events.get(key), int)
        for key in ("published", "queued", "dropped")
    ):
        raise ObsExportError(
            f"{path}: 'events' must carry integer "
            "published/queued/dropped counts"
        )
    series = manifest.get("series")
    if series is not None:
        if not isinstance(series, dict) or not isinstance(
            series.get("points"), list
        ):
            raise ObsExportError(
                f"{path}: 'series' must be a windowed-series object"
            )
    return manifest


# ---------------------------------------------------------------------------
# one-call export
# ---------------------------------------------------------------------------
def export_all(obs: "Observability") -> dict:
    """Write every export path configured on the bundle's ObsConfig;
    returns the manifest (built even when no path is configured)."""
    config = obs.config
    if obs.export_sink is not None:
        obs.spill_events()
    manifest = build_manifest(obs)
    if config.metrics_json:
        write_metrics_json(config.metrics_json, manifest)
    if config.prometheus:
        path = Path(config.prometheus)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prometheus_text(obs.registry))
    return manifest


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def _export_files(path: Path) -> list[Path]:
    """Every export file named by ``path``: itself when it is a file,
    else every ``*.jsonl`` / ``*.json`` anywhere under the directory
    (an ``--obs-dir`` tree holds one subdirectory per experiment)."""
    if not path.is_dir():
        return [path]
    return sorted(
        candidate
        for candidate in path.rglob("*")
        if candidate.is_file()
        and candidate.suffix in (".jsonl", ".json")
    )


def _validate_file(path: Path) -> str:
    """Validate one export file; returns its human-readable status."""
    if path.suffix == ".jsonl":
        count = validate_events_jsonl(path)
        return f"{path}: {count} events, schema v{EVENT_SCHEMA_VERSION}"
    manifest = validate_metrics_json(path)
    families = len(manifest.get("metrics", {}))
    return (
        f"{path}: metrics format {manifest['format']}, "
        f"{families} metric families, "
        f"enabled={manifest['enabled']}"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.exporters",
        description="validate observability export files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser(
        "validate",
        help="schema-check events.jsonl / metrics.json files "
        "(or directories of them, recursively)",
    )
    validate.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)

    checked = 0
    errors: list[tuple[Path, Exception]] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files = _export_files(path)
            if not files:
                errors.append(
                    (
                        path,
                        ObsExportError(
                            f"{path}: no .jsonl/.json export files found"
                        ),
                    )
                )
                continue
        else:
            files = [path]
        # every file is validated — one bad export does not hide the
        # state of the rest of the tree
        for file in files:
            checked += 1
            try:
                print(_validate_file(file))
            except (ObsExportError, OSError) as exc:
                errors.append((file, exc))
    if errors:
        print(f"\n{checked} files checked, {len(errors)} invalid:")
        for file, exc in errors:
            print(f"INVALID: {exc}")
        return 1
    print(f"\n{checked} files checked, all valid")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
