"""Machine-readable benchmark records (``BENCH_<name>.json``).

Every ``benchmarks/test_bench_*`` module gets one JSON file in the
repository root summarising its timed runs — median/p95 wall-clock,
derived cycles/sec, the scenario hash the timing belongs to and the
git revision it was measured at — so the performance trajectory is
comparable across PRs instead of living in CI log prose.

The writer lives here (not in ``benchmarks/conftest.py``) so it is
importable and unit-testable; the conftest only gathers samples and
calls :func:`write_bench_file` at session end.
"""

from __future__ import annotations

import gc
import json
import math
import subprocess
import tracemalloc
from pathlib import Path
from typing import Callable, Optional

#: bump on incompatible BENCH_*.json layout changes
BENCH_FORMAT = 1


def git_sha(root: "str | Path | None" = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def percentile(samples: list[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of a (non-empty) sample list."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


def traced_build(build: Callable[[], object]) -> tuple[object, int]:
    """What ``build()`` returns, and the bytes of Python allocation it
    keeps as :mod:`tracemalloc` traces them.

    ``build`` runs twice: the first, untraced call warms every import
    and module-level cache, so the traced one counts only what the
    built object holds.
    """
    build()
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return built, held


def bench_record(
    test: str, samples: list[float], meta: Optional[dict] = None
) -> dict:
    """One test's record: timing stats + caller-provided metadata.

    ``meta`` may carry ``cycles`` (simulated cycles per timed sample;
    turned into ``cycles_per_sec``), ``scenario_hash``, and anything
    else the bench wants on the trajectory.
    """
    meta = dict(meta or {})
    median = percentile(samples, 0.5)
    record = {
        "test": test,
        "rounds": len(samples),
        "median_s": median,
        "p95_s": percentile(samples, 0.95),
        "min_s": min(samples) if samples else None,
        "max_s": max(samples) if samples else None,
    }
    cycles = meta.pop("cycles", None)
    if cycles and median:
        record["cycles"] = cycles
        record["cycles_per_sec"] = cycles / median
    record.update(meta)
    return record


def write_bench_file(
    root: "str | Path", name: str, records: list[dict]
) -> Path:
    """Write ``BENCH_<name>.json`` under ``root``; returns the path."""
    root = Path(root)
    payload = {
        "format": BENCH_FORMAT,
        "name": name,
        "git_sha": git_sha(root),
        "results": sorted(records, key=lambda r: r.get("test", "")),
    }
    path = root / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def read_bench_file(path: "str | Path") -> dict:
    """Load and sanity-check one BENCH_*.json file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path}: bench format {payload.get('format')!r} not "
            f"supported (this build reads format {BENCH_FORMAT})"
        )
    return payload
