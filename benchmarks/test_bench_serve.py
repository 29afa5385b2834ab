"""Verdict pipeline: verdict latency + observer overhead.

Two records pin the cost model of :func:`run_streaming`:

* **verdict latency** — cycles from trojan activation to each streamed
  verdict (p50/p95, nearest-rank).  Latency is quantized by the
  detection window: the z-score rules cannot speak before the windows
  holding the anomaly close, so the p50 should sit within a few
  windows of the activation edge.
* **streaming overhead** — wall-clock of :func:`run_streaming`
  (feature folding + classifiers) against the identical run carrying
  only the event instrumentation it consumes, interleaved round-robin.
  The bus's own cost against a bare run is ``BENCH_obs.json``'s
  number (that is the baseline the pipeline builds on); this
  bench pins what the *analytics* add on top of the bus at under 5%.
  The streamed result is asserted byte-identical to a bare run (pure
  observer) before any timing is trusted.
"""

import dataclasses
import os
import time

from repro.core import TargetSpec
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction
from repro.obs.instrument import ObsConfig, Observability
from repro.obs.perf import percentile
from repro.resilience.detect import DetectConfig
from repro.serve.pipeline import run_streaming
from repro.sim import (
    DefenseSpec,
    Scenario,
    Simulation,
    SyntheticTraffic,
    TrojanSpec,
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
DURATION = 400 if QUICK else 2000
ROUNDS = 3 if QUICK else 5
STREAM_OVERHEAD = 0.50 if QUICK else 0.05

#: detection window the latency is quantized by
WINDOW = DetectConfig().window
#: trojan activation edge: past the classifier warmup, so the quiet
#: baseline is already built when the attack starts
ENABLE_AT = WINDOW * DetectConfig().warmup_windows + 50


def _attack_scenario() -> Scenario:
    horizon = ENABLE_AT + 40 * WINDOW
    return Scenario(
        name="bench-serve-latency",
        cfg=PAPER_CONFIG,
        traffic=(
            SyntheticTraffic(
                pattern="uniform",
                injection_rate=0.10,
                duration=horizon,
                seed=11,
            ),
        ),
        trojans=(
            TrojanSpec(
                (0, Direction.EAST),
                TargetSpec.for_dest(11),
                enable_at=ENABLE_AT,
            ),
        ),
        defense=DefenseSpec(),
        max_cycles=horizon + 6000,
        stall_limit=3000,
    )


def _benign_scenario() -> Scenario:
    return Scenario(
        name="bench-serve-overhead",
        cfg=PAPER_CONFIG,
        traffic=(
            SyntheticTraffic(
                pattern="uniform",
                injection_rate=0.10,
                duration=DURATION,
                seed=11,
            ),
        ),
        max_cycles=DURATION + 6000,
    )


def test_bench_serve_verdict_latency(record_samples, bench_meta):
    started = time.perf_counter()
    run = run_streaming(_attack_scenario())
    elapsed = time.perf_counter() - started

    assert run.verdicts, "the attack never produced a verdict"
    latencies = [float(v.cycle - ENABLE_AT) for v in run.verdicts]
    assert all(lat > 0 for lat in latencies)
    p50 = percentile(latencies, 0.5)
    p95 = percentile(latencies, 0.95)
    first = min(latencies)
    # the earliest verdict is bounded by window quantization: the
    # anomalous window must close, plus the streak policy's windows
    worst_first = (DetectConfig().consecutive + 2) * WINDOW
    assert first <= worst_first

    print(
        f"\nverdict latency over {len(latencies)} verdicts "
        f"(window={WINDOW}): first {first:.0f}, p50 {p50:.0f}, "
        f"p95 {p95:.0f} cycles after activation"
    )
    bench_meta["cycles"] = run.result.cycles
    bench_meta["scenario_hash"] = _attack_scenario().content_hash()
    record_samples(
        [elapsed],
        verdicts=len(latencies),
        window=WINDOW,
        latency_first_cycles=first,
        latency_p50_cycles=p50,
        latency_p95_cycles=p95,
    )


def _instrumented_run():
    """The pipeline's baseline: the identical run carrying the
    events-only bundle :func:`run_streaming` itself builds, with a list
    sink in the pipeline's place, so every event is still built."""
    obs = Observability(ObsConfig(metrics=False, window=0))
    obs.bus.sinks.append([].append)
    return Simulation(_benign_scenario(), obs=obs).run()


def test_bench_serve_streaming_overhead(record_samples, bench_meta):
    times: dict = {"bare": [], "instrumented": [], "streamed": []}
    bare_result = None
    streamed = None
    for _ in range(ROUNDS):
        sim = Simulation(_benign_scenario())
        started = time.perf_counter()
        bare_result = sim.run()
        times["bare"].append(time.perf_counter() - started)

        started = time.perf_counter()
        _instrumented_run()
        times["instrumented"].append(time.perf_counter() - started)

        started = time.perf_counter()
        streamed = run_streaming(_benign_scenario())
        times["streamed"].append(time.perf_counter() - started)

    # pure-observer contract before any timing claim
    assert dataclasses.asdict(streamed.result) == dataclasses.asdict(
        bare_result
    )
    assert [v for v in streamed.verdicts if v.kind == "suspect_link"] == []

    best = {name: min(samples) for name, samples in times.items()}
    analytics = best["streamed"] / best["instrumented"] - 1.0
    total = best["streamed"] / best["bare"] - 1.0
    print(
        f"\nstreaming overhead on {streamed.result.cycles} cycles "
        f"(min of {ROUNDS}): bare {best['bare'] * 1e3:.0f}ms, "
        f"events {best['instrumented'] * 1e3:.0f}ms, "
        f"analytics {analytics * 100:+.1f}% over the bus "
        f"({total * 100:+.1f}% total vs bare)"
    )
    bench_meta["cycles"] = streamed.result.cycles
    bench_meta["bare_min_s"] = best["bare"]
    bench_meta["instrumented_min_s"] = best["instrumented"]
    bench_meta["total_overhead"] = round(total, 4)
    record_samples(times["streamed"], variant="streamed")

    assert analytics < STREAM_OVERHEAD
