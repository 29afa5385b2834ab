"""Tests of the benchmark harness itself (``python -m pytest bench/tests``).

The smoke pass shrinks every horizon, so it checks plumbing — metric
names, failure accounting, the result files — not speed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from ledger import Ledger, conservation_failure, instrument

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = bench("--smoke", "--seconds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((out / "results.json").read_text())


def test_smoke_emits_exactly_the_declared_metrics(smoke_set):
    assert set(smoke_set["workloads"]) == {
        w["name"] for w in SPEC["workloads"]
    }
    for name, entry in smoke_set["workloads"].items():
        assert entry["failed"] == 0, (name, entry["failures"])
        assert set(entry["metrics"]) == END_TO_END, name
        assert set(entry["per_layer"]) == PER_LAYER, name
        for metric in entry["metrics"].values():
            assert metric["median"] > 0


def test_every_per_layer_metric_is_tagged_with_layer_and_target():
    assert set(run.LAYER_TAGS) == PER_LAYER


def test_one_workload_run_prints_the_result_line(tmp_path):
    proc = bench("--workload", "sparse-event-mesh4", "--seed", "3",
                 "--seconds", "0", "--trace", "0", "--smoke",
                 "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == END_TO_END


def test_compare_refuses_smoke_results(smoke_set, tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(smoke_set))
    with pytest.raises(SystemExit) as exc:
        run.compare(str(path), str(path))
    assert exc.value.code == 2


# -- compare verdicts ---------------------------------------------------------
def stats(*samples):
    return run.quartiles(list(samples))


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        (stats(10, 10.1, 10.2), stats(10.1, 10.2, 10.3), "lower", "unchanged"),
        (stats(10, 10.1, 10.2), stats(12, 12.1, 12.2), "lower", "worse"),
        (stats(10, 10.1, 10.2), stats(8, 8.1, 8.2), "lower", "better"),
        (stats(10, 10.1, 10.2), stats(12, 12.1, 12.2), "higher", "better"),
        # spread wider than the bound: no verdict unless every new run
        # beats every old one
        (stats(8, 10, 13), stats(9, 11, 14), "lower", "unresolved"),
        (stats(8, 10, 13), stats(4, 5, 6.5), "lower", "better"),
    ],
)
def test_verdicts(old, new, better, expected):
    assert run.verdict(old, new, better, bound=0.1)[1] == expected


def results_file(path, wall_samples, digest="abc", seed=1):
    stamp = {key: "x" for key in run.COMPARABLE}
    stamp.update(seed=seed, mode="full")
    entry = {
        "attempted": len(wall_samples), "failed": 0, "digest": digest,
        "outcomes": {"latency_cycles_mean": 12.5},
        "metrics": {"wall_s": {
            "unit": "s", "better": "lower", "bound": 0.1,
            **run.quartiles(wall_samples),
        }},
    }
    path.write_text(json.dumps({"stamp": stamp, "workloads": {"w": entry}}))
    return str(path)


def test_compare_exit_codes(tmp_path):
    old = results_file(tmp_path / "old.json", [10, 10.1, 10.2])
    same = results_file(tmp_path / "same.json", [10.05, 10.1, 10.15])
    slow = results_file(tmp_path / "slow.json", [12, 12.1, 12.2])
    moved = results_file(tmp_path / "moved.json", [10, 10.1, 10.2], "def")
    other_seed = results_file(tmp_path / "seed.json", [10], seed=2)
    assert run.compare(old, same) == 0
    assert run.compare(old, slow) == 1
    assert run.compare(old, moved) == 1  # simulated results changed
    with pytest.raises(SystemExit) as exc:
        run.compare(old, other_seed)
    assert exc.value.code == 2


# -- correctness checks catch planted mismatches ------------------------------
def record(digest, failures=()):
    return {"failures": list(failures), "digest": digest}


def test_digest_mismatch_between_repeats_fails_the_repeat():
    good, failures = run.judge([record("a"), record("a"), record("b")], None)
    assert len(good) == 2 and len(failures) == 1
    assert "digest" in failures[0]


def test_digest_must_match_the_committed_one():
    good, failures = run.judge([record("a"), record("a")], "golden")
    assert not good and len(failures) == 2


def test_failed_check_fails_the_repeat():
    good, failures = run.judge([record("a", ["not drained"])], None)
    assert not good and failures == ["#0: not drained"]


def small_scenario():
    from repro.sim.scenario import Scenario, SyntheticTraffic

    return Scenario(
        name="planted",
        traffic=(SyntheticTraffic(pattern="uniform", injection_rate=0.05,
                                  duration=50, seed=1),),
        max_cycles=2000,
    )


def test_conservation_check_catches_a_planted_leak():
    from repro.sim.engine import Simulation

    ledger = Ledger()
    with instrument(ledger):
        clean = Simulation(small_scenario())
        clean.run()
        leaky = Simulation(small_scenario())
        leaky.network.stats.flits_injected += 1  # a flit nobody accounts for
        leaky.run()
    assert conservation_failure(clean) is None
    assert len(ledger.failures) == 1
    assert ledger.failures[0].startswith("planted @")
    assert len(ledger.records) == 2 and ledger.cycles > 0
