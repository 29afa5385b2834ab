"""Benchmark of the TASP / L-Ob NoC simulator.

Four workloads (``bench/workloads.py``), each repeated as one operation
per fresh interpreter, one at a time.  Timed operations give the
end-to-end metrics declared in ``BENCHMARK.json`` (medians over the
repeats, with quartiles); one traced operation plus one call-count
probe per workload give the per-layer ledger.  See ``bench/README.md``.

Usage::

    python3 bench/run.py [--seed N] [--seconds S] [--smoke] [--out DIR]
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py compare OLD.json NEW.json

Without ``--workload`` every workload runs timed and then traced, and
the set is written to ``DIR/results.json`` and ``DIR/trace.json``
(default ``bench/out``).  With ``--workload`` one run of one workload
is made; the last line it prints is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH / "golden.json"

#: an invocation must finish well inside three minutes
RUN_BUDGET_S = 170.0

MIN_REPEATS = 3

#: stamp fields that must agree before two result files are compared
COMPARABLE = ("python", "cpu_model", "nproc", "seed", "seconds", "mode")

sys.path.insert(0, str(BENCH))
from ledger import NOC_PHASES, RESILIENCE_PHASES  # noqa: E402
from workloads import FIGURES, WORKLOADS  # noqa: E402

DENSE_TORUS = "sim_cycles_per_s and wall_s on dense-mesh16, attack-torus8"
SPARSE = "sim_cycles_per_s on sparse-event-mesh4"
TORUS = "wall_s on attack-torus8"
SETUP = "setup_s on paper-figs and sparse-event-mesh4"

#: per-layer metric -> (layer, the end-to-end metric and workload it
#: should move); every per-layer metric in BENCHMARK.json has an entry
LAYER_TAGS = {
    **{f"noc.{phase}.ns_per_flit_hop": ("noc", DENSE_TORUS)
       for phase in NOC_PHASES},
    "noc.step.us_per_landed_cycle": ("noc", DENSE_TORUS),
    "noc.phase_coverage": ("noc", "none: share of stepping time explained"),
    "noc.flit_hops": ("noc", "flit_hops_per_s (the work it counts)"),
    "noc.corrupt_hops": ("noc", TORUS),
    "noc.landed_cycles": ("noc", SPARSE),
    "noc.py_calls_per_flit_hop": ("noc", DENSE_TORUS),
    "traffic.generate.us_per_landed_cycle": (
        "traffic", "sim_cycles_per_s on dense-mesh16"),
    "ecc.encode_calls_per_flit_hop": ("ecc", DENSE_TORUS),
    "ecc.decode_calls_per_flit_hop": ("ecc", DENSE_TORUS),
    "core.mitigated_builds": ("core", SETUP),
    "core.mitigated_build.setup_share": ("core", SETUP),
    "sim.import_s": ("sim", "setup_s and wall_s on every workload"),
    "sim.init_s": ("sim", "setup_s on every workload"),
    "sim.decisions": ("sim.sched", SPARSE),
    "sim.leaps": ("sim.sched", SPARSE),
    "sim.cycles_skipped": ("sim.sched", SPARSE),
    "sim.skip_ratio": ("sim.sched", SPARSE),
    "sim.wheel.step_share": ("sim.sched", SPARSE),
    "resilience.actions_allowed": ("resilience", TORUS),
    "resilience.actions_denied": ("resilience", TORUS),
    **{f"resilience.{phase}.step_share": ("resilience", TORUS)
       for phase in RESILIENCE_PHASES},
    **{f"experiments.{name}.wall_share": (
        "experiments", "wall_s on paper-figs") for name in FIGURES},
    "trace.overhead_ratio": ("trace", "none: the cost of tracing itself"),
}


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


# -- stamps -------------------------------------------------------------------
def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_state() -> tuple:
    """(sha, dirty) of the checkout, or (None, None) outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def stamp(seed: int, seconds: int, smoke: bool) -> dict:
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "seconds": seconds,
        "mode": "smoke" if smoke else "full",
    }


# -- operations ---------------------------------------------------------------
def child_env() -> dict:
    """A clean, single-threaded, hash-stable environment: no inherited
    ``REPRO_*`` switch (engine, profiler, forensics...) may leak in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def operation(
    name: str, seed: int, mode: str, smoke: bool, deadline: float
) -> dict:
    """Run one operation in a fresh interpreter; never raises."""
    command = [sys.executable, str(BENCH / "worker.py"), name, str(seed), mode]
    if smoke:
        command.append("--smoke")
    timeout = max(1.0, deadline - monotonic())
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {
            "failures": [f"{mode} operation timed out after {timeout:.0f}s"]
        }
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {
            "failures": [f"{mode} operation exited {proc.returncode}: "
                         + " | ".join(tail)]
        }
    return record


def quartiles(values: list) -> dict:
    """Median and quartiles of a run's few repeats; the inclusive
    method keeps the quartiles inside the observed range."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def reference_digest(name: str, seed: int, smoke: bool, golden: dict):
    """The committed digest this workload's output must reproduce, or
    None when none is committed for this seed."""
    if smoke:
        return None
    key = str(seed) if WORKLOADS[name].seeded else "*"
    return golden.get(name, {}).get(key)


def judge(records: list, reference) -> tuple[list, list]:
    """Split records into (good, failure messages).  A record fails on
    its own failed checks, or when its digest differs from
    ``reference`` — the committed one, else the first good record's."""
    good, failures = [], []
    for index, record in enumerate(records):
        if record["failures"]:
            failures += [f"#{index}: {f}" for f in record["failures"]]
            continue
        digest = record.get("digest")
        if digest is not None:
            if reference is None:
                reference = digest
            elif digest != reference:
                failures.append(
                    f"#{index}: digest {digest[:12]} != {reference[:12]}"
                )
                continue
        good.append(record)
    return good, failures


def timed(
    name: str, seed: int, seconds: float, smoke: bool, golden: dict,
    deadline: float, spec: dict,
) -> dict:
    """Repeat the operation until ``seconds`` have passed and summarize.
    At least three repeats, so that the median drops a single repeat
    slowed by a burst of load from elsewhere on the host."""
    start = monotonic()
    records = []
    while len(records) < MIN_REPEATS or monotonic() - start < seconds:
        records.append(operation(name, seed, "timed", smoke, deadline))
        progress(f"{name} timed #{len(records)}", records[-1])
        if monotonic() >= deadline:
            break
    reference = reference_digest(name, seed, smoke, golden)
    good, failures = judge(records, reference)
    entry = {
        "attempted": len(records),
        "failed": len(records) - len(good),
        "failures": failures,
        "digest": good[0]["digest"] if good else None,
        "golden": (
            "none" if reference is None
            else "match" if good and good[0]["digest"] == reference
            else "mismatch"
        ),
        "outcomes": good[0]["outcomes"] if good else {},
        "metrics": {},
    }
    if good:
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in good]
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **quartiles(values),
            }
    return entry


def traced(
    name: str, seed: int, smoke: bool, golden: dict, deadline: float,
    untraced=None,
) -> dict:
    """One traced operation and one call-count probe.  ``untraced`` is
    (wall_s, digest) of the same workload's timed operations; without
    it one untraced operation is run here for the overhead ratio."""
    records = []
    if untraced is None:
        records.append(operation(name, seed, "timed", smoke, deadline))
        progress(f"{name} untraced", records[-1])
    records.append(operation(name, seed, "traced", smoke, deadline))
    progress(f"{name} traced", records[-1])
    probe = operation(name, seed, "probe", smoke, deadline)
    progress(f"{name} probe", probe)
    reference = reference_digest(name, seed, smoke, golden)
    if reference is None and untraced is not None:
        reference = untraced[1]
    good, failures = judge(records + [probe], reference)
    entry = {
        "attempted": len(records) + 1,
        "failed": len(records) + 1 - len(good),
        "failures": failures,
    }
    if failures:
        return entry
    trace_record = records[-1]
    untraced_wall = (
        untraced[0] if untraced is not None
        else records[0]["metrics"]["wall_s"]
    )
    metrics = dict(trace_record["per_layer"])
    metrics["noc.py_calls_per_flit_hop"] = (
        probe["probe"]["calls"] / probe["probe"]["flit_hops"]
    )
    metrics["trace.overhead_ratio"] = (
        trace_record["metrics"]["wall_s"] / untraced_wall
    )
    entry["per_layer"] = metrics
    entry["spans"] = trace_record["spans"]
    entry["probe"] = probe["probe"]
    return entry


def progress(label: str, record: dict) -> None:
    status = "FAILED" if record["failures"] else "ok"
    wall = record.get("metrics", {}).get("wall_s")
    detail = f" {wall:.2f}s" if wall is not None else ""
    print(f"  {label}: {status}{detail}", file=sys.stderr, flush=True)


def prepare() -> None:
    """Refuse to run outside a full checkout, and byte-compile the
    sources once so no operation pays (or varies by) compilation."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "full checkout")
    if not SPEC_PATH.is_file():
        fail(f"missing {SPEC_PATH}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)


# -- reporting ----------------------------------------------------------------
def print_timed(name: str, entry: dict) -> None:
    print(f"{name}: failed/attempted {entry['failed']}/{entry['attempted']}"
          f"  digest {entry['digest']}  (golden: {entry['golden']})")
    for metric, stats in entry["metrics"].items():
        print(f"  {metric:<18} {stats['median']:>14.6g} {stats['unit']:<8}"
              f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
    for key, value in entry["outcomes"].items():
        print(f"  outcome {key} = {value}")
    for failure in entry["failures"]:
        print(f"  FAILURE {failure}")


def print_traced(name: str, entry: dict) -> None:
    print(f"{name} (traced): failed/attempted "
          f"{entry['failed']}/{entry['attempted']}")
    for metric, value in entry.get("per_layer", {}).items():
        print(f"  {metric:<40} {value:.6g}")
    for failure in entry["failures"]:
        print(f"  FAILURE {failure}")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def workload_run(args, spec: dict, golden: dict) -> int:
    """One run of one workload; the last output line is the result."""
    deadline = monotonic() + RUN_BUDGET_S
    name = args.workload
    run_stamp = stamp(args.seed, args.seconds, args.smoke)
    if args.trace:
        entry = traced(name, args.seed, args.smoke, golden, deadline)
        print_traced(name, entry)
        write_json(Path(args.out) / f"trace-{name}.json",
                   {"stamp": run_stamp, "layers": LAYER_TAGS,
                    "workloads": {name: entry}})
        if "per_layer" not in entry:
            fail("traced run failed; no per-layer metrics", 1)
        metrics = {
            m["name"]: {"value": entry["per_layer"][m["name"]],
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        entry = timed(name, args.seed, args.seconds, args.smoke, golden,
                      deadline, spec)
        print_timed(name, entry)
        write_json(Path(args.out) / f"results-{name}.json",
                   {"stamp": run_stamp, "workloads": {name: entry}})
        if not entry["metrics"]:
            fail("every operation failed; no metrics", 1)
        metrics = {
            m["name"]: {"value": entry["metrics"][m["name"]]["median"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0 if entry["failed"] == 0 else 1


def full_run(args, spec: dict, golden: dict) -> int:
    """Every workload, timed then traced, written as one result set."""
    run_stamp = stamp(args.seed, args.seconds, args.smoke)
    results = {"stamp": run_stamp, "workloads": {}}
    traces = {"stamp": run_stamp, "layers": LAYER_TAGS, "workloads": {}}
    for name in WORKLOADS:
        deadline = monotonic() + RUN_BUDGET_S
        entry = timed(name, args.seed, args.seconds, args.smoke, golden,
                      deadline, spec)
        print_timed(name, entry)
        untraced = None
        if entry["metrics"]:
            untraced = (entry["metrics"]["wall_s"]["median"], entry["digest"])
        trace = traced(name, args.seed, args.smoke, golden,
                       monotonic() + RUN_BUDGET_S, untraced)
        print_traced(name, trace)
        entry["per_layer"] = trace.get("per_layer", {})
        entry["attempted"] += trace["attempted"]
        entry["failed"] += trace["failed"]
        entry["failures"] += trace["failures"]
        results["workloads"][name] = entry
        traces["workloads"][name] = trace
    out = Path(args.out)
    write_json(out / "results.json", results)
    write_json(out / "trace.json", traces)
    failed = sum(e["failed"] for e in results["workloads"].values())
    attempted = sum(e["attempted"] for e in results["workloads"].values())
    print(f"all workloads: failed/attempted {failed}/{attempted}; "
          f"wrote {out / 'results.json'} and {out / 'trace.json'}")
    return 0 if failed == 0 else 1


# -- compare ------------------------------------------------------------------
def verdict(old: dict, new: dict, better: str, bound: float) -> tuple:
    """(relative change, worse-positive; verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["median"] - old["median"]) / old["median"]
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] for s in (old, new)
    )
    if spread > bound:
        if better == "lower":
            beats = max(new["samples"]) < min(old["samples"])
        else:
            beats = min(new["samples"]) > max(old["samples"])
        return change, "better" if beats else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def compare(old_path: str, new_path: str) -> int:
    try:
        old = json.loads(Path(old_path).read_text())
        new = json.loads(Path(new_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read results: {exc}")
    for label, data in (("old", old), ("new", new)):
        if data.get("stamp", {}).get("mode") != "full":
            fail(f"{label} results are not a full run; compare full runs only")
    mismatched = [
        key for key in COMPARABLE
        if old["stamp"].get(key) != new["stamp"].get(key)
    ]
    if mismatched:
        fail("stamps differ in " + ", ".join(
            f"{k} ({old['stamp'].get(k)!r} vs {new['stamp'].get(k)!r})"
            for k in mismatched
        ))
    regressions = 0
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        o, n = old["workloads"][name], new["workloads"][name]
        print(f"{name}")
        for metric, os_ in o.get("metrics", {}).items():
            ns = n.get("metrics", {}).get(metric)
            if ns is None:
                continue
            change, word = verdict(os_, ns, os_["better"], os_["bound"])
            regressions += word == "worse"
            print(
                f"  {metric:<18} {os_['median']:>12.6g} "
                f"[{os_['q1']:.4g}, {os_['q3']:.4g}] -> {ns['median']:>12.6g} "
                f"[{ns['q1']:.4g}, {ns['q3']:.4g}] {os_['unit']:<8} "
                f"bound {os_['bound']:.0%} change {change:+.1%}  {word}"
            )
        same_digest = o.get("digest") == n.get("digest")
        same_outcomes = o.get("outcomes") == n.get("outcomes")
        regressions += (not same_digest) + (not same_outcomes)
        print(f"  digest {'identical' if same_digest else 'DIFFERS'}, "
              f"simulated outcomes "
              f"{'identical' if same_outcomes else 'DIFFER'}")
        if not same_outcomes:
            for key in sorted(set(o.get("outcomes", {}))
                              | set(n.get("outcomes", {}))):
                a = o.get("outcomes", {}).get(key)
                b = n.get("outcomes", {}).get(key)
                if a != b:
                    print(f"    {key}: {a} -> {b}")
        old_share = o["failed"] / o["attempted"] if o["attempted"] else 0.0
        new_share = n["failed"] / n["attempted"] if n["attempted"] else 0.0
        regressions += new_share > old_share
        print(f"  failed {o['failed']}/{o['attempted']} -> "
              f"{n['failed']}/{n['attempted']}")
        layers_old, layers_new = o.get("per_layer", {}), n.get("per_layer", {})
        for metric in layers_old:
            if metric not in layers_new:
                continue
            a, b = layers_old[metric], layers_new[metric]
            delta = f"{(b - a) / a:+.1%}" if a else ("=" if a == b else "new")
            print(f"    layer {metric:<38} {a:>12.6g} -> {b:>12.6g}  {delta}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# -- entry point --------------------------------------------------------------
def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD.json NEW.json")
        return compare(argv[1], argv[2])
    prepare()
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk horizons, for tests of the plumbing")
    parser.add_argument("--out", default=str(BENCH / "out"))
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN_PATH.read_text())
    if args.workload is not None:
        return workload_run(args, spec, golden)
    if args.trace:
        fail("--trace needs --workload; a full set always traces")
    return full_run(args, spec, golden)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
