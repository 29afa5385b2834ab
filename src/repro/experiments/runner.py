"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments.runner list
    python -m repro.experiments.runner fig11
    python -m repro.experiments.runner fig2 fig10 --seed 3
    python -m repro.experiments.runner all --jobs 4 --timeout 900
    python -m repro.experiments.runner all --jobs 4 --resume

Results are memoized on disk (keyed by experiment name, seed and a
hash of the source tree) so a re-run without code changes replays the
stored report instead of re-simulating; ``--no-cache`` bypasses the
cache and ``--cache-dir`` relocates it.

Multi-experiment runs are supervised: each finished experiment is
persisted to a state file as it completes, so a run killed midway can
pick up where it left off with ``--resume``.  With ``--jobs N`` the
fan-out additionally enforces per-experiment ``--timeout`` limits,
detects dead workers, retries infrastructure failures with exponential
backoff and quarantines experiments that fail every attempt instead of
aborting the batch.

Exit codes: 0 all experiments passed; 1 at least one failed or was
quarantined; 2 usage error (unknown experiment); 130 interrupted
(partial results were saved — rerun with ``--resume``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import (
    ablations,
    chaos,
    distributed,
    flood_routing,
    largescale,
    fig1_traffic,
    fig2_faults,
    fig8_overhead,
    fig10_speedup,
    fig11_backpressure,
    fig12_qos,
    load_curve,
    reinstate,
    table1_tasp,
    table2_mitigation,
)
from repro.experiments.supervisor import (
    Supervisor,
    SupervisorConfig,
    SupervisorInterrupt,
    TaskOutcome,
)
from repro.obs.profiler import ENV_FLAG as _PROFILE_ENV
from repro.sim import ENGINE_ENV, ResultCache, spec_hash

EXPERIMENTS = {
    "fig1": (fig1_traffic, "Blackscholes traffic distributions"),
    "fig2": (fig2_faults, "latency vs distance per fault type"),
    "fig8": (fig8_overhead, "TASP power/area pies"),
    "fig9": (table1_tasp, "TASP target-variant areas (same data as Table I)"),
    "fig10": (fig10_speedup, "L-Ob vs rerouting speedup"),
    "fig11": (fig11_backpressure, "back-pressure build-up under attack"),
    "fig12": (fig12_qos, "TDM containment vs proposed mitigation"),
    "table1": (table1_tasp, "TASP variant area/power/timing"),
    "table2": (table2_mitigation, "mitigation overhead"),
    "ablations": (ablations, "design-choice ablations"),
    "flood": (flood_routing, "flood DoS vs routing algorithms; flood vs trojan"),
    "load": (load_curve, "load-latency curves; xy vs adaptive saturation"),
    "chaos": (chaos, "resilience ladder under chaos campaigns"),
    "distributed": (
        distributed,
        "coordinated multi-trojan + DDoS survival with containment",
    ),
    "reinstate": (
        reinstate,
        "self-healing: probation reinstatement + flap damping",
    ),
    "largescale": (
        largescale,
        "topology-robust containment: 16x16 mesh + torus with localization",
    ),
}

#: layout version of the runner's resume state file
STATE_FORMAT = 1


def execution_plan(names: Optional[Sequence[str]] = None) -> list[str]:
    """The experiments that will actually run, aliases folded.

    ``fig9``/``table1`` (and any future aliases) share a module; only
    the first name wins a slot, so ``all`` never runs the same module
    twice while both CLI spellings stay valid.
    """
    if names is None:
        names = list(EXPERIMENTS)
    seen: set = set()
    plan: list[str] = []
    for name in names:
        module, _ = EXPERIMENTS[name]
        if module in seen:
            continue
        seen.add(module)
        plan.append(name)
    return plan


def _derived_json_path(json_path: str, name: str) -> str:
    """Per-experiment output file for multi-experiment mode:
    results.json -> results-fig2.json etc."""
    path = Path(json_path)
    suffix = path.suffix or ".json"
    return str(path.with_name(f"{path.stem}-{name}{suffix}"))


def _seed_kwargs(module, seed: Optional[int]) -> dict:
    """Thread ``--seed`` into ``module.run`` only when the flag was
    given and the experiment is seedable; otherwise the module's own
    defaults apply and published numbers do not move."""
    if seed is None:
        return {}
    if "seed" in inspect.signature(module.run).parameters:
        return {"seed": seed}
    return {}


def _cache_key(module, seed: Optional[int]) -> str:
    # keyed on the module (so aliases share one entry) and the seed;
    # ResultCache adds the source-tree version on top
    return spec_hash({"experiment": module.__name__, "seed": seed})


def run_experiment(
    name: str,
    json_path: Optional[str] = None,
    seed: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    obs_dir: Optional[str] = None,
) -> str:
    from repro.experiments.export import save_result, to_jsonable
    from repro.obs import profiler as obs_profiler
    from repro.obs.exporters import disabled_manifest

    module, _ = EXPERIMENTS[name]
    started = time.time()
    # with --obs-dir the run must actually execute (the exports are the
    # point), so the cache is bypassed both ways
    use_cache = cache is not None and obs_dir is None
    cached = cache.get(_cache_key(module, seed)) if use_cache else None
    metrics = disabled_manifest()
    verdict_stream = None
    if cached is not None:
        report = cached["report"]
        jsonable = cached["result"]
        metrics = cached.get("metrics", metrics)
    else:
        obs = None
        pipeline = None
        if obs_dir is not None:
            from repro.obs.instrument import (
                ObsConfig,
                disable_ambient,
                enable_ambient,
            )
            from repro.serve.classify import ZScoreClassifier
            from repro.serve.pipeline import DetectionPipeline

            obs_root = Path(obs_dir) / name
            obs = enable_ambient(
                ObsConfig(
                    events_jsonl=str(obs_root / "events.jsonl"),
                    metrics_json=str(obs_root / "metrics.json"),
                    prometheus=str(obs_root / "metrics.prom"),
                )
            )
            # streaming detection as a second sink on the same bus:
            # the z-score classifier (no scenario here; a link's
            # channel is back-filled when first seen) folds each event
            # as it is published into the embedded verdict_stream
            pipeline = DetectionPipeline([ZScoreClassifier()]).attach(obs)
        try:
            result = module.run(**_seed_kwargs(module, seed))
        finally:
            if obs is not None:
                disable_ambient()
        report = module.format_result(result)
        jsonable = to_jsonable(result)
        if pipeline is not None:
            pipeline.finish()
            verdict_stream = pipeline.verdict_stream()
        if obs is not None:
            metrics = obs.export()
            report += f"\n[observability exported to {obs_root}]"
        prof = obs_profiler.current()
        if prof is not None and prof.seconds:
            # per-experiment attribution: report, then reset the laps
            report += "\n\n" + prof.report()
            prof.reset()
        if use_cache:
            cache.put(
                _cache_key(module, seed),
                {"report": report, "result": jsonable, "metrics": metrics},
            )
    elapsed = time.time() - started
    if json_path:
        if cached is not None:
            # same file format as save_result, replayed from the cache
            Path(json_path).write_text(
                json.dumps(
                    {
                        "experiment": name,
                        "result": jsonable,
                        "metrics": metrics,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            save_result(
                result,
                json_path,
                experiment=name,
                metrics=metrics,
                verdict_stream=verdict_stream,
            )
        report += f"\n[result saved to {json_path}]"
    note = " (cached)" if cached is not None else ""
    return f"{report}\n\n[{name} completed in {elapsed:.1f}s{note}]"


def _worker(task: tuple) -> tuple[str, bool, float, str, str]:
    """One experiment in a worker process; never raises.

    Experiment-level exceptions become a failed row right here, so the
    supervisor only ever retries *infrastructure* failures (hangs,
    killed workers) — a deterministic bug in an experiment is reported
    once, not retried into quarantine.

    With a forensics directory set, every engine run inside the
    experiment is armed (via ``REPRO_FORENSICS_DIR``) to leave a
    ``*.repro`` bundle on failure; the bundle path lands in the row's
    error column, and ``shrink`` additionally minimizes the failing
    scenario right here in the worker.
    """
    (
        name, seed, json_path, cache_dir, use_cache,
        forensics_dir, shrink, obs_dir,
    ) = task
    cache = ResultCache(cache_dir) if use_cache else None
    started = time.time()
    try:
        if forensics_dir:
            os.environ["REPRO_FORENSICS_DIR"] = str(
                Path(forensics_dir) / name
            )
        try:
            report = run_experiment(
                name, json_path=json_path, seed=seed, cache=cache,
                obs_dir=obs_dir,
            )
        finally:
            if forensics_dir:
                os.environ.pop("REPRO_FORENSICS_DIR", None)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        report = traceback.format_exc()
        bundle = getattr(exc, "repro_bundle", None)
        if bundle is not None:
            error += f" [bundle: {bundle}]"
            report += f"\n[repro bundle: {bundle}]"
            if shrink:
                try:
                    from repro.sim.shrink import shrink_bundle

                    result, shrunk = shrink_bundle(bundle)
                    error += f" [shrunk: {shrunk}]"
                    report += (
                        f"[shrunk bundle: {shrunk}]\n" + result.diff()
                    )
                except Exception as shrink_exc:
                    report += f"\n[shrink failed: {shrink_exc}]"
        return (name, False, time.time() - started, report, error)
    return (name, True, time.time() - started, report, "")


# -- resume state ---------------------------------------------------------
def _default_state_path(cache_dir: Optional[str]) -> Path:
    root = cache_dir or os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    return Path(root) / "runner-state.json"


def _state_key(
    plan: Sequence[str],
    seed: Optional[int],
    json_path: Optional[str],
    no_cache: bool,
    obs_dir: Optional[str] = None,
) -> str:
    """Digest of everything that makes stored rows replayable: the
    same plan invoked with a different seed, output path or export
    directory must not resume from this state."""
    return spec_hash(
        {
            "plan": list(plan),
            "seed": seed,
            "json": json_path,
            "no_cache": no_cache,
            "obs": obs_dir,
        }
    )


def _load_state(path: Path, key: str) -> tuple[dict, dict]:
    """Completed rows (and per-task retry timing) from a previous
    interrupted run, or empty dicts when the file is missing, damaged,
    or belongs to a different invocation."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError,
            OSError):
        return {}, {}
    if not isinstance(state, dict):
        return {}, {}
    if state.get("format") != STATE_FORMAT or state.get("key") != key:
        return {}, {}
    rows = state.get("rows")
    if not isinstance(rows, dict):
        return {}, {}
    out = {}
    for name, row in rows.items():
        if isinstance(row, list) and len(row) == 5:
            out[name] = tuple(row)
    retries = state.get("retries")
    if not isinstance(retries, dict):
        retries = {}
    return out, {
        name: info
        for name, info in retries.items()
        if name in out and isinstance(info, dict)
    }


def _save_state(
    path: Path, key: str, rows: dict, retries: Optional[dict] = None
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    state = {
        "format": STATE_FORMAT,
        "key": key,
        "rows": {name: list(row) for name, row in rows.items()},
        "retries": dict(retries or {}),
    }
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _quarantine_row(outcome: TaskOutcome) -> tuple:
    """A table row for a task the supervisor gave up on; any repro
    bundles a dying worker left behind are named so the failure stays
    diagnosable."""
    report = (
        f"[{outcome.task_id} quarantined after {outcome.attempts} "
        "failed attempts]\n" + "\n".join(outcome.failures)
    )
    error = f"quarantined: {outcome.error}"
    if outcome.artifacts:
        report += "\nrepro bundles:\n" + "\n".join(
            f"  {path}" for path in outcome.artifacts
        )
        error += f" [bundles: {', '.join(outcome.artifacts)}]"
    return (
        outcome.task_id,
        False,
        outcome.seconds,
        report,
        error,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures.",
        epilog="exit codes: 0 all passed, 1 failure/quarantine, "
        "2 usage error, 130 interrupted (resume with --resume)",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--json",
        default=None,
        help="also save the structured result to this JSON file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiments in N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed of every seedable experiment",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate, and do not store results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or "
        "./.repro-cache)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="with --jobs: kill and retry an experiment that runs "
        "longer than this many seconds",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="with --jobs: retries before a hanging/crashing "
        "experiment is quarantined (default: 2)",
    )
    parser.add_argument(
        "--state",
        default=None,
        help="progress file for --resume (default: "
        "<cache dir>/runner-state.json)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already completed successfully by a "
        "previous interrupted run with the same arguments",
    )
    parser.add_argument(
        "--forensics-dir",
        default=None,
        help="arm failure forensics: a failing experiment leaves a "
        "replayable *.repro bundle under DIR/<experiment>",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="with --forensics-dir: delta-debug each failure's "
        "scenario to a 1-minimal shrunk bundle",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="arm full observability per experiment and export "
        "events.jsonl / metrics.json / metrics.prom under "
        "DIR/<experiment> (bypasses the result cache)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile simulator phases (wall-clock per step phase); "
        "implies --no-cache and appends the breakdown to each report",
    )
    parser.add_argument(
        "--engine",
        choices=("sweep", "event"),
        default=None,
        help="simulation engine for every experiment: 'sweep' steps "
        "every cycle, 'event' teleports over provably idle spans "
        "(byte-identical results; see docs/performance.md).  Cached "
        "results are shared between engines — pass --no-cache to "
        "force fresh runs, e.g. for an oracle comparison",
    )
    args = parser.parse_args(argv)
    if args.shrink and not args.forensics_dir:
        print("--shrink requires --forensics-dir", file=sys.stderr)
        return 2
    if args.profile:
        # the env flag survives the fork into worker processes, where
        # each process then keeps its own per-experiment profiler
        os.environ[_PROFILE_ENV] = "1"
        args.no_cache = True
    if args.engine:
        # same fork-inheritance trick as --profile: worker processes
        # pick the engine up from the environment
        os.environ[ENGINE_ENV] = args.engine

    if "list" in args.experiments:
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0

    if "all" in args.experiments:
        names = list(EXPERIMENTS)
    else:
        for name in args.experiments:
            if name not in EXPERIMENTS:
                print(
                    f"unknown experiment {name!r}; try 'list'",
                    file=sys.stderr,
                )
                return 2
        names = list(args.experiments)
    plan = execution_plan(names)
    multi = "all" in args.experiments or len(plan) > 1

    tasks = [
        (
            name,
            args.seed,
            _derived_json_path(args.json, name)
            if args.json and multi
            else args.json,
            args.cache_dir,
            not args.no_cache,
            args.forensics_dir,
            args.shrink,
            args.obs_dir,
        )
        for name in plan
    ]

    state_path = (
        Path(args.state) if args.state else _default_state_path(args.cache_dir)
    )
    state_key = _state_key(
        plan, args.seed, args.json, args.no_cache, args.obs_dir
    )
    rows_by_name: dict = {}
    retries_by_name: dict = {}
    if args.resume:
        # only successful rows are replayed; failures run again
        loaded_rows, retries_by_name = _load_state(state_path, state_key)
        rows_by_name = {
            name: row for name, row in loaded_rows.items() if row[1]
        }
        retries_by_name = {
            name: info
            for name, info in retries_by_name.items()
            if name in rows_by_name
        }
    to_run = [task for task in tasks if task[0] not in rows_by_name]

    def record(row: tuple, outcome: Optional[TaskOutcome] = None) -> None:
        rows_by_name[row[0]] = row
        if outcome is not None and outcome.attempts > 1:
            retries_by_name[row[0]] = {
                "attempts": outcome.attempts,
                "delays": [round(d, 3) for d in outcome.retry_delays],
                "seconds": round(outcome.seconds, 3),
            }
        _save_state(state_path, state_key, rows_by_name, retries_by_name)

    def bundles_for(task_id: str) -> list[str]:
        """Repro bundles a failed experiment's workers left on disk."""
        if not args.forensics_dir:
            return []
        root = Path(args.forensics_dir) / task_id
        return sorted(str(p) for p in root.glob("*.repro"))

    interrupted = False
    if args.jobs > 1 and len(to_run) > 1:
        supervisor = Supervisor(
            SupervisorConfig(
                jobs=args.jobs,
                timeout=args.timeout,
                max_retries=args.max_retries,
            ),
            on_complete=lambda outcome: record(
                outcome.result if outcome.ok else _quarantine_row(outcome),
                outcome,
            ),
            artifacts_for=bundles_for,
        )
        try:
            supervisor.run([(task[0], _worker, (task,)) for task in to_run])
        except SupervisorInterrupt:
            interrupted = True
    else:
        try:
            for task in to_run:
                record(_worker(task))
        except KeyboardInterrupt:
            interrupted = True

    results = [rows_by_name[name] for name in plan if name in rows_by_name]
    outcomes: list[tuple[str, bool, float, str]] = []
    for name, ok, seconds, report, error in results:
        # report holds the traceback when the experiment failed; one
        # broken experiment must not silence the rest
        print(report, file=sys.stdout if ok else sys.stderr)
        outcomes.append((name, ok, seconds, error))
        if multi:
            print("\n" + "=" * 72 + "\n")

    failed = sum(1 for _, ok, _, _ in outcomes if not ok)
    if multi or interrupted:
        from repro.experiments.common import format_table

        rows = [
            [name, "pass" if ok else "FAIL", f"{seconds:.1f}s", error]
            for name, ok, seconds, error in outcomes
        ]
        print(format_table(["experiment", "status", "time", "error"], rows))
        print(
            f"\n{len(outcomes) - failed}/{len(outcomes)} experiments passed"
        )
        quarantined = [
            name
            for name, ok, _, error in outcomes
            if not ok and error.startswith("quarantined:")
        ]
        if quarantined:
            print("quarantined: " + " ".join(quarantined))

    if interrupted:
        remaining = len(plan) - len(outcomes)
        print(
            f"\ninterrupted with {remaining} experiment(s) left; "
            f"progress saved to {state_path} — rerun with --resume",
            file=sys.stderr,
        )
        return 130
    if not failed:
        # a clean batch leaves nothing to resume
        try:
            state_path.unlink()
        except OSError:
            pass
        return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
