"""``python -m repro.serve`` — the verdict pipeline CLI.

Subcommands:

* ``run``    — run one scenario with live verdict extraction, printing
  verdicts as they surface; ``--json`` writes the result and the
  verdict stream for CI comparison.
* ``replay`` — re-derive the verdict stream offline from a recorded
  ``events.jsonl`` (byte-reproducible against the live stream).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.serve.classify import ZScoreClassifier, default_classifiers
from repro.serve.pipeline import replay_events, run_streaming
from repro.serve.scenarios import NAMED_SCENARIOS, named_scenario
from repro.sim.scenario import Scenario


def _load_scenario(args) -> Scenario:
    if args.named is not None:
        return named_scenario(args.named)
    if args.scenario is not None:
        with open(args.scenario, encoding="utf-8") as fh:
            return Scenario.from_dict(json.load(fh))
    raise SystemExit("need --named or --scenario")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--named",
        choices=sorted(NAMED_SCENARIOS),
        help="registered scenario name",
    )
    parser.add_argument(
        "--scenario", help="path to a Scenario JSON file"
    )
    parser.add_argument(
        "--engine", choices=("sweep", "event"), default=None
    )


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)

    def on_verdict(verdict) -> None:
        if not args.json:
            print(json.dumps(verdict.to_dict(), sort_keys=True))

    run = run_streaming(
        scenario,
        engine=args.engine,
        on_verdict=on_verdict,
        events_jsonl=args.events_jsonl,
    )
    payload = {
        "scenario_hash": scenario.content_hash(),
        **run.to_payload(),
    }
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    else:
        result = payload["result"]
        print(
            f"{result['name']}: completed={result['completed']} "
            f"cycles={result['cycles']} "
            f"verdicts={len(payload['verdict_stream'])}"
        )
    return 0


def _cmd_replay(args) -> int:
    from repro.obs.exporters import iter_events_jsonl

    events = iter_events_jsonl(args.events)
    if args.named is not None:
        scenario = named_scenario(args.named)
        classifiers = default_classifiers(scenario)
        window = 64
        if scenario.defense.detector is not None:
            window = scenario.defense.detector.window
    else:
        # no scenario known: z-score rules only, no localizer
        classifiers = [ZScoreClassifier()]
        window = args.window
    pipeline = replay_events(
        events, classifiers, window=window, up_to=args.up_to
    )
    for verdict in pipeline.verdict_stream():
        print(json.dumps(verdict, sort_keys=True))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="streaming verdict pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="direct streamed run")
    _add_scenario_args(run_p)
    run_p.add_argument(
        "--events-jsonl", default=None,
        help="record the event stream for offline replay",
    )
    run_p.add_argument(
        "--json", default=None,
        help="write the run payload as JSON ('-' for stdout)",
    )
    run_p.set_defaults(func=_cmd_run)

    replay = sub.add_parser("replay", help="replay a recorded stream")
    replay.add_argument("events", help="events.jsonl path")
    replay.add_argument(
        "--named", choices=sorted(NAMED_SCENARIOS), default=None,
        help="scenario the stream was recorded from (classifier match)",
    )
    replay.add_argument("--window", type=int, default=64)
    replay.add_argument(
        "--up-to", type=int, default=None,
        help="final simulated cycle of the recorded run",
    )
    replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
