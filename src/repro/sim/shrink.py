"""Delta-debugging scenario minimizer.

A repro bundle answers "*what* happened"; the shrinker answers "*what
caused it*".  Given a failing :class:`~repro.sim.scenario.Scenario`
(usually from a bundle), it greedily removes whole traffic flows,
trojans, gray-hole attacks, transient-fault processes and wire faults,
simplifies trojan enable schedules, delta-debugs individual packets out
of explicit schedules, and bisects the cycle horizon — re-running the
engine after each candidate edit and keeping only edits under which
the run still fails **with the same failure signature**.  The result
is 1-minimal: removing any single remaining flow, trojan, attack or
fault makes the scenario pass.

Every engine run is memoized on the candidate's content hash and
counted against a hard ``max_runs`` budget, so shrinking terminates in
a bounded number of runs even on adversarial scenarios.  Shrinking is
fully deterministic: same input, same budget → same 1-minimal output.

Command line (used by CI to prove planted failures localize)::

    python -m repro.sim.shrink BUNDLE --assert-max-traffic 2 \\
        --assert-max-attacks 1
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.sim.forensics import (
    ForensicsError,
    ReproBundle,
    failure_signature,
    load_bundle,
)
from repro.sim.scenario import FAULT_FIELDS, ExplicitTraffic, Scenario

#: the Scenario fields whose entries the shrinker removes one by one
_SHRINK_FIELDS = ("traffic", *FAULT_FIELDS)


class ShrinkError(RuntimeError):
    """The scenario could not be shrunk (it does not fail to begin
    with, or fails differently than the bundle claims)."""


class _OutOfBudget(Exception):
    """Internal: the oracle's run budget ran dry mid-pass."""


class _Oracle:
    """Memoized, budgeted answer to "does this candidate still fail
    the same way?"."""

    def __init__(self, signature: str, max_runs: int, full_sweep: bool):
        self.signature = signature
        self.max_runs = max_runs
        self.full_sweep = full_sweep
        self.runs = 0
        self.exhausted = False
        self._memo: dict[str, bool] = {}

    def fails(self, scenario: Scenario) -> bool:
        from repro.sim.engine import Simulation

        key = scenario.content_hash()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.runs >= self.max_runs:
            self.exhausted = True
            raise _OutOfBudget
        self.runs += 1
        try:
            Simulation(scenario, full_sweep=self.full_sweep).run()
            verdict = False
        except Exception as exc:
            verdict = failure_signature(exc) == self.signature
        self._memo[key] = verdict
        return verdict


# ---------------------------------------------------------------------------
# list minimization primitives
# ---------------------------------------------------------------------------
def greedy_min_subset(
    items: list, still_fails: Callable[[list], bool]
) -> list:
    """Remove elements one at a time, to fixpoint.

    The result is 1-minimal with respect to single-element removal:
    dropping any one remaining item makes ``still_fails`` False.
    """
    current = list(items)
    changed = True
    while changed and current:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            candidate = current[:index] + current[index + 1:]
            if still_fails(candidate):
                current = candidate
                changed = True
    return current


def ddmin(items: list, still_fails: Callable[[list], bool]) -> list:
    """Zeller-style delta debugging over one list.

    Faster than pure greedy when large chunks are removable at once
    (e.g. hundreds of packets in an explicit schedule); finishes with
    the same single-element sweep, so the result is 1-minimal too.
    """
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        size = len(current)
        chunk = max(1, size // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # re-test from the same offset against the new list
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


# ---------------------------------------------------------------------------
# the shrink passes
# ---------------------------------------------------------------------------
def _shrink_field(
    scenario: Scenario, field_name: str, oracle: _Oracle
) -> Scenario:
    items = list(getattr(scenario, field_name))
    if not items:
        return scenario
    kept = greedy_min_subset(
        items,
        lambda candidate: oracle.fails(
            dataclasses.replace(scenario, **{field_name: tuple(candidate)})
        ),
    )
    return dataclasses.replace(scenario, **{field_name: tuple(kept)})

def _shrink_enable_schedule(
    scenario: Scenario, oracle: _Oracle
) -> Scenario:
    """Try flattening each trojan's enable schedule: an entry with
    ``enable_at=k`` that also fails when armed from cycle 0 doesn't
    need its schedule entry."""
    for index, spec in enumerate(scenario.trojans):
        if spec.enable_at is None:
            continue
        flattened = dataclasses.replace(
            spec, enable_at=None, enabled=True
        )
        trojans = list(scenario.trojans)
        trojans[index] = flattened
        candidate = dataclasses.replace(scenario, trojans=tuple(trojans))
        if oracle.fails(candidate):
            scenario = candidate
    return scenario


def _shrink_packets(scenario: Scenario, oracle: _Oracle) -> Scenario:
    """ddmin individual packets out of explicit schedules."""
    for index, spec in enumerate(scenario.traffic):
        if not isinstance(spec, ExplicitTraffic) or len(spec.packets) < 2:
            continue

        def with_packets(packets: list) -> Scenario:
            traffic = list(scenario.traffic)
            traffic[index] = ExplicitTraffic(packets=tuple(packets))
            return dataclasses.replace(scenario, traffic=tuple(traffic))

        kept = ddmin(
            list(spec.packets),
            lambda candidate: oracle.fails(with_packets(candidate)),
        )
        scenario = with_packets(kept)
    return scenario


def _shrink_horizon(scenario: Scenario, oracle: _Oracle) -> Scenario:
    """Binary-search the smallest cycle budget that still fails."""
    field_name = "duration" if scenario.duration is not None else "max_cycles"
    original = getattr(scenario, field_name)
    if original is None or original <= 1:
        return scenario
    lo, hi = 1, original  # hi always fails, lo-1 == 0 trivially passes
    while lo < hi:
        mid = (lo + hi) // 2
        if oracle.fails(
            dataclasses.replace(scenario, **{field_name: mid})
        ):
            hi = mid
        else:
            lo = mid + 1
    return dataclasses.replace(scenario, **{field_name: hi})


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
def _describe(spec) -> str:
    if isinstance(spec, ExplicitTraffic):
        return f"explicit traffic ({len(spec.packets)} packet(s))"
    name = type(spec).__name__
    link = getattr(spec, "link", None)
    if link is not None:
        return f"{name} on link ({link[0]}, {link[1].name})"
    return name


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink: the minimized scenario plus provenance."""

    original: Scenario
    shrunk: Scenario
    signature: str
    #: engine runs spent (memoized repeats are free)
    runs: int
    #: True when max_runs stopped the shrink before the fixpoint
    budget_exhausted: bool

    def diff(self) -> str:
        """Human-readable summary of what the shrink removed."""
        lines = [
            f"failure signature: {self.signature}",
            f"engine runs: {self.runs}"
            + (" (budget exhausted)" if self.budget_exhausted else ""),
        ]
        for field_name in _SHRINK_FIELDS:
            before = list(getattr(self.original, field_name))
            after = list(getattr(self.shrunk, field_name))
            lines.append(
                f"{field_name}: {len(before)} -> {len(after)}"
            )
            kept = list(after)
            for spec in before:
                if spec in kept:
                    kept.remove(spec)
                    continue
                lines.append(f"  - removed {_describe(spec)}")
            for spec in after:
                lines.append(f"  + kept    {_describe(spec)}")
        for field_name in ("duration", "max_cycles"):
            before = getattr(self.original, field_name)
            after = getattr(self.shrunk, field_name)
            if before != after:
                lines.append(f"{field_name}: {before} -> {after}")
        return "\n".join(lines)


def shrink_scenario(
    scenario: Scenario,
    *,
    signature: Optional[str] = None,
    max_runs: int = 400,
    full_sweep: bool = False,
) -> ShrinkResult:
    """Minimize ``scenario`` while it keeps failing with ``signature``.

    ``signature`` defaults to whatever the scenario fails with right
    now (:class:`ShrinkError` if it doesn't fail at all).  The engine
    is re-run at most ``max_runs`` times; if the budget runs dry the
    best scenario found so far is returned with ``budget_exhausted``
    set instead of raising.
    """
    from repro.sim.engine import Simulation

    try:
        Simulation(scenario, full_sweep=full_sweep).run()
        baseline: Optional[BaseException] = None
    except Exception as exc:
        baseline = exc
    if baseline is None:
        raise ShrinkError(
            f"scenario {scenario.name!r} does not fail; nothing to shrink"
        )
    observed = failure_signature(baseline)
    if signature is None:
        signature = observed
    elif observed != signature:
        raise ShrinkError(
            f"scenario {scenario.name!r} fails with {observed!r}, "
            f"not the requested {signature!r}"
        )

    oracle = _Oracle(signature, max_runs, full_sweep)
    oracle._memo[scenario.content_hash()] = True  # the baseline run
    current = scenario
    try:
        previous = None
        # value equality, not identity: passes rebuild the dataclass
        # even when they remove nothing
        while previous != current:
            previous = current
            for field_name in _SHRINK_FIELDS:
                current = _shrink_field(current, field_name, oracle)
            current = _shrink_enable_schedule(current, oracle)
            current = _shrink_packets(current, oracle)
            current = _shrink_horizon(current, oracle)
    except _OutOfBudget:
        pass
    return ShrinkResult(
        original=scenario,
        shrunk=current,
        signature=signature,
        runs=oracle.runs,
        budget_exhausted=oracle.exhausted,
    )


def shrink_bundle(
    bundle: "ReproBundle | str | Path",
    *,
    max_runs: int = 400,
    full_sweep: bool = False,
) -> "tuple[ShrinkResult, Path]":
    """Shrink a repro bundle's scenario and emit a shrunk bundle.

    The shrunk scenario re-runs from cycle 0 with forensics armed, so
    the emitted ``*-shrunk-c<cycle>.repro`` bundle (written next to the
    original) is itself replayable; its ``shrink-diff.txt`` records
    what was removed.  Returns ``(result, shrunk_bundle_path)``.
    """
    from repro.sim.engine import Simulation

    if not isinstance(bundle, ReproBundle):
        bundle = load_bundle(bundle)
    result = shrink_scenario(
        bundle.scenario,
        signature=bundle.signature,
        max_runs=max_runs,
        full_sweep=full_sweep,
    )
    shrunk = dataclasses.replace(
        result.shrunk, name=f"{bundle.scenario.name}-shrunk"
    )
    sim = Simulation(shrunk, full_sweep=full_sweep)
    sim.enable_forensics(bundle.path.parent)
    try:
        sim.run()
    except Exception as exc:
        out = getattr(exc, "repro_bundle", None)
        if out is None:  # pragma: no cover - write_bundle always tags
            raise
    else:
        raise ShrinkError(
            f"shrunk scenario stopped failing when re-run "
            f"(signature {result.signature!r})"
        )
    (Path(out) / "shrink-diff.txt").write_text(result.diff() + "\n")
    return result, Path(out)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.shrink",
        description="minimize a failing repro bundle's scenario",
    )
    parser.add_argument("bundle", help="path to a *.repro directory")
    parser.add_argument(
        "--max-runs", type=int, default=400,
        help="engine-run budget (default 400)",
    )
    parser.add_argument(
        "--assert-max-traffic", type=int, default=None, metavar="N",
        help="exit 1 unless the shrunk scenario has <= N traffic flows",
    )
    parser.add_argument(
        "--assert-max-attacks", type=int, default=None, metavar="N",
        help="exit 1 unless trojans + attacks + faults + wire faults "
        "<= N after shrinking",
    )
    args = parser.parse_args(argv)

    try:
        result, out = shrink_bundle(args.bundle, max_runs=args.max_runs)
    except (ForensicsError, ShrinkError) as err:
        print(f"shrink FAILED: {err}")
        return 1
    print(result.diff())
    print(f"shrunk bundle: {out}")

    ok = True
    flows = len(result.shrunk.traffic)
    attacks = sum(len(getattr(result.shrunk, name)) for name in FAULT_FIELDS)
    if (
        args.assert_max_traffic is not None
        and flows > args.assert_max_traffic
    ):
        print(
            f"ASSERTION FAILED: {flows} traffic flows remain "
            f"(allowed {args.assert_max_traffic})"
        )
        ok = False
    if (
        args.assert_max_attacks is not None
        and attacks > args.assert_max_attacks
    ):
        print(
            f"ASSERTION FAILED: {attacks} trojans+attacks+faults remain "
            f"(allowed {args.assert_max_attacks})"
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
