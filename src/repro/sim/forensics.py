"""Failure forensics: self-contained, replayable repro bundles.

When a simulation dies — a :class:`~repro.sim.sentinel.SentinelTrip`,
an :class:`~repro.noc.invariants.InvariantViolation` from anywhere, or
any other exception escaping :meth:`Simulation.run()
<repro.sim.engine.Simulation.run>`, ``advance_to()``,
``run_until_drained()`` or ``step()`` — the only thing worse than the
failure is not being able to reproduce it.  A :class:`Forensics`
recorder attached via :meth:`Simulation.enable_forensics` (or by the
``REPRO_FORENSICS_DIR`` environment variable) keeps, at all times:

* an in-memory **last-good checkpoint** (refreshed every
  ``snapshot_every`` cycles, reusing :mod:`repro.sim.checkpoint`), and
* a **ring** of the newest :data:`TRACE_CAPACITY` obs events, so the
  window always ends at the failure.  The recorder threads the obs
  hooks (:func:`repro.obs.instrument.wire_hooks`) onto a private
  :class:`~repro.obs.events.EventBus` whose one sink is the ring, so
  the window is the same whether or not obs is armed.

On failure it writes a ``<scenario>-c<cycle>.repro/`` directory::

    manifest.json     format, scenario hash, code version, failure
                      signature + cycle, checkpoint cycle
    scenario.json     the full Scenario (repro.sim.scenario codec)
    checkpoint.ckpt   last-good state (repro.sim.checkpoint format)
    violation.json    exception type/message/signature + the attached
                      ValidationReport, when there is one
    events.jsonl      the trace window, newest events last (obs
                      event schema; ``python -m repro.obs.exporters
                      validate`` reads it)
    metrics.json      observability snapshot at the failure (present
                      when the sim had repro.obs attached)

``Simulation.replay(bundle)`` restores the checkpoint and re-runs;
because every stochastic component is seeded, the run re-raises the
*same* failure at the *same* cycle (:func:`replay_bundle` asserts so).
:mod:`repro.sim.shrink` then minimizes the bundled scenario.

Command line::

    python -m repro.sim.forensics demo --dir OUT   # plant + capture
    python -m repro.sim.forensics replay BUNDLE    # verify a bundle
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TYPE_CHECKING

from repro.obs.events import EventBus
from repro.obs.instrument import wire_hooks
from repro.sim.cache import code_version
from repro.sim.checkpoint import Checkpoint
from repro.sim.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

#: bump on incompatible bundle layout changes (2: the trace window is
#: obs events in ``events.jsonl``)
BUNDLE_FORMAT = 2

BUNDLE_SUFFIX = ".repro"

MANIFEST_NAME = "manifest.json"
SCENARIO_NAME = "scenario.json"
CHECKPOINT_NAME = "checkpoint.ckpt"
VIOLATION_NAME = "violation.json"
EVENTS_NAME = "events.jsonl"
#: observability snapshot (present when the failing sim had obs armed)
METRICS_NAME = "metrics.json"

#: obs events the trace window keeps (the newest)
TRACE_CAPACITY = 2000


class ForensicsError(RuntimeError):
    """A bundle could not be written, read, or replayed."""


def failure_signature(exc: BaseException) -> str:
    """Machine-readable identity of a failure, for replay comparison.

    Sentinel trips carry their own ``kind`` (``"deadlock"``,
    ``"livelock"``, ``"invariant:<families>"``); other invariant
    violations map to ``"invariant"``; everything else to
    ``"crash:<ExceptionType>"``.
    """
    from repro.noc.invariants import InvariantViolation

    kind = getattr(exc, "kind", None)
    if isinstance(kind, str) and kind:
        return kind
    if isinstance(exc, InvariantViolation):
        return "invariant"
    return f"crash:{type(exc).__name__}"


class Forensics:
    """Continuous failure recorder for one :class:`Simulation`.

    Construction takes the *initial* last-good checkpoint, so a bundle
    can be written no matter how early the run dies.  The recorder is
    itself checkpoint-safe: pickling it drops the held snapshot (a
    snapshot nested inside a snapshot would grow without bound).
    """

    def __init__(
        self,
        sim: "Simulation",
        directory: "str | Path",
        *,
        snapshot_every: int = 500,
    ):
        if snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        self.sim = sim
        self.directory = Path(directory)
        self.snapshot_every = snapshot_every
        previous = sim.forensics
        if previous is not None:
            # re-arming keeps the attached ring: one trace window per run
            self.ring = previous.ring
        else:
            self.ring = deque(maxlen=TRACE_CAPACITY)
            bus = EventBus()
            bus.sinks.append(self.ring.append)
            run = sim.obs_run if sim.obs is not None else sim.scenario.name
            wire_hooks(bus, run, sim.network, sim)
        # hooked before the first capture, so the checkpoint carries
        # the ring's hooks and replays keep recording
        self.last_good: Optional[Checkpoint] = Checkpoint.capture(sim)
        cycle = sim.network.cycle
        self._next_snapshot = (
            (cycle // snapshot_every) + 1
        ) * snapshot_every

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # never nest the held snapshot inside a new snapshot
        state["last_good"] = None
        return state

    # ------------------------------------------------------------------
    def maybe_snapshot(self) -> None:
        """Refresh the in-memory last-good checkpoint at the cadence.

        The engine calls this after each successfully completed cycle,
        so the held checkpoint is always of a state *before* any
        failure.
        """
        cycle = self.sim.network.cycle
        if cycle < self._next_snapshot:
            return
        self.last_good = Checkpoint.capture(self.sim)
        every = self.snapshot_every
        self._next_snapshot = ((cycle // every) + 1) * every

    def write_bundle(self, exc: BaseException) -> Path:
        """Capture ``exc`` as a self-contained ``*.repro`` bundle."""
        sim = self.sim
        scenario = sim.scenario
        cycle = getattr(exc, "cycle", sim.network.cycle)
        checkpoint = self.last_good
        if checkpoint is None:  # restored recorder that never re-snapped
            raise ForensicsError(
                "no last-good checkpoint held; cannot write a bundle"
            )

        stem = f"{scenario.name}-c{cycle:012d}"
        bundle = self.directory / f"{stem}{BUNDLE_SUFFIX}"
        n = 1
        while bundle.exists():
            bundle = self.directory / f"{stem}-{n}{BUNDLE_SUFFIX}"
            n += 1
        bundle.mkdir(parents=True)

        signature = failure_signature(exc)
        (bundle / SCENARIO_NAME).write_text(scenario.to_json())
        checkpoint.save(bundle / CHECKPOINT_NAME)
        (bundle / VIOLATION_NAME).write_text(
            json.dumps(_violation_payload(exc, signature, cycle),
                       indent=2, sort_keys=True)
        )
        from repro.obs.exporters import write_events_jsonl

        write_events_jsonl(bundle / EVENTS_NAME, self.ring)
        obs = getattr(sim, "obs", None)
        if obs is not None:
            # written before the manifest so iterdir() lists it below
            (bundle / METRICS_NAME).write_text(
                json.dumps(obs.manifest(), indent=2, sort_keys=True)
            )
        manifest = {
            "format": BUNDLE_FORMAT,
            "name": scenario.name,
            "scenario_hash": scenario.content_hash(),
            "code_version": code_version(),
            "signature": signature,
            "cycle": cycle,
            "checkpoint_cycle": checkpoint.cycle,
            "files": sorted(p.name for p in bundle.iterdir()) + [
                MANIFEST_NAME
            ],
        }
        (bundle / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        return bundle


def _violation_payload(
    exc: BaseException, signature: str, cycle: int
) -> dict:
    report = getattr(exc, "report", None)
    encoded = None
    if report is not None:
        encoded = {
            "checks": report.checks,
            "violations": list(report.violations),
            "duplicates": report.duplicates,
            "overflow": report.overflow,
            "by_family": dict(report.by_family),
        }
    return {
        "signature": signature,
        "type": type(exc).__name__,
        "message": str(exc),
        "cycle": cycle,
        "report": encoded,
    }


# ---------------------------------------------------------------------------
# reading bundles back
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReproBundle:
    """A loaded ``*.repro`` directory."""

    path: Path
    manifest: dict
    scenario: Scenario
    violation: dict

    @property
    def signature(self) -> str:
        return self.manifest["signature"]

    @property
    def cycle(self) -> int:
        return self.manifest["cycle"]

    @property
    def checkpoint_path(self) -> Path:
        return self.path / CHECKPOINT_NAME


def load_bundle(path: "str | Path") -> ReproBundle:
    """Read and validate a bundle directory's metadata (the checkpoint
    payload stays on disk until replay)."""
    path = Path(path)
    manifest_file = path / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_file.read_text())
    except FileNotFoundError:
        raise ForensicsError(
            f"{path}: not a repro bundle (no {MANIFEST_NAME})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ForensicsError(f"{manifest_file}: unreadable: {exc}") from exc
    if manifest.get("format") != BUNDLE_FORMAT:
        raise ForensicsError(
            f"{path}: bundle format {manifest.get('format')!r} not "
            f"supported (this build reads format {BUNDLE_FORMAT})"
        )
    scenario = Scenario.from_json((path / SCENARIO_NAME).read_text())
    try:
        violation = json.loads((path / VIOLATION_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        violation = {}
    return ReproBundle(
        path=path, manifest=manifest, scenario=scenario,
        violation=violation,
    )


def replay_bundle(path: "str | Path") -> BaseException:
    """Re-run a bundle from its checkpoint; return the re-raised
    failure after asserting it matches the bundled one.

    Raises :class:`ForensicsError` when the replay completes cleanly or
    reproduces a *different* failure — either means the bundle no
    longer describes this source tree's behavior.
    """
    from repro.sim.engine import Simulation

    bundle = load_bundle(path)
    sim = Simulation.replay(path)
    try:
        sim.run()
    except Exception as exc:
        signature = failure_signature(exc)
        cycle = getattr(exc, "cycle", sim.network.cycle)
        if signature != bundle.signature or cycle != bundle.cycle:
            raise ForensicsError(
                f"{bundle.path}: replay diverged: bundled "
                f"{bundle.signature}@{bundle.cycle}, replay raised "
                f"{signature}@{cycle}"
            ) from exc
        return exc
    raise ForensicsError(
        f"{bundle.path}: replay completed without failing (bundled "
        f"failure was {bundle.signature}@{bundle.cycle})"
    )


# ---------------------------------------------------------------------------
# planted failure (docs/CI demo and test fixture)
# ---------------------------------------------------------------------------
def planted_deadlock_scenario(name: str = "planted-deadlock") -> Scenario:
    """A scenario engineered to die: a double-bit fault process with
    rate 1.0 sits on link (0, EAST), so every victim flit arrives
    uncorrectable, NACKs, and retransmits forever — the same pinned
    retransmission-slot condition a TASP deadlock creates (Fig. 4/5),
    caught by the sentinel's livelock detector.

    A background flow and a low-rate decoy fault ride along so the
    shrinker (:mod:`repro.sim.shrink`) has something to remove: the
    1-minimal core is one victim packet plus the rate-1.0 fault.
    """
    from repro.noc.topology import Direction
    from repro.sim.scenario import (
        ExplicitTraffic,
        PacketSpec,
        TransientFaultSpec,
    )
    from repro.sim.sentinel import SentinelSpec

    victim = ExplicitTraffic(
        packets=tuple(
            # core 0 (router 0) -> core 4 (router 1): crosses (0, EAST)
            PacketSpec(
                pkt_id=pkt_id, src_core=0, dst_core=4,
                inject_at=at, payload=(0xD0 + pkt_id, 0xE0 + pkt_id),
            )
            for pkt_id, at in ((1, 0), (2, 40), (3, 80))
        )
    )
    background = ExplicitTraffic(
        packets=tuple(
            # core 20 (router 5) -> core 24 (router 6): crosses (5, EAST)
            PacketSpec(
                pkt_id=pkt_id, src_core=20, dst_core=24,
                inject_at=at, payload=(0xB0 + pkt_id,),
            )
            for pkt_id, at in ((100, 5), (101, 25))
        )
    )
    return Scenario(
        name=name,
        traffic=(victim, background),
        faults=(
            # the killer: every traversal double-corrupted, never
            # correctable, NACK loop forever
            TransientFaultSpec(
                link=(0, Direction.EAST), rate=1.0,
                double_fraction=1.0, seed=1,
                labels=("planted", "killer"),
            ),
            # the decoy: occasional correctable single-bit flips on the
            # background flow's path — annoying, harmless, removable
            TransientFaultSpec(
                link=(5, Direction.EAST), rate=0.05,
                double_fraction=0.0, seed=2,
                labels=("planted", "decoy"),
            ),
        ),
        max_cycles=5000,
        sentinel=SentinelSpec(
            every=16, flit_scope="active",
            deadlock_window=600, livelock_sends=40,
        ),
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.forensics",
        description="capture and verify failure repro bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser(
        "demo",
        help="run the planted-failure scenario with forensics armed "
        "and print the emitted bundle path",
    )
    demo.add_argument(
        "--dir", default="forensics-out", help="bundle output directory"
    )
    replay = sub.add_parser(
        "replay",
        help="replay a bundle and verify it reproduces the bundled "
        "failure signature at the bundled cycle",
    )
    replay.add_argument("bundle", help="path to a *.repro directory")
    args = parser.parse_args(argv)

    from repro.sim.engine import Simulation

    if args.command == "demo":
        sim = Simulation(planted_deadlock_scenario())
        sim.enable_forensics(args.dir)
        try:
            sim.run()
        except Exception as exc:
            bundle = getattr(exc, "repro_bundle", None)
            print(f"failure: {failure_signature(exc)}: {exc}")
            print(f"bundle: {bundle}")
            return 0 if bundle is not None else 1
        print("planted scenario completed without failing")
        return 1

    try:
        exc = replay_bundle(args.bundle)
    except ForensicsError as err:
        print(f"replay FAILED: {err}")
        return 1
    print(
        f"replay ok: {failure_signature(exc)} at cycle "
        f"{getattr(exc, 'cycle', '?')} — {exc}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
