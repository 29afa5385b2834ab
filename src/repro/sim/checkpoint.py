"""Checkpoint/restore of live simulations.

A :class:`Checkpoint` freezes the *complete* mutable state of a
:class:`~repro.sim.engine.Simulation` — router pipelines, VC buffers,
credit counters, retransmission buffers, receiver resequencing state,
trojan FSMs, detector/L-Ob/watchdog state, traffic-source cursors and
every ``SeededStream`` RNG position — so that::

    restore(snapshot(at cycle k)); run_to(n)

yields **bit-identical** :class:`~repro.noc.stats.NetworkStats` to a
straight ``run_to(n)``, even when the restore happens in a fresh
process (proof in ``tests/test_sim_checkpoint.py``).

The state image is a single :mod:`pickle` of the simulation object
graph.  One pickle pass (rather than per-component state dicts) is
load-bearing: flits, credit trackers and stats sinks are *shared*
between components, and pickle's memo preserves that aliasing exactly.
Everything the engine wires is picklable by construction (closures are
banned from the wired graph — see
:class:`repro.noc.routing.DimensionOrderRouting`); experiments that
bolt closure hooks onto a network simply cannot snapshot it, and get a
:class:`CheckpointError` saying so.

On-disk format (versioned, written atomically)::

    line 1   JSON header: format, scenario_hash, cycle, code_version,
             payload_bytes
    rest     the pickle payload

The header is validated *before* unpickling, so a checkpoint from a
different scenario, an incompatible format, or a different source tree
is rejected (or skipped by :func:`latest_checkpoint`) instead of being
revived into a silently diverging run.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.sim.cache import code_version

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation
    from repro.sim.scenario import Scenario

#: bump on incompatible checkpoint layout changes; old files are then
#: treated as absent rather than misparsed.  Format 2: simulations
#: carry the engine mode and (in event mode) the event core
#: (repro.sim.sched), and networks track the backlogged-core set.
#: Format 3: the event core holds only its skip counters (no wakeup
#: wheel) and scenario edges carry no wake token.
CHECKPOINT_FORMAT = 3

CHECKPOINT_SUFFIX = ".ckpt"

_NAME_RE = re.compile(r"^(?P<hash>[0-9a-f]{16})-c(?P<cycle>\d{12})\.ckpt$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be captured, written, read or restored."""


@dataclass(frozen=True)
class Checkpoint:
    """One frozen simulation state, ready to persist or restore."""

    scenario_hash: str
    cycle: int
    code_version: str
    payload: bytes

    # -- capture / restore ----------------------------------------------
    @classmethod
    def capture(cls, sim: "Simulation") -> "Checkpoint":
        """Freeze ``sim``'s complete mutable state.

        The capture is a deep copy: stepping ``sim`` afterwards does not
        disturb the checkpoint.
        """
        try:
            payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                "simulation state is not snapshot-safe (an attached hook, "
                f"monitor or tamperer is unpicklable): {exc}"
            ) from exc
        return cls(
            scenario_hash=sim.scenario.content_hash(),
            cycle=sim.network.cycle,
            code_version=code_version(),
            payload=payload,
        )

    def restore(self, *, check_code_version: bool = True) -> "Simulation":
        """Rebuild the live :class:`Simulation` this checkpoint froze.

        By default a checkpoint taken under a different source tree is
        refused: restoring state into changed code voids the
        bit-identity guarantee (and may not even unpickle).
        """
        if check_code_version and self.code_version != code_version():
            raise CheckpointError(
                f"checkpoint was taken under code version "
                f"{self.code_version}, current is {code_version()}; "
                "re-run from scratch instead of restoring"
            )
        try:
            sim = pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint payload does not unpickle: {exc}"
            ) from exc
        return sim

    # -- disk format ----------------------------------------------------
    def save(self, path: "str | Path") -> Path:
        """Write atomically (tmp file + rename): a crash mid-write never
        leaves a truncated checkpoint behind."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": CHECKPOINT_FORMAT,
            "scenario_hash": self.scenario_hash,
            "cycle": self.cycle,
            "code_version": self.code_version,
            "payload_bytes": len(self.payload),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode())
                fh.write(b"\n")
                fh.write(self.payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Checkpoint":
        """Read and validate a checkpoint file (header first, payload
        only if the header is sound)."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                try:
                    header = json.loads(header_line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    raise CheckpointError(
                        f"{path}: not a checkpoint file (bad header)"
                    ) from None
                if not isinstance(header, dict):
                    raise CheckpointError(
                        f"{path}: not a checkpoint file (bad header)"
                    )
                if header.get("format") != CHECKPOINT_FORMAT:
                    raise CheckpointError(
                        f"{path}: checkpoint format "
                        f"{header.get('format')!r} not supported "
                        f"(this build reads format {CHECKPOINT_FORMAT})"
                    )
                payload = fh.read()
        except FileNotFoundError:
            raise CheckpointError(f"{path}: no such checkpoint") from None
        except OSError as exc:
            raise CheckpointError(f"{path}: unreadable: {exc}") from exc
        expected = header.get("payload_bytes")
        if expected != len(payload):
            raise CheckpointError(
                f"{path}: truncated checkpoint "
                f"({len(payload)} of {expected} payload bytes)"
            )
        return cls(
            scenario_hash=header["scenario_hash"],
            cycle=header["cycle"],
            code_version=header["code_version"],
            payload=payload,
        )


# ---------------------------------------------------------------------------
# checkpoint directories
# ---------------------------------------------------------------------------
def checkpoint_path(
    directory: "str | Path", scenario_hash: str, cycle: int
) -> Path:
    """Canonical file name for one (scenario, cycle) checkpoint."""
    return Path(directory) / (
        f"{scenario_hash[:16]}-c{cycle:012d}{CHECKPOINT_SUFFIX}"
    )


def list_checkpoints(
    directory: "str | Path", scenario_hash: Optional[str] = None
) -> list[Path]:
    """Checkpoint files in ``directory`` (optionally one scenario's),
    oldest first by cycle."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    prefix = scenario_hash[:16] if scenario_hash is not None else None
    found = []
    for path in directory.iterdir():
        match = _NAME_RE.match(path.name)
        if match is None:
            continue
        if prefix is not None and match.group("hash") != prefix:
            continue
        found.append((int(match.group("cycle")), path))
    return [path for _, path in sorted(found)]


def latest_checkpoint(
    directory: "str | Path", scenario: "Scenario"
) -> Optional[Checkpoint]:
    """The newest *restorable* checkpoint of ``scenario``.

    Corrupt, truncated, wrong-scenario or stale-code files are skipped
    (newest first), so a damaged tail never blocks resuming from an
    older good checkpoint.
    """
    want_hash = scenario.content_hash()
    version = code_version()
    for path in reversed(list_checkpoints(directory, want_hash)):
        try:
            checkpoint = Checkpoint.load(path)
        except CheckpointError:
            continue
        if checkpoint.scenario_hash != want_hash:
            continue
        if checkpoint.code_version != version:
            continue
        return checkpoint
    return None


def prune_checkpoints(
    directory: "str | Path", scenario_hash: str, keep: int = 2
) -> None:
    """Delete all but the newest ``keep`` checkpoints of one scenario."""
    paths = list_checkpoints(directory, scenario_hash)
    for path in paths[: max(0, len(paths) - keep)]:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
