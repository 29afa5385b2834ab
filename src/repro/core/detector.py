"""The threat source detector (paper §IV-B, Fig. 6).

Sits next to the ECC decoder at each link input and classifies the
cause of retransmissions:

* first fault on a flit → plain retransmission (could be a transient);
* repeat fault on the *same* flit → "repetitive transient faults are
  unlikely": kick BIST to rule out a permanent fault, and tell the
  upstream L-Ob to obfuscate the next retransmission;
* repeat fault on an *obfuscated* flit → advance to the next
  obfuscation method;
* clean arrival of an obfuscated flit → method success, logged upstream.

The link verdict combines three signals the paper identifies: repeated
faults keyed to specific flits (target-activated), BIST coming back
clean (not a stuck-at wire), and fault positions that move between
retries (the trojan's payload counter disguising itself as transients).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.faults.bist import BistReport, BistScanner, BistVerdict
from repro.noc.retrans import NackAdvice
from repro.util.records import BoundedTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.ecc import DecodeResult
    from repro.noc.link import Link, Transmission


class LinkVerdict(enum.Enum):
    UNKNOWN = "unknown"
    TRANSIENT = "transient"
    PERMANENT = "permanent"
    TROJAN = "trojan"


@dataclass(slots=True)
class FaultRecord:
    """Per-flit (per link tag) fault history entry."""

    tag: int
    fault_count: int = 0
    syndromes: list[int] = field(default_factory=list)
    obfuscated_faults: int = 0
    #: next method index to advise
    method_index: int = 0
    first_cycle: int = -1
    last_cycle: int = -1
    #: recorded flit characteristics (paper: source, destination, vc,
    #: memory address are logged alongside the syndrome)
    flow_signature: Optional[tuple] = None
    mem_addr: int = 0


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs of the threat detector."""

    #: CAM capacity for per-flit fault history
    history_capacity: int = 32
    #: faults on the same flit before BIST + L-Ob engage
    repeat_threshold: int = 2
    #: distinct syndromes required to call moving-fault behaviour
    moving_fault_threshold: int = 2
    bist_enabled: bool = True


class ThreatDetector:
    """One detector instance per link input port."""

    def __init__(
        self,
        config: DetectorConfig,
        link: "Link",
        bist: Optional[BistScanner] = None,
    ):
        self.config = config
        self.link = link
        self.bist = bist
        self.history: BoundedTable = BoundedTable(config.history_capacity)
        self.verdict = LinkVerdict.UNKNOWN
        self.bist_report: Optional[BistReport] = None
        self._bist_requested = False
        # -- counters -----------------------------------------------------
        # (``repro.obs.collectors.collect_security`` scrapes them as
        # ``detector_*`` series)
        self.faults_observed = 0
        self.transient_resolutions = 0
        self.obfuscation_successes = 0
        self.bist_scans = 0

    # ------------------------------------------------------------------
    def on_fault(
        self, tx: "Transmission", cycle: int, result: "DecodeResult"
    ) -> NackAdvice:
        """Fig. 6 decision path for an uncorrectable fault; returns the
        advice to piggyback on the NACK."""
        self.faults_observed += 1
        record = self.history.get(tx.tag)
        if record is None:
            record = FaultRecord(tag=tx.tag, first_cycle=cycle)
            record.flow_signature = tx.flit.flow_signature
            record.mem_addr = tx.flit.mem_addr
            self.history.put(tx.tag, record)
        record.fault_count += 1
        record.last_cycle = cycle
        record.syndromes.append(result.syndrome)
        if tx.ob is not None:
            record.obfuscated_faults += 1
            # The obfuscated retry still triggered the trojan (or hit a
            # second fault source): escalate to the next method.
            record.method_index += 1

        if record.fault_count < self.config.repeat_threshold:
            # First sighting: correct-or-retransmit, no escalation yet.
            return NackAdvice(enable_obfuscation=False)

        # "If the flit has been retransmitted before, notify BIST to scan
        # for a permanent fault because repetitive transient faults are
        # unlikely."
        if self.config.bist_enabled and not self._bist_requested:
            self._run_bist(cycle)

        self._update_verdict(record)
        return NackAdvice(
            enable_obfuscation=True, method_index=record.method_index
        )

    def on_clean(self, tx: "Transmission", cycle: int) -> None:
        """A flit arrived intact; resolve any pending history."""
        record = self.history.pop(tx.tag)
        if tx.ob is not None:
            self.obfuscation_successes += 1
            if record is not None and self.verdict is LinkVerdict.UNKNOWN:
                self._update_verdict(record)
        elif record is not None:
            # Faulted before, clean now, without obfuscation: consistent
            # with a transient burst.
            self.transient_resolutions += 1
            if self.verdict is LinkVerdict.UNKNOWN:
                self.verdict = LinkVerdict.TRANSIENT

    # ------------------------------------------------------------------
    def _run_bist(self, cycle: int) -> None:
        self._bist_requested = True
        if self.bist is None:
            return
        self.bist_scans += 1
        self.bist_report = self.bist.scan(self.link.apply_tamper, cycle)
        if self.bist_report.verdict is BistVerdict.PERMANENT:
            self.verdict = LinkVerdict.PERMANENT

    def _update_verdict(self, record: FaultRecord) -> None:
        if self.verdict is LinkVerdict.PERMANENT:
            return
        bist_clean = (
            self.bist_report is None
            or self.bist_report.verdict is not BistVerdict.PERMANENT
        )
        moving = (
            len(set(record.syndromes)) >= self.config.moving_fault_threshold
        )
        if bist_clean and (moving or record.obfuscated_faults > 0):
            # Repeated, flit-keyed, position-shifting faults on a link
            # BIST says is healthy: a target-activated fault source.
            self.verdict = LinkVerdict.TROJAN

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ThreatDetector(link={self.link.key}, verdict={self.verdict.value}, "
            f"faults={self.faults_observed})"
        )
