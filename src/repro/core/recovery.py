"""Epoch-based recovery: detect, quiesce, reconfigure, resubmit.

The paper's mitigation keeps infected links usable with L-Ob; for links
the detector condemns outright (``PERMANENT``, or trojans under a
reroute policy) the system must eventually *reconfigure* — the
Ariadne-style response.  Mid-flight reconfiguration of a wormhole
network is unsafe, so real systems recover in epochs:

1. **freeze** injection (sources pause);
2. **drain** what the network can still deliver;
3. packets pinned behind the condemned links are **abandoned** (their
   retransmission guarantees end-to-end recovery in step 5);
4. **reconfigure**: disable condemned links, install the up*/down*
   table;
5. **resubmit** every packet that was not delivered, on the new epoch.

:class:`RecoveryManager` drives that sequence over a network and keeps
the ledger of undelivered packets so nothing is lost — the property the
tests pin down is exactly-once delivery across the epoch boundary.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.baselines.reroute import (
    UnroutableError,
    disable_both_ways,
    updown_table,
)
from repro.noc.config import NoCConfig
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.topology import LinkKey


@dataclass(frozen=True)
class RecoveryReport:
    """What one epoch transition did."""

    condemned: tuple[LinkKey, ...]
    drained_cleanly: bool
    drain_cycles: int
    packets_delivered_before: int
    packets_resubmitted: int
    downtime_cycles: int


class RecoveryManager:
    """Keeps the ledger of offered packets and rebuilds the network on
    recovery.

    The ledger holds a pristine copy of every packet the run will
    offer, given up front; a packet counts as offered once the network
    holds its record, so the manager can resubmit whatever was offered
    but not delivered after an epoch change.
    """

    #: alias pkt_ids start here — far above any traffic generator's ids,
    #: so an alias can never collide with an offered packet
    ALIAS_BASE = 1_000_000_000

    def __init__(self, network: Network, packets: Iterable[Packet]):
        self.network = network
        #: pristine copies of every packet the run offers
        self._ledger: dict[int, Packet] = {}
        for packet in packets:
            if packet.pkt_id in self._ledger:
                raise ValueError(f"duplicate pkt_id {packet.pkt_id}")
            self._ledger[packet.pkt_id] = copy.deepcopy(packet)
        #: ledger ids some epoch's network has held a record of; an
        #: epoch change drops the records of packets delivered only
        #: through an alias, so the offered set must outlive them
        self._offered: set[int] = set()
        #: original pkt_id -> alias pkt_ids of its in-place resubmissions
        self._aliases: dict[int, list[int]] = {}
        self._next_alias = self.ALIAS_BASE
        self.reports: list[RecoveryReport] = []

    # ------------------------------------------------------------------
    def resubmit(self, pkt_id: int, cycle: Optional[int] = None) -> int:
        """Re-offer a degraded packet end-to-end *within* the current
        epoch, under a fresh alias id.

        The alias matters: flits of the dropped attempt may still be in
        flight, and ejecting under the original id would corrupt the
        fresh attempt's delivery accounting.  Returns the alias pkt_id.
        """
        source = self._ledger.get(pkt_id)
        if source is None:
            raise KeyError(f"pkt_id {pkt_id} was never offered")
        clone = copy.deepcopy(source)
        clone.pkt_id = self._next_alias
        self._next_alias += 1
        clone.created_cycle = self.network.cycle if cycle is None else cycle
        self._aliases.setdefault(pkt_id, []).append(clone.pkt_id)
        self.network.add_packet(clone)
        self.network.stats.packets_resubmitted += 1
        return clone.pkt_id

    def _offered_ids(self) -> list[int]:
        """Offered ledger ids, in ledger order."""
        records = self.network.stats.packets
        self._offered |= records.keys() & self._ledger.keys()
        return [pkt_id for pkt_id in self._ledger if pkt_id in self._offered]

    @property
    def offered(self) -> int:
        """Ledger packets the network has been offered so far."""
        return len(self._offered_ids())

    def has(self, pkt_id: int) -> bool:
        return pkt_id in self._ledger

    def _delivered_ok(self, pkt_id: int) -> bool:
        """Delivered exactly once: the original or any of its aliases has
        a complete, correctly-addressed record."""
        stats = self.network.stats
        for candidate in (pkt_id, *self._aliases.get(pkt_id, ())):
            record = stats.packets.get(candidate)
            if record is not None and record.complete and not record.misdelivered:
                return True
        return False

    def duplicate_deliveries(self) -> int:
        """Offered packets with *more than one* complete delivery among
        the original and its aliases — must be zero for exactly-once."""
        stats = self.network.stats
        dups = 0
        for pkt_id in self._ledger:
            complete = 0
            for candidate in (pkt_id, *self._aliases.get(pkt_id, ())):
                record = stats.packets.get(candidate)
                if (
                    record is not None
                    and record.complete
                    and not record.misdelivered
                ):
                    complete += 1
            if complete > 1:
                dups += 1
        return dups

    def undelivered(self) -> list[Packet]:
        """Offered packets without a correct delivery, in ledger order."""
        return [
            self._ledger[pkt_id]
            for pkt_id in self._offered_ids()
            if not self._delivered_ok(pkt_id)
        ]

    @property
    def delivered(self) -> int:
        return self.offered - len(self.undelivered())

    # ------------------------------------------------------------------
    def recover(
        self,
        condemned: Iterable[LinkKey],
        drain_limit: int = 2000,
        stall_limit: int = 400,
        reconfiguration_cycles: int = 64,
        carry_tamperers: bool = True,
    ) -> Network:
        """Run the freeze/drain/reconfigure/resubmit sequence.

        Returns the new-epoch network (also stored on ``self.network``),
        which takes over the old network's traffic source.
        ``reconfiguration_cycles`` models the firmware broadcast that
        distributes the new routing tables (Ariadne's reconfiguration
        wave) — accounted as downtime in the report.  When no up*/down*
        table routes around ``condemned`` the drained old network keeps
        its source and :class:`UnroutableError` propagates.
        """
        old = self.network
        condemned = tuple(sorted(set(condemned)))

        # 1-2. freeze injection and drain what still moves
        source, old.traffic = old.traffic, None
        start = old.cycle
        drained = old.run_until_drained(drain_limit, stall_limit=stall_limit)
        drain_cycles = old.cycle - start

        # 4. new epoch: same microarchitecture, reconfigured routing;
        # each link's two ends come from the factories that built the
        # old network's (a mitigated network's detectors and L-Ob)
        cfg = dataclasses.replace(old.cfg, routing="table")
        try:
            table = updown_table(old.cfg, condemned)
        except UnroutableError:
            old.traffic = source
            raise
        fresh = Network(
            cfg,
            policy=old.policy,
            receiver_factory=old.receiver_factory,
            lob_factory=old.lob_factory,
            routing_table=table,
            e2e=old.e2e,
            codec=old.codec,
        )
        fresh.full_sweep = old.full_sweep
        fresh.sample_interval = old.sample_interval
        fresh.profiler = old.profiler
        disable_both_ways(fresh, condemned)
        if carry_tamperers:
            # the trojans are in the silicon: they persist across epochs
            for key, link in old.links.items():
                for tamperer in link.tamperers:
                    fresh.links[key].tamperers.append(tamperer)
        fresh.cycle = old.cycle + reconfiguration_cycles
        fresh.traffic = source

        # 5. resubmit everything undelivered (3. the abandoned packets);
        # the ledger reads the old network's records for the last time
        resubmitted = 0
        delivered_before = self.delivered
        for packet in self.undelivered():
            clone = copy.deepcopy(packet)
            clone.created_cycle = fresh.cycle
            fresh.add_packet(clone)
            resubmitted += 1

        self.reports.append(
            RecoveryReport(
                condemned=condemned,
                drained_cleanly=drained,
                drain_cycles=drain_cycles,
                packets_delivered_before=delivered_before,
                packets_resubmitted=resubmitted,
                downtime_cycles=drain_cycles + reconfiguration_cycles,
            )
        )
        # adopt the new epoch, carrying over the completed records so the
        # ledger keeps seeing them as delivered
        fresh.stats.packets.update(
            {
                pid: rec
                for pid, rec in old.stats.packets.items()
                if rec.complete and not rec.misdelivered
            }
        )
        self.network = fresh
        return fresh

    # ------------------------------------------------------------------
    def run_epoch(self, max_cycles: int, stall_limit: int = 1500) -> bool:
        """Run the current epoch's network until drained."""
        return self.network.run_until_drained(
            max_cycles, stall_limit=stall_limit
        )
