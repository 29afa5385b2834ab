"""Receive pipeline of a direction input port: ECC decode + ACK/NACK.

:class:`EccReceiver` is the baseline fault-tolerant receiver every NoC
in the paper has: SECDED decode, correct single faults, NACK
uncorrectable ones.  The mitigation's threat detector
(:class:`repro.core.mitigation.DetectingReceiver`) subclasses it to add
fault classification and L-Ob handling.

Accepted flits pass through a per-VC **resequencing stage** before they
are written into the VC buffers: selective-repeat retransmission lets a
younger flit cross the link while an older one is being retried (paper
Fig. 7: flit #3 passes the corrupted flit #2), so the receiver restores
per-VC order using the link-level ``vc_seq`` numbers.  Deobfuscation
penalties (1–3 cycles, paper §IV) are modelled as delayed release from
this stage, and a flit blocked on its scramble partner simply blocks
its VC — matching the walkthrough where flit #4 stalls behind the
scrambled flit (2+4).
"""

from __future__ import annotations

import functools
from typing import Optional, TYPE_CHECKING

from repro.ecc import SECDED_72_64, DecodeResult, DecodeStatus, Secded
from repro.noc.flit import HeaderLayout, layout_for
from repro.noc.link import AckMessage, Link, Transmission
from repro.noc.retrans import NackAdvice
from repro.util.bits import mask

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.config import NoCConfig
    from repro.noc.flit import Flit


#: the skip set of a VC that has none
_NO_SKIPS: frozenset[int] = frozenset()


@functools.lru_cache(maxsize=None)
def _header_fields(layout: HeaderLayout) -> tuple[tuple[int, int], ...]:
    """(offset, mask) of the header fields a head flit is re-read from:
    source router, destination router, memory address."""
    return tuple(
        (offset, mask(width))
        for offset, width in (layout.src, layout.dst, layout.mem)
    )


class StagedFlit:
    """A flit accepted off the link but not yet written to its VC buffer."""

    __slots__ = ("flit", "vc", "vc_seq", "release_cycle", "waiting_for_tag",
                 "own_tag", "discard")

    def __init__(
        self,
        flit: "Flit",
        vc: int,
        vc_seq: int,
        release_cycle: Optional[int],
        waiting_for_tag: Optional[int] = None,
        own_tag: Optional[int] = None,
        discard: bool = False,
    ):
        self.flit = flit
        self.vc = vc
        self.vc_seq = vc_seq
        #: None while blocked on a scramble partner
        self.release_cycle = release_cycle
        self.waiting_for_tag = waiting_for_tag
        #: link tag of this flit (so a resolved waiter can itself feed
        #: scramble chains: its recovered data is cached under this tag)
        self.own_tag = own_tag
        #: tombstone of a degraded packet: holds the slot for sequencing
        #: and credit accounting, but is consumed instead of delivered
        self.discard = discard


class EccReceiver:
    """Baseline switch-to-switch ECC receive pipeline."""

    def __init__(self, cfg: "NoCConfig", link: Link, codec: Secded = SECDED_72_64):
        self.cfg = cfg
        self.link = link
        self.codec = codec
        self.layout = layout_for(cfg)
        self._header_fields = _header_fields(self.layout)
        #: per-VC resequencing store: vc -> {vc_seq: StagedFlit}
        self._staging: dict[int, dict[int, StagedFlit]] = {
            vc: {} for vc in range(cfg.num_vcs)
        }
        #: entries across every staging store, kept in step with them
        #: by :meth:`_stage` and :meth:`take_deliveries`
        self.staged_count = 0
        #: next vc_seq expected to be delivered, per VC
        self._expected_seq = [0] * cfg.num_vcs
        #: vc_seq numbers dropped upstream before acceptance, per VC;
        #: the resequencer steps over them instead of waiting forever.
        #: A VC has a set only while it holds a number: skips are rare,
        #: and an empty set per VC would cost memory on every link
        self._skipped: dict[int, set[int]] = {}
        #: bitmask of the VCs whose staging store or skip set may hold
        #: something, so :meth:`take_deliveries` visits only those
        self._live = 0
        #: pkt_ids condemned by the degradation path, oldest first (the
        #: values are unused); their remaining flits are
        #: accepted-and-discarded so the wormhole drains
        self.poisoned_packets: dict[int, None] = {}
        #: wired by Network: upstream CreditTracker, for returning the
        #: slot of a discarded flit
        self.upstream_credits = None
        #: wired by Network: NetworkStats, for degrade drop accounting
        self.stats_sink = None
        # -- counters ----------------------------------------------------
        # (``repro.obs.collectors.collect_links`` scrapes them as
        # ``ecc_*`` series)
        self.flits_accepted = 0
        self.flits_corrected = 0
        self.faults_detected = 0
        self.nacks_sent = 0
        self.deob_stall_cycles = 0
        self.flits_discarded = 0

    # ------------------------------------------------------------------
    def process(self, tx: Transmission, cycle: int) -> None:
        """Handle one arriving transmission.  One without a codeword
        crossed a link that can alter nothing, so its word is accepted
        as the clean (OK) decode it would have been."""
        # an in-order arrival usually finds its VC with nothing staged
        # or skipped (its bit in ``_live`` clear) and skips both lookups
        if self._live >> tx.vc & 1 and (
            tx.vc_seq in self._staging[tx.vc]
            or (
                tx.vc in self._skipped
                and tx.vc_seq in self._skipped[tx.vc]
            )
        ):
            # Duplicate of a flit already accepted (a stale
            # retransmission), or a sequence the upstream degradation
            # path already gave up on; re-ACK and drop.
            self._send_ok(tx, cycle)
            return
        codeword = tx.codeword
        if codeword is None:
            data = tx.data
            status = None
        else:
            result = self.codec.decode(codeword)
            status = result.status
            if status is DecodeStatus.DETECTED:
                self._reject(tx, cycle, result)
                return
            data = result.data
        if tx.flit.pkt_id in self.poisoned_packets:
            self._discard(tx, cycle)
            return
        if status is DecodeStatus.CORRECTED:
            self.flits_corrected += 1
        if tx.ob is None:
            self._deliver_plain(tx, cycle, data)
        else:
            self._accept_obfuscated(tx, cycle, data)

    # -- reject path ------------------------------------------------------
    def _reject(self, tx: Transmission, cycle: int, result: DecodeResult) -> None:
        self.faults_detected += 1
        self.nacks_sent += 1
        advice = self._advice_for(tx, cycle, result)
        self.link.send_ack(AckMessage(tx.tag, False, advice), cycle)

    def _advice_for(
        self, tx: Transmission, cycle: int, result: DecodeResult
    ) -> Optional[NackAdvice]:
        """Baseline receivers only ever ask for a plain retransmission."""
        return None

    # -- accept path --------------------------------------------------------
    def _deliver_plain(self, tx: Transmission, cycle: int, data: int) -> None:
        """Accept an unobfuscated flit: adopt the accepted word, stage it
        for release this cycle and ACK it.  This is what
        :meth:`_finalize_flit`, :meth:`_stage` and :meth:`_send_ok` do,
        written out because it runs once per flit-hop; :meth:`process`
        has already ruled out a staged duplicate."""
        flit = tx.flit
        flit.data = data
        if flit.is_head:
            (src, src_mask), (dst, dst_mask), (mem, mem_mask) = (
                self._header_fields
            )
            flit.src_router = data >> src & src_mask
            flit.dst_router = data >> dst & dst_mask
            flit.mem_addr = data >> mem & mem_mask
        vc = tx.vc
        self._staging[vc][tx.vc_seq] = StagedFlit(flit, vc, tx.vc_seq, cycle)
        self.staged_count += 1
        self._live |= 1 << vc
        self.flits_accepted += 1
        link = self.link
        link._acks.append((
            cycle + link.ack_latency,
            AckMessage(
                tx.tag, True, None, None,
                (flit.src_router, flit.dst_router, flit.vc_class),
            ),
        ))

    def _accept_obfuscated(
        self, tx: Transmission, cycle: int, data: int
    ) -> None:
        """Baseline networks never launch obfuscated flits; receiving one
        without mitigation support is a protocol violation."""
        raise RuntimeError(
            "obfuscated transmission reached a receiver without a threat "
            "detector / L-Ob decoder; install mitigation on both ends"
        )

    def _send_ok(self, tx: Transmission, cycle: int) -> None:
        self.flits_accepted += 1
        flit = tx.flit
        self.link.send_ack(
            AckMessage(
                tx.tag, True, None, tx.ob,
                (flit.src_router, flit.dst_router, flit.vc_class),
            ),
            cycle,
        )

    def _finalize_flit(self, flit: "Flit", data: int) -> None:
        """Adopt the decoded wire image; hardware trusts the wire, so
        silent data corruption on a head flit re-routes the packet."""
        flit.data = data
        if flit.is_head:
            (src, src_mask), (dst, dst_mask), (mem, mem_mask) = (
                self._header_fields
            )
            flit.src_router = data >> src & src_mask
            flit.dst_router = data >> dst & dst_mask
            flit.mem_addr = data >> mem & mem_mask

    # -- graceful degradation --------------------------------------------
    def _discard(self, tx: Transmission, cycle: int) -> None:
        """Accept-and-discard a flit of a condemned packet: the upstream
        slot is freed through the ordinary OK-ACK path, but a tombstone
        is staged in place of the flit so per-VC sequencing and credit
        accounting stay exact."""
        self._stage(StagedFlit(tx.flit, tx.vc, tx.vc_seq, cycle, discard=True))
        self._send_ok(tx, cycle)

    def skip_seq(self, vc: int, vc_seq: int) -> None:
        """Mark a sequence number the upstream end dropped before this
        receiver ever accepted it; the resequencer will step over it."""
        if vc_seq >= self._expected_seq[vc] and vc_seq not in self._staging[vc]:
            if vc in self._skipped:
                self._skipped[vc].add(vc_seq)
            else:
                self._skipped[vc] = {vc_seq}
            self._live |= 1 << vc

    def poison_packet(self, pkt_id: int, capacity: int = 256) -> None:
        """Condemn a packet: its future arrivals on this link are
        accepted-and-discarded (the end-to-end resubmission owns
        delivery from here on).  Beyond ``capacity`` condemned ids the
        oldest is forgotten."""
        poisoned = self.poisoned_packets
        if pkt_id in poisoned:
            return
        poisoned[pkt_id] = None
        while len(poisoned) > capacity:
            del poisoned[next(iter(poisoned))]

    def reset_sequencing(self) -> None:
        """Start a fresh link epoch after reinstatement.

        A sealed link retired its pinned retransmission entries without
        delivering them, so the upstream per-VC ``vc_seq`` counters and
        this receiver's ``_expected_seq`` have diverged — and the
        ``_skipped`` sets still hold sequence numbers from the sealed
        era, which would misclassify fresh post-reinstatement arrivals
        as stale duplicates (they are re-ACKed and silently dropped).
        Reinstatement re-zeroes both ends instead: legal exactly
        because sealing guaranteed the wire is idle, the
        retransmission buffer is empty and nothing is staged here, so
        no in-flight sequence number can straddle the reset.

        Poison tombstones are cleared for the same reason: packets
        purged while this link was condemned retired long ago (their
        resubmitted aliases carry fresh ids), so stale entries only
        risk eating a future wrapped pkt_id.
        """
        if self.staged_count:
            raise RuntimeError(
                "cannot reset sequencing with staged flits pending"
            )
        self._expected_seq = [0] * self.cfg.num_vcs
        self._skipped.clear()
        self._live = 0
        self.poisoned_packets.clear()

    def discard_staged(self, pkt_id: int, cycle: int) -> int:
        """Turn already-staged (undelivered) flits of a condemned packet
        into tombstones; returns how many were condemned.  Flits blocked
        on a scramble partner are left alone — they resolve normally and
        their packet id is poisoned for ejection anyway."""
        count = 0
        for store in self._staging.values():
            for staged in store.values():
                if (
                    staged.flit.pkt_id == pkt_id
                    and not staged.discard
                    and staged.waiting_for_tag is None
                ):
                    staged.discard = True
                    count += 1
        return count

    # -- staging ----------------------------------------------------------
    def _stage(self, staged: StagedFlit) -> None:
        store = self._staging[staged.vc]
        if staged.vc_seq not in store:
            self.staged_count += 1
        store[staged.vc_seq] = staged
        self._live |= 1 << staged.vc

    def take_deliveries(self, cycle: int) -> list[tuple[int, "Flit"]]:
        """Flits ready to be written into the input VC buffers this
        cycle, strictly in per-VC ``vc_seq`` order."""
        out: list[tuple[int, "Flit"]] = []
        expected_seq = self._expected_seq
        skips = self._skipped
        live = pending = self._live
        while pending:
            bit = pending & -pending
            pending ^= bit
            vc = bit.bit_length() - 1
            store = self._staging[vc]
            skipped = skips[vc] if vc in skips else _NO_SKIPS
            while True:
                expected = expected_seq[vc]
                if expected in skipped:
                    skipped.discard(expected)
                    expected_seq[vc] = expected + 1
                    if not skipped:
                        del skips[vc]
                    continue
                if expected not in store:
                    break
                staged = store[expected]
                if staged.release_cycle is None or staged.release_cycle > cycle:
                    break
                del store[expected]
                self.staged_count -= 1
                expected_seq[vc] = expected + 1
                if staged.discard:
                    # Tombstone consumed: the buffer slot it reserved is
                    # returned upstream exactly where a real delivery
                    # would have occupied it.
                    self.flits_discarded += 1
                    if self.upstream_credits is not None:
                        self.upstream_credits.release(vc, cycle)
                    if self.stats_sink is not None:
                        self.stats_sink.on_flit_degraded(staged.flit)
                    continue
                staged.flit.last_move_cycle = cycle
                staged.flit.hops += 1
                out.append((vc, staged.flit))
            if not store and not skipped:
                live ^= bit
        self._live = live
        return out

    @property
    def idle(self) -> bool:
        return self.staged_count == 0
