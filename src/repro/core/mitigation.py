"""Wiring of the threat detector + L-Ob into the router datapath.

:class:`DetectingReceiver` extends the baseline ECC receiver with the
Fig. 6 decision process and the downstream half of L-Ob (undo
obfuscation, resolve scramble partners).
:func:`build_mitigated_network` constructs a NoC with the full
mitigation installed on every link — the configuration evaluated in
Fig. 12(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.detector import DetectorConfig, ThreatDetector
from repro.core.lob import (
    DEFAULT_METHOD_SEQUENCE,
    Granularity,
    LObCodec,
    LObEncoder,
    ObDescriptor,
    ObMethod,
    PENALTY_CYCLES,
)
from repro.ecc import SECDED_72_64, DecodeResult, Secded
from repro.faults.bist import BistScanner
from repro.noc.config import NoCConfig
from repro.noc.link import Link, Transmission
from repro.noc.network import Network
from repro.noc.receiver import EccReceiver, StagedFlit
from repro.noc.retrans import NackAdvice
from repro.util.records import BoundedTable
from repro.util.rng import SeededStream, derive_seed


@dataclass(frozen=True)
class MitigationConfig:
    """Everything the proposed mitigation adds to the router."""

    detector: DetectorConfig = DetectorConfig()
    method_sequence: tuple[tuple[ObMethod, Granularity], ...] = (
        DEFAULT_METHOD_SEQUENCE
    )
    flow_log_capacity: int = 16
    reorder_window: int = 4
    #: design-time secret from which per-link shuffle keys derive
    lob_seed: int = 0x10B
    #: receiver-side cache of delivered flit data for unscrambling
    data_cache_capacity: int = 64


class DetectingReceiver(EccReceiver):
    """ECC receiver + threat source detector + L-Ob decoder."""

    def __init__(
        self,
        cfg: NoCConfig,
        link: Link,
        detector: ThreatDetector,
        lob_codec: LObCodec,
        mitigation: MitigationConfig,
        codec: Secded = SECDED_72_64,
    ):
        super().__init__(cfg, link, codec)
        self.detector = detector
        self.lob_codec = lob_codec
        self.mitigation = mitigation
        #: link tag -> recovered data of recently delivered flits
        self._data_cache: BoundedTable = BoundedTable(
            mitigation.data_cache_capacity
        )
        #: partner tag -> staged flits blocked on it
        self._waiting: dict[int, list[StagedFlit]] = {}
        self.scrambles_resolved = 0

    # -- detector hookup -----------------------------------------------------
    def _advice_for(
        self, tx: Transmission, cycle: int, result: DecodeResult
    ) -> Optional[NackAdvice]:
        return self.detector.on_fault(tx, cycle, result)

    def _deliver_plain(self, tx: Transmission, cycle: int, data: int) -> None:
        self.detector.on_clean(tx, cycle)
        self._finalize_flit(tx.flit, data)
        self._cache_and_resolve(tx.tag, data, cycle)
        self._stage(StagedFlit(tx.flit, tx.vc, tx.vc_seq, cycle))
        self._send_ok(tx, cycle)

    # -- L-Ob decode ------------------------------------------------------------
    def _accept_obfuscated(
        self, tx: Transmission, cycle: int, data: int
    ) -> None:
        self.detector.on_clean(tx, cycle)
        desc = tx.ob
        assert desc is not None
        if desc.method is ObMethod.SCRAMBLE:
            self._accept_scrambled(tx, cycle, data, desc)
            return
        penalty = PENALTY_CYCLES[desc.method]
        self.deob_stall_cycles += penalty
        data = self.lob_codec.undo(data, desc.method, desc.granularity)
        self._finalize_flit(tx.flit, data)
        self._cache_and_resolve(tx.tag, data, cycle)
        self._stage(StagedFlit(tx.flit, tx.vc, tx.vc_seq, cycle + penalty))
        self._send_ok(tx, cycle)

    def _accept_scrambled(
        self,
        tx: Transmission,
        cycle: int,
        word: int,
        desc: ObDescriptor,
    ) -> None:
        partner_data = self._data_cache.get(desc.partner_tag)
        if partner_data is not None:
            data = word ^ partner_data
            penalty = PENALTY_CYCLES[ObMethod.SCRAMBLE]
            self.deob_stall_cycles += penalty
            self._finalize_flit(tx.flit, data)
            self._cache_and_resolve(tx.tag, data, cycle)
            self._stage(
                StagedFlit(tx.flit, tx.vc, tx.vc_seq, cycle + penalty)
            )
            self.scrambles_resolved += 1
        else:
            # Hold the scrambled word until the partner crosses the link
            # (Fig. 7 step (i): flit #4 stalls until (2+4) resolves).
            tx.flit.data = word  # scrambled word, fixed on resolve
            staged = StagedFlit(
                tx.flit,
                tx.vc,
                tx.vc_seq,
                release_cycle=None,
                waiting_for_tag=desc.partner_tag,
                own_tag=tx.tag,
            )
            self._stage(staged)
            self._waiting.setdefault(desc.partner_tag, []).append(staged)
        self._send_ok(tx, cycle)

    def _cache_and_resolve(self, tag: int, data: int, cycle: int) -> None:
        """Record recovered data and wake any scramble waiter on it.

        Resolution recurses: a resolved waiter may itself be the pledged
        partner of a later scrambled flit (targets scrambled with
        targets form chains), so its recovered data is cached under its
        own tag, cascading until the chain is drained.
        """
        self._data_cache.put(tag, data)
        waiters = self._waiting.pop(tag, None)
        if not waiters:
            return
        for staged in waiters:
            recovered = staged.flit.data ^ data
            self._finalize_flit(staged.flit, recovered)
            staged.release_cycle = cycle + 1  # the final un-XOR cycle
            staged.waiting_for_tag = None
            self.deob_stall_cycles += 1
            self.scrambles_resolved += 1
            if staged.own_tag is not None:
                self._cache_and_resolve(staged.own_tag, recovered, cycle)


class LinkMitigation:
    """Builds the mitigation on both ends of each link: a threat
    detector (with BIST) and L-Ob decoder downstream, an L-Ob encoder
    upstream, sharing the link's shuffle secret.

    ``receiver`` and ``encoder`` are a network's receiver and L-Ob
    factories.  A network keeps them to rebuild its links for a
    recovery epoch, so they are methods of a plain object rather than
    closures: a network that holds them still pickles into a
    checkpoint.
    """

    def __init__(self, mitigation: MitigationConfig):
        self.mitigation = mitigation
        #: per-link transforms, shared by both ends of the link
        self._codecs: dict[tuple, LObCodec] = {}

    def _codec_for(self, cfg: NoCConfig, link: Link) -> LObCodec:
        key = link.key
        if key not in self._codecs:
            self._codecs[key] = LObCodec(
                cfg.flit_bits, derive_seed(self.mitigation.lob_seed, key)
            )
        return self._codecs[key]

    def receiver(self, cfg: NoCConfig, link: Link) -> DetectingReceiver:
        mcfg = self.mitigation
        bist = BistScanner(
            SECDED_72_64.codeword_bits,
            SeededStream(cfg.seed, "bist", link.key),
        )
        detector = ThreatDetector(mcfg.detector, link, bist)
        return DetectingReceiver(
            cfg, link, detector, self._codec_for(cfg, link), mcfg
        )

    def encoder(self, cfg: NoCConfig, link: Link) -> LObEncoder:
        mcfg = self.mitigation
        return LObEncoder(
            self._codec_for(cfg, link),
            method_sequence=mcfg.method_sequence,
            flow_log_capacity=mcfg.flow_log_capacity,
            reorder_window=mcfg.reorder_window,
        )


def build_mitigated_network(
    cfg: NoCConfig,
    mitigation: Optional[MitigationConfig] = None,
    **network_kwargs,
) -> Network:
    """A NoC with the paper's full mitigation on every link: per-link
    threat detectors (with BIST) downstream and L-Ob encoders upstream,
    sharing per-link shuffle secrets."""
    hardware = LinkMitigation(mitigation or MitigationConfig())
    return Network(
        cfg,
        receiver_factory=hardware.receiver,
        lob_factory=hardware.encoder,
        **network_kwargs,
    )
