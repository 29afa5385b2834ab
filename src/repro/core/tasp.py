"""The TASP hardware trojan (paper §III).

Target-Activated Sequential-Payload: a light-weight trojan implanted on
a link, built from three components (Fig. 3):

1. a **target block** — comparators performing deep packet inspection
   on a fraction of the link wires (:class:`repro.core.targets.TargetSpec`);
2. a **Y-bit payload counter** — an FSM whose states are two-hot
   patterns; each triggered traversal injects the current pattern and
   *holds* state until the next trigger, both to save power and to keep
   faults from repeating on the same wires (disguising them as
   transients so fault-tolerance logic never condemns the link);
3. an **XOR tree** that flips the selected wires.

Exactly two bits are flipped because the attacker knows the link ECC is
SECDED: two flips are always detected, never corrected — every trigger
converts to a retransmission, and a persistently-targeted flit converts
to a pinned retransmission slot and, eventually, chip-scale deadlock.

Gating: the trojan needs *both* an externally driven kill switch and a
target match before it acts, so logic testing in verification (kill
switch off) can never expose it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.targets import TargetSpec
from repro.ecc import SECDED_72_64, Secded
from repro.noc.flit import HeaderLayout, PAPER_LAYOUT
from repro.util.rng import SeededStream


class TaspState(enum.Enum):
    """Fig. 3 FSM states."""

    IDLE = "idle"          # kill switch off: dormant
    ACTIVE = "active"      # enabled, scanning for the target
    ATTACKING = "attacking"  # target seen at least once; payload armed


@dataclass(frozen=True)
class TaspConfig:
    """Design-time parameters of one TASP instance."""

    #: payload-counter width Y: the FSM selects wire subsets of these
    y_bits: int = 8
    #: number of payload states the FSM cycles through (PL0..PLn-1);
    #: more states spread faults wider but cost flip-flops/power
    num_payload_states: int = 4
    #: explicit codeword wire indices the Y FSM taps (len == y_bits);
    #: default spreads them evenly across the link
    wires: Optional[tuple[int, ...]] = None
    #: bits flipped per trigger.  The paper's attacker uses exactly 2
    #: because the link ECC is SECDED: 1 flip is silently corrected,
    #: 2 flips force a retransmission (the DoS), 3+ flips may
    #: miscorrect into silent data corruption — the payload-weight
    #: ablation measures all three regimes.
    payload_weight: int = 2
    #: seed for the (design-time) choice of payload patterns
    seed: int = 0

    def __post_init__(self) -> None:
        if self.payload_weight < 1:
            raise ValueError("payload_weight must be at least 1")
        if self.y_bits < self.payload_weight:
            raise ValueError("payload counter needs >= payload_weight wires")
        max_states = math.comb(self.y_bits, self.payload_weight)
        if not 1 <= self.num_payload_states <= max_states:
            raise ValueError(
                f"num_payload_states must be in 1..{max_states} for "
                f"y_bits={self.y_bits}, weight={self.payload_weight}"
            )
        if self.wires is not None and len(self.wires) != self.y_bits:
            raise ValueError("wires must list exactly y_bits indices")


class TaspTrojan:
    """A TASP instance attached to one link (implements the
    :class:`repro.faults.models.LinkTamperer` protocol)."""

    def __init__(
        self,
        target: TargetSpec,
        config: TaspConfig = TaspConfig(),
        codec: Secded = SECDED_72_64,
        layout: HeaderLayout = PAPER_LAYOUT,
    ):
        self.target = target
        self.config = config
        self.codec = codec
        #: wire layout the comparators are tuned for (the attacker knows
        #: the mesh's header format at design time)
        self.layout = layout

        width = codec.codeword_bits
        if config.wires is not None:
            wires = list(config.wires)
            if any(not 0 <= w < width for w in wires):
                raise ValueError("payload wire index outside the link")
        else:
            # Spread the Y tapped wires evenly across the codeword.
            step = width / config.y_bits
            wires = [int(i * step) for i in range(config.y_bits)]
        self.payload_wires = tuple(wires)

        # Design-time payload schedule: a deterministic, seeded walk over
        # distinct weight-hot patterns of the Y wires (weight 2 for the
        # paper's SECDED-aware attacker).
        stream = SeededStream(config.seed, "tasp-payload")
        combos = list(
            itertools.combinations(range(config.y_bits), config.payload_weight)
        )
        stream.shuffle(combos)
        masks = []
        for combo in combos[: config.num_payload_states]:
            mask = 0
            for idx in combo:
                mask |= 1 << self.payload_wires[idx]
            masks.append(mask)
        self.payload_masks = tuple(masks)

        self.kill_switch = False
        self._seen_target = False
        self.payload_index = 0
        # -- counters -----------------------------------------------------
        # (``repro.obs.collectors.collect_trojans`` scrapes them as
        # ``trojan_*`` series)
        self.flits_inspected = 0
        self.triggers = 0
        self.faults_injected = 0

    # -- control ----------------------------------------------------------
    def enable(self) -> None:
        """Assert the external kill switch (begin the attack)."""
        self.kill_switch = True

    def disable(self) -> None:
        """Deassert the kill switch; the trojan goes dormant."""
        self.kill_switch = False
        self._seen_target = False

    @property
    def state(self) -> TaspState:
        if not self.kill_switch:
            return TaspState.IDLE
        return TaspState.ATTACKING if self._seen_target else TaspState.ACTIVE

    # -- LinkTamperer -------------------------------------------------------
    def tamper(self, codeword: int, cycle: int) -> int:
        if not self.kill_switch:
            return codeword
        self.flits_inspected += 1
        # The comparator taps the wires carrying the header fields; we
        # model the tap by extracting the data image from the codeword.
        wire_image = self.codec.extract(codeword)
        if not self.target.matches(wire_image, self.layout):
            return codeword
        self._seen_target = True
        self.triggers += 1
        payload = self.payload_masks[self.payload_index]
        # Advance to the next payload state *after* injecting, holding
        # between triggers (Fig. 3: state held while target absent).
        self.payload_index = (self.payload_index + 1) % len(self.payload_masks)
        self.faults_injected += 1
        return codeword ^ payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaspTrojan(target={self.target.kind}, state={self.state.value}, "
            f"triggers={self.triggers})"
        )
