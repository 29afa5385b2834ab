"""Synthetic traffic patterns.

The standard NoC evaluation patterns, used by unit tests and ablation
benches.  Each pattern maps a source core to a destination-selection
rule; :class:`SyntheticSource` turns one into a Bernoulli-injection
:class:`repro.noc.network.TrafficSource`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.noc.config import NoCConfig
from repro.noc.flit import Packet
from repro.noc.network import TrafficSource
from repro.util.rng import SeededStream

#: picks a destination core for a source core
PatternFn = Callable[[NoCConfig, int, SeededStream], int]


def uniform_random(cfg: NoCConfig, src: int, stream: SeededStream) -> int:
    dst = stream.randint(0, cfg.num_cores - 2)
    return dst if dst < src else dst + 1  # never self


def bit_complement(cfg: NoCConfig, src: int, stream: SeededStream) -> int:
    return (cfg.num_cores - 1) ^ src


def transpose(cfg: NoCConfig, src: int, stream: SeededStream) -> int:
    """Router-coordinate transpose; core index preserved within router."""
    router = cfg.router_of_core(src)
    x, y = cfg.router_xy(router)
    if cfg.mesh_width != cfg.mesh_height:
        raise ValueError("transpose needs a square mesh")
    dst_router = cfg.router_at(y, x)
    return cfg.core_of(dst_router, cfg.local_index(src))


def neighbor(cfg: NoCConfig, src: int, stream: SeededStream) -> int:
    """Next core (wraps around) — minimal-distance traffic."""
    return (src + 1) % cfg.num_cores


def hotspot(hotspot_cores: tuple[int, ...], fraction: float = 0.5) -> PatternFn:
    """A fraction of traffic goes to the given hotspot cores; the rest
    is uniform random."""
    if not hotspot_cores:
        raise ValueError("need at least one hotspot core")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")

    def pattern(cfg: NoCConfig, src: int, stream: SeededStream) -> int:
        if stream.chance(fraction):
            return stream.choice(hotspot_cores)
        return uniform_random(cfg, src, stream)

    return pattern


PATTERNS: dict[str, PatternFn] = {
    "uniform": uniform_random,
    "bit_complement": bit_complement,
    "transpose": transpose,
    "neighbor": neighbor,
}


@dataclass
class SyntheticConfig:
    """Bernoulli injection of ``pattern`` traffic."""

    #: packets per core per cycle (expected)
    injection_rate: float = 0.02
    #: payload words per packet (0 = single-flit packets)
    payload_words: int = 2
    #: stop generating after this cycle (None = run forever)
    duration: Optional[int] = None
    #: cap on generated packets (None = unlimited)
    max_packets: Optional[int] = None


class SyntheticSource(TrafficSource):
    """Bernoulli-injection synthetic traffic."""

    def __init__(
        self,
        cfg: NoCConfig,
        pattern: PatternFn,
        config: SyntheticConfig = SyntheticConfig(),
        seed: int = 0,
    ):
        self.cfg = cfg
        self.pattern = pattern
        self.config = config
        self.stream = SeededStream(seed, "synthetic")
        self._next_pkt_id = 0

    def generate(self, cycle: int) -> list[Packet]:
        config = self.config
        if config.duration is not None and cycle >= config.duration:
            return []
        if (
            config.max_packets is not None
            and self._next_pkt_id >= config.max_packets
        ):
            return []
        rate = config.injection_rate
        if rate <= 0.0:
            # SeededStream.chance draws nothing at rate 0, nor here
            return []
        cfg = self.cfg
        stream = self.stream
        # one uniform draw per core, exactly as stream.chance(rate)
        # makes them (none at rate 1), without a Python call per draw
        draw = None if rate >= 1.0 else stream.uniform_fn()
        out: list[Packet] = []
        for src in range(cfg.num_cores):
            if draw is not None and not draw() < rate:
                continue
            dst = self.pattern(cfg, src, stream)
            if dst == src:
                continue
            out.append(
                Packet(
                    pkt_id=self._next_pkt_id,
                    src_core=src,
                    dst_core=dst,
                    vc_class=stream.randint(0, cfg.num_vcs - 1),
                    mem_addr=stream.bits(32),
                    payload=[stream.bits(cfg.flit_bits)
                             for _ in range(config.payload_words)],
                    created_cycle=cycle,
                )
            )
            self._next_pkt_id += 1
            if (
                config.max_packets is not None
                and self._next_pkt_id >= config.max_packets
            ):
                break
        return out

    def done(self, cycle: int) -> bool:
        if (
            self.config.max_packets is not None
            and self._next_pkt_id >= self.config.max_packets
        ):
            return True
        return self.config.duration is not None and cycle >= self.config.duration

    @property
    def packets_generated(self) -> int:
        return self._next_pkt_id
