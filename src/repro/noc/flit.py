"""Packets, flits and the 64-bit wire image.

The head flit's wire image packs exactly the fields the paper's TASP
trojan inspects, with the paper's widths (§V-A: src 4, dest 4, VC 2,
mem 32 — the 42-bit "full" target window), plus flit type and packet id
in the remaining bits::

    bit  0..3   source router        (4)
    bit  4..7   destination router   (4)
    bit  8..9   virtual channel      (2)
    bit 10..41  memory address       (32)
    bit 42..43  flit type            (2)
    bit 44..63  packet id low bits   (20)

Body/tail flits carry raw 64-bit payload words; a trojan performing deep
packet inspection reads the *same wire positions* and may therefore
mis-trigger on payload data — the "masking an unintended target" risk
the paper discusses.

Meshes beyond the paper's 16 routers do not fit 4-bit router ids; for
those a :class:`HeaderLayout` is derived per configuration
(:func:`layout_for`) with router-id fields just wide enough for the
mesh, the memory address kept at 32 bits, and the packet-id field
absorbing whatever is left.  ``layout_for`` of any <= 16-router mesh
returns :data:`PAPER_LAYOUT` — the exact constants above — so every
paper-scale wire image is bit-identical to what this module always
produced.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from repro.noc.config import NoCConfig
from repro.util.bits import extract_field, insert_field, mask


class FlitType(enum.IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2
    #: single-flit packet: head and tail at once
    SINGLE = 3


# -- header field layout (bit offset, width) ---------------------------
SRC_FIELD = (0, 4)
DST_FIELD = (4, 4)
VC_FIELD = (8, 2)
MEM_FIELD = (10, 32)
TYPE_FIELD = (42, 2)
PID_FIELD = (44, 20)

#: offset/width of the paper's 42-bit "full" target window
FULL_WINDOW = (0, 42)
#: header half of the flit for L-Ob granularity purposes
HEADER_WINDOW = (0, 42)
#: payload half (type + pkt id bits for head flits; data for body flits)
PAYLOAD_WINDOW = (42, 22)


@dataclass(frozen=True)
class HeaderLayout:
    """Bit positions of every head-flit field on the wire.

    ``(offset, width)`` pairs, mirroring the module-level constants.
    ``full_window`` is the src+dst+vc+mem span the paper's "Full" TASP
    comparator taps; ``header_window``/``payload_window`` are the L-Ob
    granularity halves.
    """

    src: tuple[int, int]
    dst: tuple[int, int]
    vc: tuple[int, int]
    mem: tuple[int, int]
    ftype: tuple[int, int]
    pid: tuple[int, int]
    full_window: tuple[int, int]
    header_window: tuple[int, int]
    payload_window: tuple[int, int]


#: the paper's §V-A layout (4-bit router ids, <= 16 routers)
PAPER_LAYOUT = HeaderLayout(
    src=SRC_FIELD,
    dst=DST_FIELD,
    vc=VC_FIELD,
    mem=MEM_FIELD,
    ftype=TYPE_FIELD,
    pid=PID_FIELD,
    full_window=FULL_WINDOW,
    header_window=HEADER_WINDOW,
    payload_window=PAYLOAD_WINDOW,
)


@functools.lru_cache(maxsize=None)
def _layout(num_routers: int, flit_bits: int) -> HeaderLayout:
    if num_routers <= 16 and flit_bits == 64:
        return PAPER_LAYOUT
    rb = max(4, (num_routers - 1).bit_length())
    type_off = 2 * rb + 34
    pid_off = type_off + 2
    if pid_off >= flit_bits:
        raise ValueError(
            f"{num_routers} routers need {rb}-bit ids; the header does "
            f"not fit a {flit_bits}-bit flit"
        )
    return HeaderLayout(
        src=(0, rb),
        dst=(rb, rb),
        vc=(2 * rb, 2),
        mem=(2 * rb + 2, 32),
        ftype=(type_off, 2),
        pid=(pid_off, flit_bits - pid_off),
        full_window=(0, type_off),
        header_window=(0, type_off),
        payload_window=(type_off, flit_bits - type_off),
    )


def layout_for(cfg: "NoCConfig") -> HeaderLayout:
    """The header layout ``cfg``'s wire images use.

    :data:`PAPER_LAYOUT` for any mesh of at most 16 routers (keeping
    every published figure's wire traffic bit-identical); a widened
    layout with ``(num_routers-1).bit_length()``-bit router ids beyond.
    """
    return _layout(cfg.num_routers, cfg.flit_bits)


def pack_header(
    src_router: int,
    dst_router: int,
    vc_class: int,
    mem_addr: int,
    ftype: FlitType,
    pkt_id: int,
    layout: HeaderLayout = PAPER_LAYOUT,
) -> int:
    """Build a head flit's wire image (64-bit at paper scale)."""
    word = 0
    word = insert_field(word, *layout.src, src_router)
    word = insert_field(word, *layout.dst, dst_router)
    word = insert_field(word, *layout.vc, vc_class)
    word = insert_field(word, *layout.mem, mem_addr & mask(layout.mem[1]))
    word = insert_field(word, *layout.ftype, int(ftype))
    word = insert_field(word, *layout.pid, pkt_id & mask(layout.pid[1]))
    return word


def unpack_header(
    word: int, layout: HeaderLayout = PAPER_LAYOUT
) -> dict[str, int]:
    """Decode the head-flit fields out of a wire image."""
    return {
        "src_router": extract_field(word, *layout.src),
        "dst_router": extract_field(word, *layout.dst),
        "vc_class": extract_field(word, *layout.vc),
        "mem_addr": extract_field(word, *layout.mem),
        "ftype": extract_field(word, *layout.ftype),
        "pkt_id": extract_field(word, *layout.pid),
    }


class Flit:
    """One flow-control unit.

    ``data`` is the authoritative wire image: fault injection,
    obfuscation and ECC act on (the codeword of) this value, and silent
    data corruption propagates through it realistically.  The remaining
    attributes are simulator bookkeeping (hardware would reconstruct
    them from the wire or from per-VC state).
    """

    __slots__ = (
        "pkt_id",
        "src_core",
        "dst_core",
        "src_router",
        "dst_router",
        "vc_class",
        "mem_addr",
        "ftype",
        "seq",
        "num_flits",
        "data",
        "injected_cycle",
        "ejected_cycle",
        "hops",
        "retransmissions",
        "last_move_cycle",
        "domain",
        "is_head",
        "is_tail",
    )

    def __init__(
        self,
        pkt_id: int,
        src_core: int,
        dst_core: int,
        src_router: int,
        dst_router: int,
        vc_class: int,
        mem_addr: int,
        ftype: FlitType,
        seq: int,
        num_flits: int,
        data: int,
        domain: int = 0,
    ):
        self.pkt_id = pkt_id
        self.src_core = src_core
        self.dst_core = dst_core
        self.src_router = src_router
        self.dst_router = dst_router
        self.vc_class = vc_class
        self.mem_addr = mem_addr
        self.ftype = ftype
        self.seq = seq
        self.num_flits = num_flits
        self.data = data
        self.domain = domain
        self.injected_cycle = -1
        self.ejected_cycle = -1
        self.hops = 0
        self.retransmissions = 0
        self.last_move_cycle = -1
        #: fixed by ``ftype``, which nothing reassigns; plain slots
        #: because the router tests them on every flit it moves
        self.is_head = ftype in (FlitType.HEAD, FlitType.SINGLE)
        self.is_tail = ftype in (FlitType.TAIL, FlitType.SINGLE)

    @property
    def flow_signature(self) -> tuple[int, int, int]:
        """(src router, dst router, vc) — the granularity at which L-Ob
        logs which obfuscation method worked (paper §IV-B)."""
        return (self.src_router, self.dst_router, self.vc_class)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit(pkt={self.pkt_id}, {self.ftype.name}, seq={self.seq}, "
            f"{self.src_router}->{self.dst_router}, vc={self.vc_class})"
        )


@dataclass
class Packet:
    """A network packet, split into flits at injection.

    ``payload`` words fill the body/tail flits; a packet with no payload
    is a single head/tail flit (e.g. a read request).
    """

    pkt_id: int
    src_core: int
    dst_core: int
    vc_class: int = 0
    mem_addr: int = 0
    payload: list[int] = field(default_factory=list)
    created_cycle: int = 0
    domain: int = 0

    def num_flits(self) -> int:
        return 1 + len(self.payload)

    def build_flits(self, cfg: NoCConfig) -> list[Flit]:
        """Materialize the packet's flits (head first)."""
        if self.num_flits() > cfg.max_packet_flits:
            raise ValueError(
                f"packet of {self.num_flits()} flits exceeds "
                f"max_packet_flits={cfg.max_packet_flits}"
            )
        if not 0 <= self.vc_class < cfg.num_vcs:
            raise ValueError(f"vc_class {self.vc_class} out of range")
        src_router = cfg.router_of_core(self.src_core)
        dst_router = cfg.router_of_core(self.dst_core)
        total = self.num_flits()

        head_type = FlitType.SINGLE if total == 1 else FlitType.HEAD
        flits = [
            Flit(
                pkt_id=self.pkt_id,
                src_core=self.src_core,
                dst_core=self.dst_core,
                src_router=src_router,
                dst_router=dst_router,
                vc_class=self.vc_class,
                mem_addr=self.mem_addr,
                ftype=head_type,
                seq=0,
                num_flits=total,
                data=pack_header(
                    src_router,
                    dst_router,
                    self.vc_class,
                    self.mem_addr,
                    head_type,
                    self.pkt_id,
                    layout_for(cfg),
                ),
                domain=self.domain,
            )
        ]
        for i, word in enumerate(self.payload):
            ftype = FlitType.TAIL if i == len(self.payload) - 1 else FlitType.BODY
            flits.append(
                Flit(
                    pkt_id=self.pkt_id,
                    src_core=self.src_core,
                    dst_core=self.dst_core,
                    src_router=src_router,
                    dst_router=dst_router,
                    vc_class=self.vc_class,
                    mem_addr=self.mem_addr,
                    ftype=ftype,
                    seq=i + 1,
                    num_flits=total,
                    data=word & mask(cfg.flit_bits),
                    domain=self.domain,
                )
            )
        return flits
