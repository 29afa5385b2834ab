"""Torus clear-arc routing for containment.

On a torus every row and column is a ring, so each dimension offers
*two* arcs to the destination coordinate.  The containment reroute
model for tori exploits exactly that redundancy: route dimension-order
(x then y) but, per dimension, take the shorter arc unless it crosses
an avoided (condemned/quarantined) link, in which case take the other
arc when it is clear.  When both arcs are blocked the short arc is
taken anyway — steering into a draining avoided link feeds the
watchdog's drop-and-resubmit path, the same belt-and-braces fallback
the mesh turn models use (:class:`repro.noc.adaptive.AdaptiveRouting`).

Deadlock freedom: the choice is still strict dimension order, and the
dateline VC discipline (:func:`repro.noc.topology.dateline_high`) is a
pure position function, so it applies to long arcs exactly as to short
ones — each ring direction's channel-dependency chain misses one link
per VC class and stays acyclic.

Arc-choice consistency: the decision re-derives at every hop, and it is
stable along the chosen arc — moving along a clear arc keeps its
remaining suffix clear, while the rejected arc only *grows* (it must
come back through the positions already passed), so it stays rejected.
A packet therefore never ping-pongs between arcs while the avoid set is
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.noc.config import NoCConfig
from repro.noc.topology import Direction, LinkKey, arc_sources


class TorusArcRouting:
    """Clear-arc dimension-order routing, usable as a ``route_fn``.

    Picklable (plain attributes only), like every other route function:
    checkpoints serialize live networks holding their route callable.
    """

    __slots__ = ("cfg", "avoid")

    #: reroute-model name, mirroring ``AdaptiveRouting.model``
    model = "torus-arc"

    def __init__(self, cfg: NoCConfig, avoid: Iterable[LinkKey] = ()):
        if cfg.topology != "torus":
            raise ValueError("TorusArcRouting requires a torus topology")
        self.cfg = cfg
        #: links removed from arc choice (condemned/quarantined)
        self.avoid: frozenset[LinkKey] = frozenset(avoid)

    # -- per-dimension arc choice --------------------------------------
    def _x_choice(self, cx: int, cy: int, dx: int) -> Direction:
        width = self.cfg.mesh_width
        east = (dx - cx) % width
        west = (cx - dx) % width
        short = Direction.EAST if east <= west else Direction.WEST
        if not self.avoid:
            return short
        other = (
            Direction.WEST if short is Direction.EAST else Direction.EAST
        )
        if self._x_arc_clear(cx, cy, dx, short):
            return short
        if self._x_arc_clear(cx, cy, dx, other):
            return other
        return short  # both blocked: drain into the watchdog drop path

    def _y_choice(self, cx: int, cy: int, dy: int) -> Direction:
        height = self.cfg.mesh_height
        north = (dy - cy) % height
        south = (cy - dy) % height
        short = Direction.NORTH if north <= south else Direction.SOUTH
        if not self.avoid:
            return short
        other = (
            Direction.SOUTH if short is Direction.NORTH else Direction.NORTH
        )
        if self._y_arc_clear(cx, cy, dy, short):
            return short
        if self._y_arc_clear(cx, cy, dy, other):
            return other
        return short

    def _x_arc_clear(
        self, cx: int, cy: int, dx: int, direction: Direction
    ) -> bool:
        positive = direction is Direction.EAST
        for x in arc_sources(cx, dx, self.cfg.mesh_width, positive):
            if (self.cfg.router_at(x, cy), direction) in self.avoid:
                return False
        return True

    def _y_arc_clear(
        self, cx: int, cy: int, dy: int, direction: Direction
    ) -> bool:
        positive = direction is Direction.NORTH
        for y in arc_sources(cy, dy, self.cfg.mesh_height, positive):
            if (self.cfg.router_at(cx, y), direction) in self.avoid:
                return False
        return True

    # -- route_fn interface --------------------------------------------
    def route(
        self,
        cur: int,
        dst: int,
        src: Optional[int] = None,
        router=None,
    ) -> Optional[Direction]:
        if cur == dst:
            return None
        cx, cy = self.cfg.router_xy(cur)
        dx, dy = self.cfg.router_xy(dst)
        if cx != dx:
            return self._x_choice(cx, cy, dx)
        return self._y_choice(cx, cy, dy)


def torus_connected(cfg: NoCConfig, avoid: Iterable[LinkKey]) -> bool:
    """True iff clear-arc routing reaches every dst from every src with
    the ``avoid`` links removed.

    The admission analogue of
    :func:`repro.noc.adaptive.turn_model_connected` for tori: a pair is
    routable iff some x-arc in the source row is clear *and* some y-arc
    in the destination column is clear (routing is strict dimension
    order, so those are exactly the arcs a packet can use).  Every
    (from, to) position pair of every row occurs as the x-leg of some
    pair, and likewise for every column, so the answer is whether each
    ring can join every two of its positions; a ring holding no avoided
    link always can, and only the others are checked.
    """
    # avoided ring positions per ring, in its positive and negative
    # direction: rows carry the x-arcs, columns the y-arcs
    rings: dict[tuple[str, int], tuple[set[int], set[int]]] = {}
    for router, direction in frozenset(avoid):
        x, y = cfg.router_xy(router)
        if direction is Direction.EAST or direction is Direction.WEST:
            positive, negative = rings.setdefault(("row", y), (set(), set()))
            (positive if direction is Direction.EAST else negative).add(x)
        elif direction is Direction.NORTH or direction is Direction.SOUTH:
            positive, negative = rings.setdefault(("col", x), (set(), set()))
            (positive if direction is Direction.NORTH else negative).add(y)

    def arc_clear(frm, to, size, blocked, positive):
        return not any(
            p in blocked for p in arc_sources(frm, to, size, positive)
        )

    for (kind, _index), (positive, negative) in rings.items():
        size = cfg.mesh_width if kind == "row" else cfg.mesh_height
        for frm in range(size):
            for to in range(size):
                if frm != to and not (
                    arc_clear(frm, to, size, positive, True)
                    or arc_clear(frm, to, size, negative, False)
                ):
                    return False
    return True
