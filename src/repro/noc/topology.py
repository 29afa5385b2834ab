"""Topology helpers: concentrated 2-D mesh, torus, and express channels.

The shape of the network is described by :class:`TopologySpec` (derived
from :class:`NoCConfig`).  Three kinds exist:

- ``mesh`` — the paper's planar concentrated 2-D mesh.
- ``torus`` — every row and column closes into a ring via wrap links.
  Deadlock freedom comes from a *dateline* VC discipline enforced at VC
  allocation (see :func:`dateline_high`), not from extra flit state.
- ``express`` — a mesh where every router additionally drives links
  spanning ``express_interval`` hops per direction (when the target is
  in-mesh).  Dimension-order routing over express links is monotone in
  each axis, so the mesh deadlock argument carries over unchanged.

All helpers below are wrap- and express-aware; on a plain mesh they
behave exactly as before the topology layer existed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.noc.config import NoCConfig


class Direction(enum.IntEnum):
    """Link directions; also the direction-port indices of a router.

    The first four members are the planar mesh directions; the
    ``EXPRESS_*`` members span ``cfg.express_interval`` hops and only
    materialize on express-channel configurations (:func:`neighbor`
    returns ``None`` for them otherwise, so mesh link enumeration is
    byte-identical to the pre-topology-layer order).
    """

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3
    EXPRESS_NORTH = 4
    EXPRESS_EAST = 5
    EXPRESS_SOUTH = 6
    EXPRESS_WEST = 7


OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.EXPRESS_NORTH: Direction.EXPRESS_SOUTH,
    Direction.EXPRESS_SOUTH: Direction.EXPRESS_NORTH,
    Direction.EXPRESS_EAST: Direction.EXPRESS_WEST,
    Direction.EXPRESS_WEST: Direction.EXPRESS_EAST,
}

#: (dx, dy) per *base* direction; y grows to the north.  Express
#: displacement depends on ``cfg.express_interval`` — use
#: :func:`step_delta`.
DELTA = {
    Direction.NORTH: (0, 1),
    Direction.EAST: (1, 0),
    Direction.SOUTH: (0, -1),
    Direction.WEST: (-1, 0),
}

BASE_DIRECTIONS = (
    Direction.NORTH,
    Direction.EAST,
    Direction.SOUTH,
    Direction.WEST,
)

#: express variant of each base direction (and back)
EXPRESS_OF = {
    Direction.NORTH: Direction.EXPRESS_NORTH,
    Direction.EAST: Direction.EXPRESS_EAST,
    Direction.SOUTH: Direction.EXPRESS_SOUTH,
    Direction.WEST: Direction.EXPRESS_WEST,
}
BASE_OF = {express: base for base, express in EXPRESS_OF.items()}

#: A unidirectional link is identified by its source router and the
#: direction it leaves through.
LinkKey = tuple[int, Direction]


def is_express(direction: Direction) -> bool:
    """True for the span-k express members of :class:`Direction`."""
    return direction >= Direction.EXPRESS_NORTH


def base_direction(direction: Direction) -> Direction:
    """The planar direction class of a link (express folds to base)."""
    return BASE_OF.get(direction, direction)


@dataclass(frozen=True)
class TopologySpec:
    """Resolved shape of the network graph."""

    kind: str  # "mesh" | "torus" | "express"
    width: int
    height: int
    express_interval: int = 0

    @property
    def wraps(self) -> bool:
        return self.kind == "torus"


def topology_spec(cfg: NoCConfig) -> TopologySpec:
    """The :class:`TopologySpec` a config resolves to."""
    if cfg.topology == "torus":
        kind = "torus"
    elif cfg.express_interval:
        kind = "express"
    else:
        kind = "mesh"
    return TopologySpec(
        kind, cfg.mesh_width, cfg.mesh_height, cfg.express_interval
    )


def step_delta(cfg: NoCConfig, direction: Direction) -> tuple[int, int]:
    """(dx, dy) displacement of one hop through ``direction``."""
    if is_express(direction):
        dx, dy = DELTA[BASE_OF[direction]]
        k = cfg.express_interval
        return dx * k, dy * k
    return DELTA[direction]


def neighbor(cfg: NoCConfig, router: int, direction: Direction) -> int | None:
    """Adjacent router in ``direction`` or ``None`` where no link exists.

    Torus wrap links connect the edges of every ring; express links
    exist only when the spanned target is in-mesh (they never wrap).
    """
    x, y = cfg.router_xy(router)
    dx, dy = step_delta(cfg, direction)
    if is_express(direction) and not cfg.express_interval:
        return None
    nx, ny = x + dx, y + dy
    if cfg.topology == "torus":
        return cfg.router_at(nx % cfg.mesh_width, ny % cfg.mesh_height)
    if 0 <= nx < cfg.mesh_width and 0 <= ny < cfg.mesh_height:
        return cfg.router_at(nx, ny)
    return None


def neighbors(cfg: NoCConfig, router: int) -> dict[Direction, int]:
    """All adjacent routers of ``router``."""
    out: dict[Direction, int] = {}
    for direction in Direction:
        n = neighbor(cfg, router, direction)
        if n is not None:
            out[direction] = n
    return out


def all_links(cfg: NoCConfig) -> list[LinkKey]:
    """Every unidirectional router-to-router link, in a canonical order.

    For the paper's 4x4 mesh this enumerates the 48 links an attacker
    could infect.  Wrap and express links slot into the same canonical
    (router ascending, direction ascending) order.
    """
    links: list[LinkKey] = []
    for router in range(cfg.num_routers):
        for direction in Direction:
            if neighbor(cfg, router, direction) is not None:
                links.append((router, direction))
    return links


def link_endpoints(cfg: NoCConfig, key: LinkKey) -> tuple[int, int]:
    """(source router, destination router) of a link."""
    src, direction = key
    dst = neighbor(cfg, src, direction)
    if dst is None:
        raise ValueError(f"{key} is not a valid link")
    return src, dst


# -- dimension-order stepping (shared by routing and path enumeration) --

def x_step(cfg: NoCConfig, cx: int, dx: int) -> Direction:
    """Next-hop direction to correct ``cx`` toward ``dx`` (cx != dx)."""
    if cfg.topology == "torus":
        width = cfg.mesh_width
        east = (dx - cx) % width
        west = (cx - dx) % width
        # shorter arc; ties break east — the choice re-derives
        # consistently at every position along the chosen arc
        return Direction.EAST if east <= west else Direction.WEST
    k = cfg.express_interval
    if dx > cx:
        return Direction.EXPRESS_EAST if k and dx - cx >= k else Direction.EAST
    return Direction.EXPRESS_WEST if k and cx - dx >= k else Direction.WEST


def y_step(cfg: NoCConfig, cy: int, dy: int) -> Direction:
    """Next-hop direction to correct ``cy`` toward ``dy`` (cy != dy)."""
    if cfg.topology == "torus":
        height = cfg.mesh_height
        north = (dy - cy) % height
        south = (cy - dy) % height
        return Direction.NORTH if north <= south else Direction.SOUTH
    k = cfg.express_interval
    if dy > cy:
        return (
            Direction.EXPRESS_NORTH if k and dy - cy >= k else Direction.NORTH
        )
    return Direction.EXPRESS_SOUTH if k and cy - dy >= k else Direction.SOUTH


def links_on_xy_path(cfg: NoCConfig, src: int, dst: int) -> list[LinkKey]:
    """The links an xy-routed packet traverses from ``src`` to ``dst``.

    Mirrors :func:`repro.noc.routing.xy_route` exactly, including torus
    arc choice and express-link usage.
    """
    path: list[LinkKey] = []
    cur = src
    cx, cy = cfg.router_xy(cur)
    dx, dy = cfg.router_xy(dst)
    while cx != dx:
        direction = x_step(cfg, cx, dx)
        path.append((cur, direction))
        cur = neighbor(cfg, cur, direction)
        cx, cy = cfg.router_xy(cur)
    while cy != dy:
        direction = y_step(cfg, cy, dy)
        path.append((cur, direction))
        cur = neighbor(cfg, cur, direction)
        cx, cy = cfg.router_xy(cur)
    return path


# -- torus dateline VC discipline --------------------------------------

def dateline_high(
    cfg: NoCConfig, router: int, src_router: int, direction: Direction
) -> bool:
    """Torus dateline class of the hop leaving ``router`` via ``direction``.

    ``True`` once the packet's traversal of that ring has crossed (or is
    about to cross) the ring's wrap edge.  Because dimension-order arc
    routing crosses each ring's wrap link at most once, the class is a
    pure function of the current position and the packet's source
    position — no flit state is needed:

    - EAST: high iff ``x == width-1`` (allocating the wrap hop) or
      ``x < sx`` (already wrapped; post-wrap positions are strictly
      below the source column since the arc is shorter than the ring).
    - WEST/NORTH/SOUTH: mirrored.

    VC allocation restricts torus packets to the low VC half before the
    dateline and the high half after it; each half's channel-dependency
    chain misses one ring link, so both halves are acyclic and the only
    inter-half edge (low -> high at the wrap) is one-directional.
    """
    if cfg.topology != "torus":
        return False
    x, y = cfg.router_xy(router)
    sx, sy = cfg.router_xy(src_router)
    if direction is Direction.EAST:
        return x == cfg.mesh_width - 1 or x < sx
    if direction is Direction.WEST:
        return x == 0 or x > sx
    if direction is Direction.NORTH:
        return y == cfg.mesh_height - 1 or y < sy
    if direction is Direction.SOUTH:
        return y == 0 or y > sy
    return False


# -- ring arc helpers (torus containment routing) ----------------------

def arc_sources(frm: int, to: int, size: int, positive: bool) -> list[int]:
    """Ring positions whose outgoing link the arc ``frm -> to`` uses.

    ``positive`` walks in increasing-coordinate direction (east/north),
    wrapping modulo ``size``; the result excludes ``to`` itself.
    """
    out: list[int] = []
    cur = frm
    while cur != to:
        out.append(cur)
        cur = (cur + 1) % size if positive else (cur - 1) % size
    return out
