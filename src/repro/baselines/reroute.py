"""Ariadne-style rerouting baseline (Fig. 10 comparison).

When a link is condemned (permanent fault — or, in this baseline's
policy, a detected trojan), traffic is routed around it.  We implement
the classic **up*/down*** routing reconfiguration Ariadne distributes
after a failure: build a BFS spanning tree of the surviving topology,
orient every edge "up" toward the root, and allow only paths consisting
of zero or more up-links followed by zero or more down-links — a
turn-restriction that is deadlock-free with wormhole flow control.

The cost the paper highlights: every avoided link adds hops and removes
path diversity, so performance falls off quickly as the infected-link
percentage grows — which is exactly what Fig. 10 compares against
continuing to use infected links under L-Ob.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.noc.config import NoCConfig
from repro.noc.network import Network
from repro.noc.routing import TableRouting
from repro.noc.topology import Direction, LinkKey, neighbor, neighbors


class UnroutableError(RuntimeError):
    """The surviving topology cannot connect all routers."""


def _bfs_levels(
    cfg: NoCConfig, blocked: set[LinkKey], root: int = 0
) -> dict[int, int]:
    """BFS levels over routers, using only links usable in *either*
    direction (the spanning tree is undirected)."""
    levels = {root: 0}
    frontier = deque([root])
    while frontier:
        cur = frontier.popleft()
        for direction, nxt in neighbors(cfg, cur).items():
            if nxt in levels:
                continue
            # an undirected edge survives if at least one direction does
            fwd = (cur, direction) not in blocked
            rev = (nxt, _opposite(direction)) not in blocked
            if fwd or rev:
                levels[nxt] = levels[cur] + 1
                frontier.append(nxt)
    return levels


def _opposite(direction: Direction) -> Direction:
    from repro.noc.topology import OPPOSITE

    return OPPOSITE[direction]


def _is_up_move(levels: dict[int, int], src: int, dst: int) -> bool:
    """Moving src->dst is an "up" move if dst is closer to the root
    (ties broken by id, the standard up*/down* convention)."""
    return (levels[dst], dst) < (levels[src], src)


def updown_table(
    cfg: NoCConfig,
    disabled: Iterable[LinkKey] = (),
    root: int = 0,
) -> TableRouting:
    """Compute a complete up*/down* next-hop table avoiding ``disabled``
    directed links.

    Raises :class:`UnroutableError` when some pair has no legal path
    (e.g. the failures disconnect the mesh).

    A link condemned in one direction is avoided in *both*: up*/down*'s
    deadlock argument assumes bidirectional channels, and a
    reconfiguration that disables whole links is what Ariadne-class
    schemes distribute.
    """
    blocked: set[LinkKey] = set()
    for src, direction in disabled:
        blocked.add((src, direction))
        dst = neighbor(cfg, src, direction)
        if dst is not None:
            blocked.add((dst, _opposite(direction)))
    levels = _bfs_levels(cfg, blocked, root)
    if len(levels) != cfg.num_routers:
        missing = set(range(cfg.num_routers)) - set(levels)
        raise UnroutableError(f"routers unreachable from root: {missing}")

    # State graph: (router, still_going_up).  An up-move keeps phase;
    # a down-move flips to the down phase; down->up is illegal.
    adjacency = [neighbors(cfg, r) for r in range(cfg.num_routers)]
    table: dict[tuple[int, int], Direction] = {}
    for dst in range(cfg.num_routers):
        # Backward BFS from dst over the state graph to find, for every
        # (router, phase=up) start, the first hop of a shortest legal
        # path.  We search forward from each source instead for clarity;
        # the meshes are small (<= 16 routers).
        for src in range(cfg.num_routers):
            if src == dst:
                continue
            first = _first_hop(adjacency, blocked, levels, src, dst)
            if first is None:
                raise UnroutableError(
                    f"no up*/down* path from {src} to {dst}"
                )
            table[(src, dst)] = first
    return TableRouting(cfg, table)


def _first_hop(
    adjacency: list[dict[Direction, int]],
    blocked: set[LinkKey],
    levels: dict[int, int],
    src: int,
    dst: int,
) -> Optional[Direction]:
    start = (src, True)
    parents: dict[tuple[int, bool], tuple[tuple[int, bool], Direction]] = {}
    seen = {start}
    frontier = deque([start])
    goal: Optional[tuple[int, bool]] = None
    while frontier:
        state = frontier.popleft()
        node, going_up = state
        if node == dst:
            goal = state
            break
        for direction, nxt in adjacency[node].items():
            if (node, direction) in blocked:
                continue
            up_move = _is_up_move(levels, node, nxt)
            if up_move and not going_up:
                continue  # down -> up turn forbidden
            nxt_state = (nxt, going_up and up_move)
            if nxt_state in seen:
                continue
            seen.add(nxt_state)
            parents[nxt_state] = (state, direction)
            frontier.append(nxt_state)
    if goal is None:
        return None
    # Walk back to the first hop.
    state = goal
    direction = None
    while state != start:
        state, direction = parents[state]
    return direction


def apply_rerouting(
    network: Network, infected: Iterable[LinkKey], root: int = 0
) -> TableRouting:
    """Install the Ariadne baseline on a network: disable the infected
    links and reprogram every router with the up*/down* table."""
    infected = list(infected)
    table = updown_table(network.cfg, infected, root)
    disabled: set[LinkKey] = set()
    for src, direction in infected:
        disabled.add((src, direction))
        dst = neighbor(network.cfg, src, direction)
        if dst is not None:
            disabled.add((dst, _opposite(direction)))
    for key in disabled:
        network.disable_link(key)
    network.set_route_fn(table.route)
    network.routing_table = table
    return table
