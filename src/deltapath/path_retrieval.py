"""Lazy end-to-end path materialization by next-hop pointer chasing.

Paths are never cached.  `retrieve` takes the view `established_rules()`
returns, reads the destination's row once, and `walk` follows the next
slots through its columns: per hop, one index into the next column and
one into the list of slots' nodes, with no lookup by node.  Waypoint segments, NOT paths and backup paths go
through the same walk: waypoints over the established rows, NOT and
backup over the row of a masked search.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CycleDetectedError, UnreachableError
from .graph_model import NodeId


class PathRequest(NamedTuple):
    flow_id: int
    src: NodeId
    dst: NodeId


class Path(NamedTuple):
    """A materialized route: node sequence plus the rule's cost."""

    hops: tuple[NodeId, ...]
    cost: float

    @property
    def length(self) -> int:
        return len(self.hops) - 1


def retrieve(view, s: NodeId, d: NodeId) -> Path:
    """`walk` from s over the row of d in a RuleStore's established view."""
    return walk(*view.row(d), s, d)


def walk(row, slot, ids, neg: bool, s: NodeId, d: NodeId) -> Path:
    """Chase next slots from s through the row of d, whose columns hold at
    each slot the signed cost, p_length and next slot of its node's rule,
    a negative next where it has none (`routing_core.Row`); `slot` maps a
    node to its slot and `ids` a slot to its node, and the cost is negated
    when `neg` (a maximizing strategy).  Raises UnreachableError when a
    node has no rule, and CycleDetectedError when the walk does not reach
    d in s's p_length hops, as a correct row does (so it is corrupted)."""
    cost, length, nxt = row
    try:
        i = slot[s]
        j = nxt[i]
    except (KeyError, IndexError):  # s has no slot, or d has no row
        j = -1
    if j < 0:
        raise UnreachableError(f"no rule for ({s}, {d})")
    hops = [s]
    node = s
    for _ in range(length[i]):
        node = ids[j]
        hops.append(node)
        if node == d:
            break
        j = nxt[j]
        if j < 0:
            raise UnreachableError(f"no rule for ({node}, {d}) while chasing ({s}, {d})")
    if node != d:
        raise CycleDetectedError(f"walk from ({s}, {d}) exceeded {len(hops) - 1} steps")
    return Path(tuple(hops), -cost[i] if neg else cost[i])


def path_links(p: Path) -> list[tuple[NodeId, NodeId]]:
    """The consecutive-hop pairs of a path; empty for a self path."""
    return list(zip(p.hops, p.hops[1:]))
