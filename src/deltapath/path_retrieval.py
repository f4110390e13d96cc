"""Lazy end-to-end path materialization by next-hop pointer chasing.

Paths are never cached.  `retrieve` takes the view `established_rules()`
returns, reads the destination's row once, and `walk` follows the next
pointers through it: per hop, one lookup of the next node's slot and one
index into the row.  Waypoint segments, NOT paths and backup paths go
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


def walk(row, slot, neg: bool, s: NodeId, d: NodeId) -> Path:
    """Chase next pointers from s through the row of d, a list holding at
    each node's slot its key (signed cost, p_length, next) or None, its
    cost negated when `neg` (a maximizing strategy).  Raises
    UnreachableError when a node's key is missing, and CycleDetectedError
    when the walk does not reach d in s's p_length hops, as a correct row
    does (so it is corrupted)."""
    try:
        key = row[slot[s]]
    except (KeyError, IndexError):  # s has no slot, or d has no row
        key = None
    if key is None:
        raise UnreachableError(f"no rule for ({s}, {d})")
    cost = -key[0] if neg else key[0]
    hops = [s]
    node = s
    for _ in range(key[1]):
        node = key[2]
        hops.append(node)
        if node == d:
            break
        key = row[slot[node]]
        if key is None:
            raise UnreachableError(f"no rule for ({node}, {d}) while chasing ({s}, {d})")
    if node != d:
        raise CycleDetectedError(f"walk from ({s}, {d}) exceeded {len(hops) - 1} steps")
    return Path(tuple(hops), cost)


def path_links(p: Path) -> list[tuple[NodeId, NodeId]]:
    """The consecutive-hop pairs of a path; empty for a self path."""
    return list(zip(p.hops, p.hops[1:]))
