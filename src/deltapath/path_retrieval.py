"""Lazy end-to-end path materialization by next-hop pointer chasing.

Paths are never cached: each request walks the established rules from the
source until a rule's next hop is the destination, which costs one keyed
lookup per hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CycleDetectedError, UnreachableError
from .graph_model import NodeId


class PathRequest(NamedTuple):
    flow_id: int
    src: NodeId
    dst: NodeId


@dataclass(frozen=True)
class Path:
    """A materialized route: node sequence plus the rule's cost/length."""

    hops: tuple[NodeId, ...]
    cost: float
    length: int

    def __post_init__(self):
        assert self.length == len(self.hops) - 1


def retrieve(view, s: NodeId, d: NodeId) -> Path:
    """Chase next pointers from (s, d) through the established view.

    Raises UnreachableError when some (x, d) lookup misses, and
    CycleDetectedError when the walk does not reach d in the first rule's
    p_length hops, as a correct view does (so the view is corrupted).
    """
    first = view.get((s, d))
    if first is None:
        raise UnreachableError(f"no rule for ({s}, {d})")
    if s == d:
        return Path((s,), first.p_cost, 0)
    limit = first.p_length
    hops = [s]
    node = s
    rule = first
    for _ in range(limit):
        nxt = rule.next
        hops.append(nxt)
        if nxt == d:
            return Path(tuple(hops), first.p_cost, len(hops) - 1)
        node = nxt
        rule = view.get((node, d))
        if rule is None:
            raise UnreachableError(f"no rule for ({node}, {d}) while chasing ({s}, {d})")
    raise CycleDetectedError(f"pointer chase from ({s}, {d}) exceeded {limit} steps")


def retrieve_batch(view, requests) -> list[Path]:
    """Serve a batch of PathRequests in order."""
    return [retrieve(view, r.src, r.dst) for r in requests]


def path_links(p: Path) -> list[tuple[NodeId, NodeId]]:
    """The consecutive-hop pairs of a path; empty for a self path."""
    return list(zip(p.hops, p.hops[1:]))
