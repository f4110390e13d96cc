"""Waypoint, NOT-constraint, and backup-path policies.

Waypoint policies decompose into segment retrievals over the base rules.
NOT and backup policies route on the live graph with nodes (NOT) or the
primary path's links (backup) masked, by `routing_core.search`: the
engine's own repair run from an empty tree toward the policy's
destination, stopped once the policy's source settles, into a row over
the rule store's slots, and the path is read off that row by
`path_retrieval.walk`, the walk that `retrieve` runs over an
established row.  The search uses the
engine's selection key and cost order, so the source's path equals the
engine's fixpoint on the masked graph bit for bit: extending a path
never improves its key (Sobrinho, "Algebra and algorithms for QoS path
computation", IEEE/ACM ToN 2002), and the repair refuses a custom
strategy for which it does, after settling the whole tree.  No policy
keeps state between epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import (
    NoBackupError,
    PolicySyntaxError,
    UnknownNodeError,
    UnreachableError,
)
from .graph_model import GraphStore, NodeId
from .path_retrieval import Path, path_links, retrieve, walk
from .routing_core import RuleStore, search
from .strategy import Strategy, path_cost_kind


@dataclass(frozen=True)
class Waypoints:
    nodes: tuple[NodeId, ...]


@dataclass(frozen=True)
class NotNodes:
    nodes: frozenset[NodeId]


class PathRule(str, Enum):
    BACKUP = "backup"
    TWO_WAY = "2way"
    REDUNDANT = "redundant"


PolicyBody = Union[Waypoints, NotNodes, PathRule]


@dataclass(frozen=True)
class Policy:
    id: int
    src: NodeId
    dst: NodeId
    body: PolicyBody


@dataclass
class PolicyResult:
    policy: Policy
    paths: tuple[Path, ...]
    kind: str
    revisits: bool = False


def parse_policy(policy_id: int, text: str) -> Policy:
    """Parse `S : constraints : T`.

    Constraints are waypoint node ids in visit order, `!`-prefixed ids to
    avoid, or one of the path keywords backup / 2way / redundant.  An empty
    constraint section degenerates to a plain path request.
    """
    parts = [p.strip() for p in text.split(":")]
    if len(parts) < 2:
        raise PolicySyntaxError(f"expected `S : constraints : T`, got {text!r}")
    try:
        src = int(parts[0])
        dst = int(parts[-1])
    except ValueError:
        raise PolicySyntaxError(f"origin/target must be node ids in {text!r}") from None
    tokens = [tok for part in parts[1:-1] for tok in part.split()]
    if not tokens:
        return Policy(policy_id, src, dst, Waypoints(()))
    if len(tokens) == 1 and tokens[0] in PathRule._value2member_map_:
        return Policy(policy_id, src, dst, PathRule(tokens[0]))
    negated = [tok.startswith("!") for tok in tokens]
    if all(negated):
        try:
            nodes = frozenset(int(tok[1:]) for tok in tokens)
        except ValueError:
            raise PolicySyntaxError(f"bad NOT constraint in {text!r}") from None
        if src in nodes or dst in nodes:
            raise PolicySyntaxError("cannot exclude the policy's own endpoints")
        return Policy(policy_id, src, dst, NotNodes(nodes))
    if any(negated):
        raise PolicySyntaxError(f"cannot mix waypoints and NOT constraints in {text!r}")
    try:
        nodes = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise PolicySyntaxError(f"bad waypoint in {text!r}") from None
    return Policy(policy_id, src, dst, Waypoints(nodes))


class PolicyEngine:
    """Evaluates policies against a base engine's graph and rule store.
    NOT and backup searches write their rows over the store's slots, the
    one node index, so the slots must cover the graph, as `initialize`
    and `step_epoch` keep them."""

    def __init__(self, graph: GraphStore, rules: RuleStore, strategy: Strategy):
        self.graph = graph
        self.rules = rules
        self.strategy = strategy
        self.policies: dict[int, Policy] = {}

    # --- lifecycle

    def add(self, policy: Policy) -> None:
        nodes = {policy.src, policy.dst}
        if isinstance(policy.body, Waypoints):
            nodes.update(policy.body.nodes)
        elif isinstance(policy.body, NotNodes):
            nodes.update(policy.body.nodes)
        for n in nodes:
            if n not in self.graph.nodes:
                raise UnknownNodeError(f"policy {policy.id} references unknown node {n}")
        self.policies[policy.id] = policy

    def remove(self, policy_id: int) -> None:
        self.policies.pop(policy_id, None)

    # --- evaluation

    def evaluate(self, policy: Policy | int) -> PolicyResult:
        if isinstance(policy, int):
            policy = self.policies[policy]
        body = policy.body
        if isinstance(body, Waypoints):
            return self.eval_waypoints(policy)
        if isinstance(body, NotNodes):
            return self.eval_not(policy)
        return self.eval_backup(policy)

    def eval_waypoints(self, policy: Policy) -> PolicyResult:
        """One retrieval per segment over the base rules, concatenated;
        revisited nodes are flagged, not rejected.

        The segments' costs combine by sum or min when the path cost is
        built in and the tautology is its identity (0, or inf for the
        width).  Otherwise the path cost is folded from the tautology over
        the joined hops, from the last back, each hop over its best
        parallel link, as the engine extends a rule."""
        stops = (policy.src, *policy.body.nodes, policy.dst)
        view = self.rules.established_rules()
        segments = [retrieve(view, a, b) for a, b in zip(stops, stops[1:])]
        hops = list(segments[0].hops)
        for seg in segments[1:]:
            hops.extend(seg.hops[1:])
        strategy = self.strategy
        kind = path_cost_kind(strategy)
        if strategy.tautology_cost == {"sum": 0, "min": math.inf}.get(kind):
            costs = [seg.cost for seg in segments]
            cost = sum(costs) if kind == "sum" else min(costs)
        else:
            fp, best = strategy.path_cost, max if strategy.maximize else min
            cost = strategy.tautology_cost
            for a, b in reversed(list(zip(hops, hops[1:]))):
                cost = best(fp(w, cost) for w in self.graph.weights_between(a, b))
        return PolicyResult(
            policy, (Path(tuple(hops), cost),), "waypoint",
            revisits=len(set(hops)) != len(hops),
        )

    def eval_not(self, policy: Policy) -> PolicyResult:
        """The route on the live graph with the policy's nodes masked."""
        path = self._masked_path(policy, skip_nodes=policy.body.nodes)
        return PolicyResult(policy, (path,), "not")

    def eval_backup(self, policy: Policy) -> PolicyResult:
        """Primary from the base rules, backup on the live graph with both
        directions of every primary link masked; the pair is link-disjoint."""
        primary = retrieve(self.rules.established_rules(), policy.src, policy.dst)
        try:
            backup = self._masked_path(policy, skip_links=frozenset(path_links(primary)))
        except UnreachableError:
            raise NoBackupError(
                f"no link-disjoint backup for ({policy.src}, {policy.dst})"
            ) from None
        kind = {
            PathRule.BACKUP: "failover",
            PathRule.TWO_WAY: "split",
            PathRule.REDUNDANT: "duplicate",
        }[policy.body]
        return PolicyResult(policy, (primary, backup), kind)

    def _masked_path(self, policy: Policy, **mask) -> Path:
        """`walk` from the policy's src through the masked search's row,
        over the rule store's slots; a search stopped at the src holds
        every rule on its path."""
        rules = self.rules
        row = search(rules, self.graph, policy.dst, until=policy.src, **mask)
        return walk(row, rules.slot, rules.ids, self.strategy.maximize, policy.src, policy.dst)
