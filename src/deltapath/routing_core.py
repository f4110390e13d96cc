"""Incremental maintenance of all-pairs forwarding rules.

State is one "established" rule per (src, dst) group, stored as its
selection key (signed cost, p_length, next).  A group's candidates are
not stored: they are the join of the established rules with the graph
(for every edge x -> y, y's rule toward d extended by one hop) plus the
tautology (d, d) while d is a node, cut at p_length >= the node count:
best paths are simple, so the cut loses none of them.  At a fixpoint
every group holds the minimum of its candidates; `candidates` computes
the join so that checks can state this equation.

Every built-in strategy strictly worsens the key when it extends a path
(cost never improves, length grows), so the fixpoint is unique (Sobrinho,
IEEE/ACM ToN 2002) and an epoch's emitted batch, a diff of two fixpoints,
does not depend on how the fixpoint was reached.

The first fixpoint comes from one best-first search per destination
(`search`), which pops nodes in key order and settles each group once,
with the minimum of its neighbours' keys extended by one hop: the
fixpoint equation.  The same search with nodes or links masked evaluates
NOT and backup policies.

Rules toward different destinations never interact, and a destination's
rules form a tree over the next pointers, so an epoch repairs each
affected tree in two phases (Ramalingam and Reps, J. Algorithms 1996;
Frigioni, Marchetti-Spaccamela and Nanni, J. Algorithms 2000).  Phase 1
retires the groups of removed nodes and finds the rules that lost their
cost and length: a rule over a retracted edge is a suspect, and so is
every rule routing through a dropped one.  A suspect with another
neighbour that extends to the same cost and length only moves its next;
the others are dropped.  Phase 2 seeds one heap per destination with
each dropped node's best surviving neighbour, each added edge's offer and
each added node's tautology, and settles nodes in key order as the search
does.  Under shortest_widest a node that improves can make a child worse,
so a settled node's child whose rule gets worse is dropped with its
subtree and reseeded, and a heap entry whose neighbour key has changed
since it was pushed is skipped.  A custom path cost that can improve a
path by extending it raises NonConvergenceError, and the epoch is rolled
back.

An epoch applies its events to the graph one at a time, each against the
graph as the earlier ones left it, and then repairs the rules once, for
the net edge change.
"""

from __future__ import annotations

import heapq
import io
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Mapping, NamedTuple

from .errors import DeltaPathError, NonConvergenceError
from .graph_model import (
    AddNode,
    EdgeRecord,
    Epoch,
    GraphStore,
    NodeId,
    RemoveNode,
    TopologyEvent,
)
from .strategy import Strategy, path_cost_kind


class ForwardingRule(NamedTuple):
    """One per-hop routing entry; delta carries +-1 in emitted changes."""

    src: NodeId
    dst: NodeId
    next: NodeId
    p_cost: float
    p_length: int
    delta: int = 1


RuleDeltaBatch = list  # of ForwardingRule with delta in {-1, +1}

# Internal rule key: (signed_cost, p_length, next) so that plain tuple
# order is exactly the strategy's selection order (cost negated for
# maximizing strategies).


class EstablishedView(Mapping):
    """Read-only (src, dst) -> ForwardingRule view over a RuleStore.

    Stable between epochs; reads while an epoch is being stepped are
    undefined.
    """

    __slots__ = ("_store",)

    def __init__(self, store: RuleStore):
        self._store = store

    def __getitem__(self, pair) -> ForwardingRule:
        key = self._store._est[pair]
        cost = -key[0] if self._store.strategy.maximize else key[0]
        return ForwardingRule(pair[0], pair[1], key[2], cost, key[1], 1)

    def __contains__(self, pair) -> bool:
        return pair in self._store._est

    def __iter__(self):
        return iter(self._store._est)

    def __len__(self) -> int:
        return len(self._store._est)


@dataclass
class EpochStats:
    """What one `step_epoch` did: destinations whose repair had work,
    rules dropped for recomputation, heap entries popped and those skipped
    as stale, groups whose rule changed, and the `perf_counter_ns` spent
    ingesting events, invalidating, recomputing and diffing."""

    destinations_repaired: int = 0
    groups_invalidated: int = 0
    heap_pops: int = 0
    stale_pops: int = 0
    groups_changed: int = 0
    ingest_ns: int = 0
    invalidate_ns: int = 0
    recompute_ns: int = 0
    diff_ns: int = 0


class RuleStore:
    """The established best rule per (src, dst) group."""

    __slots__ = ("strategy", "epoch", "last_stats", "_est", "_neg", "_fp_kind")

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        self.epoch = -1
        self.last_stats: EpochStats | None = None
        self._neg = strategy.maximize
        self._fp_kind = path_cost_kind(strategy)
        # (src, dst) -> (signed_cost, length, next)
        self._est: dict[tuple[NodeId, NodeId], tuple] = {}

    # --- views

    def established_rules(self) -> EstablishedView:
        return EstablishedView(self)

    def rule_count(self) -> int:
        return len(self._est)

    # --- maintenance

    def check_integrity(self, graph: GraphStore) -> None:
        """Check the fixpoint equation on the graph: every group joins two
        nodes, and the established groups are exactly the groups of the
        candidate join, each holding its group's minimum."""
        join = candidates(self, graph)
        for s, d in self._est:
            assert s in graph.nodes and d in graph.nodes, f"({s}, {d}) names a removed node"
            assert (s, d) in join, f"established {(s, d)} has no candidates"
        for group, cands in join.items():
            key = self._est.get(group)
            assert key is not None, f"{group} has candidates but no rule"
            assert key == min(cands), f"stale selection for {group}"


def candidates(store: RuleStore, graph: GraphStore) -> dict[tuple, dict[tuple, int]]:
    """The candidate multiset of every group, derived rather than stored:
    one tautology per node plus the join of the established rules with the
    graph, cut at the node count.  Maps (src, dst) to {key: multiplicity},
    where parallel edges and equal derivations add up."""
    strategy = store.strategy
    horizon = len(graph.nodes)
    out = {(n, n): {_tautology_key(strategy, n): 1} for n in graph.nodes}
    for (s, d), rule in store.established_rules().items():
        for (x, w), mult in graph.out_edges(s).items():
            derived = derive(rule, EdgeRecord(s, x, w, 1), strategy, horizon)
            if derived is not None:
                group = out.setdefault((x, d), {})
                key = strategy.sort_key(derived)
                group[key] = group.get(key, 0) + mult
    return out


def derive(
    rule: ForwardingRule,
    edge: EdgeRecord,
    strategy: Strategy,
    horizon: int | None = None,
) -> ForwardingRule | None:
    """Join one rule with one edge sharing its src: the edge's far end
    learns a route to the rule's destination through the shared node.

    Returns None when the derivation is suppressed by the length horizon.
    """
    if rule.src != edge.src:
        raise DeltaPathError(
            f"join requires rule.src == edge.src, got {rule.src} vs {edge.src}"
        )
    length = rule.p_length + 1
    if horizon is not None and length >= horizon:
        return None
    return ForwardingRule(
        edge.dst,
        rule.dst,
        rule.src,
        strategy.path_cost(edge.w, rule.p_cost),
        length,
        edge.delta * rule.delta,
    )


def _tautology_key(strategy: Strategy, node: NodeId) -> tuple:
    cost = strategy.tautology_cost
    return (-cost if strategy.maximize else cost, 0, node)


def initialize(topology: GraphStore, strategy: Strategy) -> RuleStore:
    """Build the established rules of a topology snapshot with one `search`
    per destination: the fixpoint that `step_epoch` then maintains."""
    if not topology.nodes:
        raise DeltaPathError("cannot initialize on an empty topology")
    for (_s, _d, w), _m in topology.edge_items():
        strategy.validate_weight(w)
    store = RuleStore(strategy)
    est = store._est
    for d in topology.nodes:
        for x, key in search(topology, strategy, d).items():
            est[(x, d)] = key
    store.epoch = 0
    return store


def search(
    graph: GraphStore,
    strategy: Strategy,
    dst: NodeId,
    skip_nodes: frozenset[NodeId] = frozenset(),
    skip_links: frozenset[tuple[NodeId, NodeId]] = frozenset(),
) -> dict[NodeId, tuple]:
    """Every node's rule toward `dst` on the graph without `skip_nodes` and
    without the links `skip_links` (both directions, all parallel copies),
    as the engine's key: node -> (signed cost, length, next).

    One Dijkstra search from `dst` in key order.  The masks cost nothing
    when empty: masked nodes start out settled and only a link mask filters
    the adjacency.  A custom path cost that can improve a path by extending
    it raises NonConvergenceError, since the tree would then not be the
    engine's fixpoint.
    """
    if dst not in graph.nodes or dst in skip_nodes:
        return {}
    neg = strategy.maximize
    fp = strategy.path_cost
    kind = path_cost_kind(strategy)
    adj = graph.out_edges
    if skip_links:
        cut = set(skip_links) | {(b, a) for a, b in skip_links}

        def adj(u):
            return [(x, w) for x, w in graph.out_edges(u) if (u, x) not in cut]

    start = _tautology_key(strategy, dst)
    # a masked node is a settled placeholder, so no edge ever reaches it
    tree: dict[NodeId, tuple | None] = dict.fromkeys(skip_nodes)
    best = {dst: start}
    heap = [(start, dst)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        key, u = heappop(heap)
        if u in tree:
            continue
        tree[u] = key
        cost = -key[0] if neg else key[0]
        length = key[1] + 1
        # edge (u, x, w) lets x route through u, as in the engine's join
        for x, w in adj(u):
            if x in tree:
                continue
            if kind == "sum":
                c = w + cost
            elif kind == "hop":
                c = 1 + cost
            elif kind == "min":
                c = w if w < cost else cost
            else:
                c = fp(w, cost)
            cand = (-c if neg else c, length, u)
            old = best.get(x)
            if old is None or cand < old:
                best[x] = cand
                heappush(heap, (cand, x))
    for n in skip_nodes:
        del tree[n]
    if kind is None:
        _check_monotone(tree, adj, fp, neg)
    return tree


def _check_monotone(tree, adj, fp, neg):
    """Raise unless extending each settled key over each of its edges gives
    a key no smaller than the one extended."""
    for u, key in tree.items():
        cost = -key[0] if neg else key[0]
        for x, w in adj(u):
            if x not in tree:
                continue  # masked
            c = fp(w, cost)
            if (-c if neg else c) < key[0]:
                raise NonConvergenceError(
                    f"extending the rule of {u} over edge ({x}, {u}) improves "
                    f"it; strategy is not convergent"
                )


def step_epoch(
    store: RuleStore,
    graph: GraphStore,
    events: list[TopologyEvent] | Epoch,
    strategy: Strategy | None = None,
) -> RuleDeltaBatch:
    """Process one epoch's event batch to fixpoint; returns the net change
    to the established view, sorted, with delta -1 for retired rules and
    +1 for their replacements.  What the epoch did is left in
    `store.last_stats`.

    If an event, the edge update or the repair fails, the graph and the
    store are left as they were and the error propagates.
    """
    if isinstance(events, Epoch):
        events = events.events
    strategy = strategy or store.strategy
    if strategy is not store.strategy:
        raise DeltaPathError("step_epoch called with a different strategy")

    stats = EpochStats()
    t0 = perf_counter_ns()
    nodes = dict(graph.nodes)
    journal: dict[tuple[NodeId, NodeId], tuple | None] = {}
    applied: list[tuple[list[EdgeRecord], dict]] = []
    try:
        touched: set[NodeId] = set()
        net: dict[tuple[NodeId, NodeId, float], int] = {}
        # each event resolves against the graph as the earlier ones left it
        for ev in events:
            raw = graph.ingest_event(ev, strategy.link_cost)
            props = {(r.src, r.dst, r.w): graph.link_props(r.src, r.dst, r.w) for r in raw}
            done = graph.apply_deltas(raw)
            applied.append((done, props))
            for src, dst, w, delta, _p in done:
                net[(src, dst, w)] = net.get((src, dst, w), 0) + delta
            if isinstance(ev, (AddNode, RemoveNode)):
                touched.add(ev.id)
        delta_g = sorted(item for item in net.items() if item[1])
        t1 = perf_counter_ns()
        dropped = _invalidate(store, graph, nodes, delta_g, touched, journal)
        t2 = perf_counter_ns()
        born = {n for n in touched if n in graph.nodes}
        added = [edge for edge, delta in delta_g if delta > 0]
        # an added edge can improve a route toward any destination
        dests = graph.nodes if added else {d for d, xs in dropped.items() if xs} | born
        for d in dests:
            _repair(store, graph, d, dropped.get(d, ()), d in born, added,
                    journal, stats)
        t3 = perf_counter_ns()
    except BaseException:
        _restore(store, journal)
        for done, props in reversed(applied):
            graph.undo_deltas(done, props)
        graph.nodes.clear()
        graph.nodes.update(nodes)
        raise
    store.epoch += 1

    neg = store._neg
    batch: RuleDeltaBatch = []
    changed = 0
    for (s, d), old in journal.items():
        new = store._est.get((s, d))
        if old == new:
            continue
        changed += 1
        if old is not None:
            cost = -old[0] if neg else old[0]
            batch.append(ForwardingRule(s, d, old[2], cost, old[1], -1))
        if new is not None:
            cost = -new[0] if neg else new[0]
            batch.append(ForwardingRule(s, d, new[2], cost, new[1], 1))
    batch.sort()
    t4 = perf_counter_ns()
    stats.groups_changed = changed
    stats.groups_invalidated += sum(len(xs) for xs in dropped.values())
    stats.ingest_ns = t1 - t0
    stats.invalidate_ns = t2 - t1
    stats.recompute_ns = t3 - t2
    stats.diff_ns = t4 - t3
    store.last_stats = stats
    return batch


def established_rules(store: RuleStore) -> EstablishedView:
    return store.established_rules()


# --- repair ------------------------------------------------------------------


def _set(store, group, key, journal) -> None:
    """Write one group's rule (None retires it), journaling its first old
    value this epoch."""
    est = store._est
    if group not in journal:
        journal[group] = est.get(group)
    if key is None:
        est.pop(group, None)
    else:
        est[group] = key


def _restore(store, journal) -> None:
    """Put back every journaled group's old rule."""
    done: dict = {}
    for group, old in journal.items():
        _set(store, group, old, done)


def _drop_subtree(store, graph, d, stack, journal, settled):
    """Drop the rules toward d of the nodes on `stack` and of every node
    routing through them (z is a child of x when z's next is x), skipping
    settled nodes; returns the nodes dropped."""
    est = store._est
    adj = graph.out_edges
    out = []
    while stack:
        x = stack.pop()
        if (x, d) not in est:
            continue  # reached twice
        _set(store, (x, d), None, journal)
        out.append(x)
        for z, _w in adj(x):
            kz = est.get((z, d))
            if kz is not None and kz[2] == x and z not in settled:
                stack.append(z)
    return out


def _invalidate(store, graph, before, delta_g, touched, journal) -> dict[NodeId, list]:
    """Phase 1: retire the groups of removed nodes and of the nodes toward
    them (every group joins two nodes of `before`, the node table from
    before the epoch), then, per destination, drop the rules that lost
    their cost over a retracted edge.  Returns destination -> nodes
    dropped."""
    est = store._est
    for n in touched:
        if n in graph.nodes or n not in before:
            continue
        for x in before:
            if (n, x) in est:
                _set(store, (n, x), None, journal)
            if (x, n) in est:
                _set(store, (x, n), None, journal)
    roots: dict[NodeId, list] = {}
    for (y, x, _w), delta in delta_g:
        if delta < 0 and x in graph.nodes:
            for d in graph.nodes:
                key = est.get((x, d))
                if key is not None and key[2] == y:
                    roots.setdefault(d, []).append((key, x))
    return {d: _drop_affected(store, graph, d, heap, journal) for d, heap in roots.items()}


def _drop_affected(store, graph, d, suspects, journal) -> list[NodeId]:
    """Decide, in key order, which suspect nodes lose their (cost, length)
    toward d.  A node keeps them while some neighbour that keeps its rule
    extends to the same cost and length (a tight neighbour): then only its
    next moves, to the smallest such neighbour, and no rule routing through
    it changes.  A node without one is dropped and its children (z is a
    child of x when z's next is x) become suspects.  Keys grow along every
    path, so a node's tight neighbours are decided before it (Ramalingam
    and Reps, J. Algorithms 1996)."""
    est = store._est
    strategy = store.strategy
    neg = store._neg
    fp = strategy.path_cost
    adj = graph.out_edges
    heapq.heapify(suspects)
    decided: set[NodeId] = set()
    dropped: list[NodeId] = []
    while suspects:
        key, x = heapq.heappop(suspects)
        if x in decided:
            continue
        decided.add(x)
        length = key[1] - 1
        nxt = x if x == d and _tautology_key(strategy, x)[:2] == key[:2] else None
        for y, w in adj(x):
            ky = est.get((y, d))
            if ky is None or ky[1] != length or (nxt is not None and y >= nxt):
                continue
            c = fp(w, -ky[0] if neg else ky[0])
            if (-c if neg else c) == key[0]:
                nxt = y
        if nxt is not None:
            if nxt != key[2]:
                _set(store, (x, d), (key[0], key[1], nxt), journal)
            continue
        _set(store, (x, d), None, journal)
        dropped.append(x)
        for z, _w in adj(x):
            kz = est.get((z, d))
            if kz is not None and kz[2] == x:
                heapq.heappush(suspects, (kz, z))
    return dropped


def _repair(store, graph, d, dropped, born, added, journal, stats) -> None:
    """Phase 2 for one destination: seed a heap with the dropped nodes'
    best surviving neighbours, the offers of added edges and a new node's
    tautology, then settle nodes in key order as `search` does.

    A heap entry remembers the key of the neighbour it extends and is
    skipped (and its node reseeded) when that key has changed since.  A
    node that kept its rule and settles with a new key offers it to its
    neighbours; a child whose rule now extends to a worse key is dropped
    with its subtree and reseeded.
    """
    est = store._est
    strategy = store.strategy
    neg = store._neg
    kind = store._fp_kind
    fp = strategy.path_cost
    adj = graph.out_edges
    heap: list[tuple] = []
    best: dict[NodeId, tuple] = {}  # smallest key pending per node
    settled: set[NodeId] = set()
    heappop, heappush = heapq.heappop, heapq.heappush

    def offer(x, cand, via, vkey):
        b = best.get(x)
        if b is None or cand < b:
            best[x] = cand
            heappush(heap, (cand, x, via, vkey))

    def seed(x):
        top = _tautology_key(strategy, x) if x == d else None
        via = vkey = None
        for y, w in adj(x):
            ky = est.get((y, d))
            if ky is None:
                continue
            c = fp(w, -ky[0] if neg else ky[0])
            cand = (-c if neg else c, ky[1] + 1, y)
            if top is None or cand < top:
                top, via, vkey = cand, y, ky
        own = est.get((x, d))
        if top is not None and (own is None or top < own):
            offer(x, top, via, vkey)

    if born:
        seed(d)
    for x in dropped:
        seed(x)
    for y, x, w in added:
        ky = est.get((y, d))
        if ky is not None:
            c = fp(w, -ky[0] if neg else ky[0])
            cand = (-c if neg else c, ky[1] + 1, y)
            kx = est.get((x, d))
            if kx is None or cand < kx:
                offer(x, cand, y, ky)
    if not heap:
        return
    stats.destinations_repaired += 1
    pops = stale = 0
    while heap:
        key, x, via, vkey = heappop(heap)
        pops += 1
        if x in settled:
            continue
        if best.get(x) == key:
            del best[x]
        if via is not None and est.get((via, d)) != vkey:
            stale += 1
            seed(x)
            continue
        old = est.get((x, d))
        if old is not None and old <= key:
            continue
        settled.add(x)
        _set(store, (x, d), key, journal)
        cost = -key[0] if neg else key[0]
        length = key[1] + 1
        for z, w in adj(x):
            if z in settled:
                continue
            if kind == "sum":
                c = w + cost
            elif kind == "hop":
                c = 1 + cost
            elif kind == "min":
                c = w if w < cost else cost
            else:
                c = fp(w, cost)
            cand = (-c if neg else c, length, x)
            kz = est.get((z, d))
            if kz is None or cand < kz:
                b = best.get(z)
                if b is None or cand < b:
                    best[z] = cand
                    heappush(heap, (cand, z, x, key))
            elif kz[2] == x and cand != kz:
                # z's rule extended x's old key, which is gone
                redo = _drop_subtree(store, graph, d, [z], journal, settled)
                stats.groups_invalidated += len(redo)
                for u in redo:
                    seed(u)
    stats.heap_pops += pops
    stats.stale_pops += stale
    if kind is None:
        _check_monotone({u: est[(u, d)] for u in settled}, adj, fp, neg)


# --- serialization -----------------------------------------------------------


def rules_to_csv(epoch: int, batch: RuleDeltaBatch, header: bool = False) -> str:
    """Render an emitted change batch as CSV lines
    `epoch,src,dst,next,p_cost,p_length,delta`."""
    buf = io.StringIO()
    if header:
        buf.write("epoch,src,dst,next,p_cost,p_length,delta\n")
    for r in batch:
        buf.write(f"{epoch},{r.src},{r.dst},{r.next},{r.p_cost!r},{r.p_length},{r.delta}\n")
    return buf.getvalue()
