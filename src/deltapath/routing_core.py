"""Incremental maintenance of all-pairs forwarding rules.

State is one "established" rule per (src, dst) group, stored as its
selection key (signed cost, p_length, next).  A group's candidates are
not stored: they are the join of the established rules with the graph
(for every edge x -> y, y's rule toward d extended by one hop) plus the
tautology (d, d) while d is a node, cut at p_length >= horizon.  At a
fixpoint every group holds the minimum of its candidates; `candidates`
computes the join so that checks can state this equation.

Every built-in strategy strictly worsens the key when it extends a path
(cost never improves, length grows), so the fixpoint is unique (Sobrinho,
IEEE/ACM ToN 2002) and an epoch's emitted batch, a diff of two fixpoints,
does not depend on how the fixpoint was reached.

Each epoch folds changes in synchronous rounds.  A rule change at (y, d)
offers its one-hop extension to the group (x, d) of every neighbour x and
tells that group that y's previous rule is gone; an added edge offers its
extensions and a retracted edge notifies the groups that routed over it.
A group whose winner came through a notifying neighbour is reselected
from its neighbours' current rules, deg(x) lookups, which is exact
because those extensions are all its candidates.  Any other group keeps
the better of its winner and the best offer: losing a candidate that
does not win cannot change the minimum.

The first fixpoint is built without rounds.  `initialize` runs one
best-first search per destination (`search`), which pops nodes in key
order and settles each group once, with the minimum of its neighbours'
keys extended by one hop: the fixpoint equation.  The fixpoint is unique,
so this is the one the rounds would reach, bit for bit, since both extend
a neighbour's key by the same arithmetic.  Its paths are simple, hence
shorter than the node count, so the horizon never cuts them.  The same
search with nodes or links masked evaluates NOT and backup policies.

Derivations stop at p_length >= horizon, where horizon is the largest
node count the store has ever seen.  Stale rules produced while a
retraction races around a cycle grow in length each round, so the cap
also bounds the rounds per epoch.  At a fixpoint every established path
is simple, hence shorter than the node count, so a derivation cut by an
older, smaller horizon revisits a node and never wins: a growing horizon
needs no replay.

An epoch's work is partitioned by rule src across `workers` logical
workers, with derived offers and notices routed to the owner of their new
src and delivered in synchronous rounds.  A reselect may read rules
changed earlier in the same round, which only changes the path to the
unique fixpoint, so output batches are identical for any worker count; a
single worker is simply the one-partition case.
"""

from __future__ import annotations

import heapq
import io
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

    @property
    def max_chain(self) -> int:
        """Upper bound on pointer-chase length (node-count horizon)."""
        return self._store.horizon


class RuleStore:
    """The established best rule per (src, dst) group, indexed by src."""

    __slots__ = (
        "strategy", "workers", "horizon", "epoch",
        "_est", "_by_src", "_neg", "_fp_kind",
    )

    def __init__(self, strategy: Strategy, workers: int = 1, horizon: int = 0):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.strategy = strategy
        self.workers = workers
        self.horizon = horizon
        self.epoch = -1
        self._neg = strategy.maximize
        self._fp_kind = path_cost_kind(strategy)
        # (src, dst) -> (signed_cost, length, next)
        self._est: dict[tuple[NodeId, NodeId], tuple] = {}
        self._by_src: dict[NodeId, dict[NodeId, tuple]] = {}

    # --- views

    def established_rules(self) -> EstablishedView:
        return EstablishedView(self)

    def rule_count(self) -> int:
        return len(self._est)

    # --- maintenance

    def check_integrity(self, graph: GraphStore | None = None) -> None:
        """Check the src index and, given the graph, the fixpoint equation:
        the established groups are exactly the groups of the candidate join,
        each holding its group's minimum."""
        for group, key in self._est.items():
            assert self._by_src[group[0]][group[1]] == key
        count = sum(len(d) for d in self._by_src.values())
        assert count == len(self._est), "by-src index out of sync"
        if graph is not None:
            join = candidates(self, graph)
            for group in self._est:
                assert group in join, f"established {group} has no candidates"
            for group, cands in join.items():
                key = self._est.get(group)
                assert key is not None, f"{group} has candidates but no rule"
                assert key == min(cands), f"stale selection for {group}"


def candidates(store: RuleStore, graph: GraphStore) -> dict[tuple, dict[tuple, int]]:
    """The candidate multiset of every group, derived rather than stored:
    one tautology per node plus the join of the established rules with the
    graph, cut at the horizon.  Maps (src, dst) to {key: multiplicity},
    where parallel edges and equal derivations add up."""
    strategy = store.strategy
    out = {(n, n): {_tautology_key(strategy, n): 1} for n in graph.nodes}
    for (s, d), rule in store.established_rules().items():
        for (x, w), mult in graph.out_edges(s).items():
            derived = derive(rule, EdgeRecord(s, x, w, 1), strategy, store.horizon)
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


def initialize(topology: GraphStore, strategy: Strategy, workers: int = 1) -> RuleStore:
    """Build the established rules of a topology snapshot with one `search`
    per destination; the result equals the round-based fixpoint."""
    if not topology.nodes:
        raise DeltaPathError("cannot initialize on an empty topology")
    for (_s, _d, w), _m in topology.edge_items():
        strategy.validate_weight(w)
    store = RuleStore(strategy, workers, horizon=len(topology.nodes))
    est = store._est
    rows = store._by_src
    rows.update((n, {}) for n in topology.nodes)
    for d in topology.nodes:
        for x, key in search(topology, strategy, d).items():
            est[(x, d)] = key
            rows[x][d] = key
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
    +1 for their replacements.

    If an event or the edge update fails, the graph and the store are left
    as they were and the error propagates.
    """
    if isinstance(events, Epoch):
        events = events.events
    strategy = strategy or store.strategy
    if strategy is not store.strategy:
        raise DeltaPathError("step_epoch called with a different strategy")

    raw: list[EdgeRecord] = []
    touched: set[NodeId] = set()
    nodes = dict(graph.nodes)
    try:
        for ev in events:
            raw.extend(graph.ingest_event(ev, strategy.link_cost))
            if isinstance(ev, (AddNode, RemoveNode)):
                touched.add(ev.id)
        delta_g = graph.apply_deltas(raw)
    except BaseException:
        # apply_deltas is atomic; only the node table needs restoring
        graph.nodes.clear()
        graph.nodes.update(nodes)
        raise
    store.horizon = max(store.horizon, len(graph.nodes))

    workers = store.workers
    pending: list[dict] = [dict() for _ in range(workers)]
    journal: dict[tuple, tuple | None] = {}

    # A node's tautology group is reselected; a live node offers it anew.
    for n in touched:
        offer = _tautology_key(strategy, n) if n in graph.nodes else None
        pending[n % workers][(n, n)] = [offer, {n}]

    # Edge deltas join the established view as of the epoch start.
    fp = strategy.path_cost
    neg = store._neg
    h = store.horizon
    by_src = store._by_src
    for rec in delta_g:
        inbox = pending[rec.dst % workers]
        if rec.delta < 0:
            for d, key in by_src.get(rec.dst, {}).items():
                if key[2] == rec.src:
                    _notify(inbox, (rec.dst, d), rec.src)
            continue
        for d, key in by_src.get(rec.src, {}).items():
            length = key[1] + 1
            if length >= h:
                continue
            cost = fp(rec.w, -key[0] if neg else key[0])
            _offer(inbox, (rec.dst, d), ((-cost if neg else cost), length, rec.src))

    _fixpoint(store, graph, pending, journal)
    store.epoch += 1

    batch: RuleDeltaBatch = []
    for (s, d), old in journal.items():
        new = store._est.get((s, d))
        if old == new:
            continue
        if old is not None:
            cost = -old[0] if neg else old[0]
            batch.append(ForwardingRule(s, d, old[2], cost, old[1], -1))
        if new is not None:
            cost = -new[0] if neg else new[0]
            batch.append(ForwardingRule(s, d, new[2], cost, new[1], 1))
    batch.sort()
    return batch


def established_rules(store: RuleStore) -> EstablishedView:
    return store.established_rules()


# --- fixpoint machinery ------------------------------------------------------
#
# A pending entry is [best offered key or None, set of neighbours whose
# rule changed away or whose edge was retracted, or None].


def _offer(inbox, group, key):
    entry = inbox.get(group)
    if entry is None:
        inbox[group] = [key, None]
    elif entry[0] is None or key < entry[0]:
        entry[0] = key


def _notify(inbox, group, via):
    entry = inbox.get(group)
    if entry is None:
        inbox[group] = [None, {via}]
    elif entry[1] is None:
        entry[1] = {via}
    else:
        entry[1].add(via)


def _fixpoint(store, graph, pending, journal):
    workers = store.workers
    rounds = 0
    # A stale rule racing a retraction around a cycle gains one hop per
    # round until the horizon cuts it, and the replacements then spread in
    # at most horizon more rounds; a strategy that can improve a path by
    # extending it may never quiesce at all.
    bound = 2 * store.horizon + 4
    while any(pending):
        rounds += 1
        if rounds > bound:
            raise NonConvergenceError(
                f"no fixpoint after {rounds - 1} rounds "
                f"(horizon {store.horizon}); strategy is not convergent"
            )
        nxt: list[dict] = [dict() for _ in range(workers)]
        for w in range(workers):
            inbox = pending[w]
            if inbox:
                changes = _fold(store, graph, inbox, journal)
                if changes:
                    _derive_changes(store, graph, changes, nxt)
        pending = nxt


def _fold(store, graph, inbox, journal):
    """Settle each touched group's establishment: reselect it when its
    winner came through a notifying neighbour, else keep the better of the
    winner and the best offer."""
    est = store._est
    by_src = store._by_src
    changes = []
    for group, (offer, gone) in inbox.items():
        old = est.get(group)
        if old is not None and gone is not None and old[2] in gone:
            best = _reselect(store, graph, group)
        elif offer is not None and (old is None or offer < old):
            best = offer
        else:
            continue
        if best == old:
            continue
        if group not in journal:
            journal[group] = old
        s, d = group
        if best is None:
            del est[group]
            row = by_src[s]
            del row[d]
            if not row:
                del by_src[s]
        else:
            est[group] = best
            by_src.setdefault(s, {})[d] = best
        changes.append((group, old, best))
    return changes


def _reselect(store, graph, group):
    """The minimum of one group's candidates: each neighbour's established
    rule extended by one hop, cut at the horizon, plus the tautology."""
    x, d = group
    strategy = store.strategy
    fp = strategy.path_cost
    neg = store._neg
    h = store.horizon
    est = store._est
    best = _tautology_key(strategy, x) if x == d and x in graph.nodes else None
    for y, w in graph.out_edges(x):
        key = est.get((y, d))
        if key is None or key[1] + 1 >= h:
            continue
        cost = fp(w, -key[0] if neg else key[0])
        cand = ((-cost if neg else cost), key[1] + 1, y)
        if best is None or cand < best:
            best = cand
    return best


def _derive_changes(store, graph, changes, out):
    """Join establishment changes against the full graph: each neighbour's
    group gets a notice that the old rule is gone and an offer of the new
    one, routed to the owner of its src."""
    fp = store.strategy.path_cost
    kind = store._fp_kind
    neg = store._neg
    h = store.horizon
    workers = store.workers
    single = out[0] if workers == 1 else None
    adj_get = graph.out_edges
    for (s, d), old, new in changes:
        edges = adj_get(s)
        if not edges:
            continue
        new_len = new[1] + 1 if new is not None and new[1] + 1 < h else None
        if old is None and new_len is None:
            continue
        new_cost = (-new[0] if neg else new[0]) if new_len is not None else None
        for x, w in edges:
            inbox = single if single is not None else out[x % workers]
            group = (x, d)
            if old is not None:
                _notify(inbox, group, s)
            if new_len is not None:
                if kind == "sum":
                    c2 = w + new_cost
                elif kind == "hop":
                    c2 = 1 + new_cost
                elif kind == "min":
                    c2 = w if w < new_cost else new_cost
                else:
                    c2 = fp(w, new_cost)
                _offer(inbox, group, ((-c2 if neg else c2), new_len, s))


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
