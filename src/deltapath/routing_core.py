"""Incremental maintenance of all-pairs forwarding rules.

State is a delta multiset of candidate rules grouped by (src, dst), plus
the "established" selection-best rule per group.  Each epoch's edge deltas
join the established view on src; the resulting rule deltas fold into the
candidates; changes of establishment join the full graph again, and so on
to a fixpoint.  Only establishment changes re-enter the loop, which keeps
the candidate space at one entry per (src, dst, next, p_cost, p_length)
instead of one per path.

Two details make retraction cascades exact and finite:

* a rule delta retracting an establishment replays the very same join its
  establishment performed, so candidate multiplicities cancel to zero and
  are garbage-collected eagerly;
* derivations stop at p_length >= horizon, where horizon is the largest
  node count the store has ever seen.  Stale rules produced while a
  retraction races around a cycle grow in length each round, so the cap
  also bounds the rounds per epoch.  When the horizon grows (nodes were
  added), the previously cut-off derivation fringe is replayed once so
  that later retractions still cancel exactly.

Work is partitioned by rule src across `workers` logical workers, with
derived deltas routed to the owner of their new src and delivered in
synchronous rounds.  Fold order within a round cannot influence the
result (per-group folds commute), so output batches are identical for any
worker count; a single worker is simply the one-partition case.
"""

from __future__ import annotations

import io
from typing import Mapping, NamedTuple

from .errors import (
    DeltaPathError,
    NegativeMultiplicityError,
    NonConvergenceError,
)
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

# Internal candidate key: (signed_cost, p_length, next) so that plain tuple
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
    """Delta-multiset of candidate rules plus the established best view."""

    __slots__ = (
        "strategy", "workers", "horizon", "epoch",
        "candidates", "_est", "_by_src", "_neg", "_fp_kind",
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
        # (src, dst) -> {(signed_cost, length, next): multiplicity}
        self.candidates: dict[tuple[NodeId, NodeId], dict[tuple, int]] = {}
        self._est: dict[tuple[NodeId, NodeId], tuple] = {}
        self._by_src: dict[NodeId, dict[NodeId, tuple]] = {}

    # --- views

    def established_rules(self) -> EstablishedView:
        return EstablishedView(self)

    def rule_count(self) -> int:
        return len(self._est)

    def candidate_count(self) -> int:
        return sum(len(c) for c in self.candidates.values())

    # --- maintenance

    def check_integrity(self, graph: GraphStore | None = None) -> None:
        for group, cands in self.candidates.items():
            assert cands, f"empty candidate group {group} not collected"
            for key, mult in cands.items():
                assert mult > 0, f"multiplicity {mult} for {group}/{key}"
            assert self._est[group] == min(cands), f"stale selection for {group}"
        for group, key in self._est.items():
            assert self.candidates[group], f"established {group} has no candidates"
            assert self._by_src[group[0]][group[1]] == key
        count = sum(len(d) for d in self._by_src.values())
        assert count == len(self._est), "by-src index out of sync"
        if graph is not None:
            for n in graph.nodes:
                taut = self._est.get((n, n))
                assert taut is not None and taut[1] == 0, f"missing tautology for {n}"
            for (s, d), key in self._est.items():
                if s != d:
                    nxt = key[2]
                    assert any(
                        dst == nxt for (dst, _w) in graph.out_edges(s)
                    ), f"established ({s}, {d}) points at missing edge to {nxt}"
                    suffix = self._est.get((nxt, d))
                    assert suffix is not None and suffix[1] == key[1] - 1, (
                        f"({s}, {d}) length {key[1]} inconsistent with its "
                        f"suffix via {nxt}"
                    )


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
    """Seed tautologies over a topology snapshot and propagate to fixpoint."""
    if not topology.nodes:
        raise DeltaPathError("cannot initialize on an empty topology")
    for (_s, _d, w), _m in topology.edge_items():
        strategy.validate_weight(w)
    store = RuleStore(strategy, workers, horizon=len(topology.nodes))
    pending: dict[tuple, dict] = {}
    for n in topology.nodes:
        pending[(n, n)] = {_tautology_key(strategy, n): 1}
    _fixpoint(store, topology, _route(store, pending), {})
    store.epoch = 0
    return store


def step_epoch(
    store: RuleStore,
    graph: GraphStore,
    events: list[TopologyEvent] | Epoch,
    strategy: Strategy | None = None,
) -> RuleDeltaBatch:
    """Process one epoch's event batch to fixpoint; returns the net change
    to the established view, sorted, with delta -1 for retired rules and
    +1 for their replacements."""
    if isinstance(events, Epoch):
        events = events.events
    strategy = strategy or store.strategy
    if strategy is not store.strategy:
        raise DeltaPathError("step_epoch called with a different strategy")

    raw: list[EdgeRecord] = []
    taut_deltas: dict[tuple, dict] = {}
    for ev in events:
        raw.extend(graph.ingest_event(ev, strategy.link_cost))
        if isinstance(ev, (AddNode, RemoveNode)):
            key = _tautology_key(strategy, ev.id)
            acc = taut_deltas.setdefault((ev.id, ev.id), {})
            acc[key] = acc.get(key, 0) + (1 if isinstance(ev, AddNode) else -1)

    journal: dict[tuple, tuple | None] = {}
    pending: list[dict[tuple, dict]] = [dict() for _ in range(store.workers)]

    # Horizon can only grow; replay the previously suppressed derivation
    # fringe against the pre-delta graph so later retractions cancel.
    if len(graph.nodes) > store.horizon:
        _grow_horizon(store, graph, len(graph.nodes), pending)

    delta_g = graph.apply_deltas(raw)
    for group, deltas in taut_deltas.items():
        _queue(pending, store.workers, group, deltas)

    # Edge deltas join the established view as of the epoch start.
    fp = strategy.path_cost
    neg = store._neg
    h = store.horizon
    for rec in delta_g:
        rules = store._by_src.get(rec.src)
        if not rules:
            continue
        for d, key in rules.items():
            length = key[1] + 1
            if length >= h:
                continue
            cost = fp(rec.w, -key[0] if neg else key[0])
            _queue(
                pending,
                store.workers,
                (rec.dst, d),
                {((-cost if neg else cost), length, rec.src): rec.delta},
            )

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


def _queue(pending, workers, group, deltas):
    inbox = pending[group[0] % workers]
    acc = inbox.get(group)
    if acc is None:
        inbox[group] = dict(deltas)
    else:
        for key, dm in deltas.items():
            acc[key] = acc.get(key, 0) + dm


def _route(store: RuleStore, grouped: dict[tuple, dict]) -> list[dict]:
    pending = [dict() for _ in range(store.workers)]
    for group, deltas in grouped.items():
        _queue(pending, store.workers, group, deltas)
    return pending


def _grow_horizon(store, graph, new_horizon, pending):
    old = store.horizon
    for s, rules in store._by_src.items():
        edges = graph.out_edges(s)
        if not edges:
            continue
        for d, key in rules.items():
            length = key[1] + 1
            if not (old <= length < new_horizon):
                continue
            cost = -key[0] if store._neg else key[0]
            for (x, w), mult in edges.items():
                c2 = store.strategy.path_cost(w, cost)
                _queue(
                    pending,
                    store.workers,
                    (x, d),
                    {((-c2 if store._neg else c2), length, s): mult},
                )
    store.horizon = new_horizon


def _fixpoint(store, graph, pending, journal):
    workers = store.workers
    rounds = 0
    # Retraction cascades can count a pair's stale candidates up to the
    # horizon before recovery propagates, so a legal epoch may need up to
    # ~2x horizon rounds; a non-monotone strategy never quiesces at all.
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
                changes = _fold(store, inbox, journal)
                if changes:
                    _derive_changes(store, graph, changes, nxt)
        pending = nxt


def _fold(store, inbox, journal):
    """Apply accumulated rule deltas per group, garbage-collect zeros, and
    reselect each touched group's establishment.

    A full reselect only happens when the current winner was removed; an
    insertion below the winner replaces it directly, and dominated churn
    costs one comparison per delta.
    """
    candidates = store.candidates
    est = store._est
    by_src = store._by_src
    changes = []
    for group, deltas in inbox.items():
        cands = candidates.get(group)
        if cands is None:
            cands = {}
            candidates[group] = cands
        old = est.get(group)
        reselect = old is None
        incoming = None
        for key, dm in deltas.items():
            if dm == 0:
                continue
            m = cands.get(key, 0) + dm
            if m > 0:
                cands[key] = m
                if dm > 0 and not reselect and key < old and (
                    incoming is None or key < incoming
                ):
                    incoming = key
            elif m == 0:
                del cands[key]
                if key == old:
                    reselect = True
            else:
                raise NegativeMultiplicityError(
                    f"rule candidate {group}/{key} driven to {m}"
                )
        if not cands:
            del candidates[group]
            best = None
        elif reselect:
            best = min(cands)
        elif incoming is not None:
            best = incoming
        else:
            continue  # winner untouched, nothing better arrived
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


def _derive_changes(store, graph, changes, out):
    """Join establishment changes against the full graph, routing derived
    deltas to the owner of their new src."""
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
        old_len = old[1] + 1 if old is not None and old[1] + 1 < h else None
        new_len = new[1] + 1 if new is not None and new[1] + 1 < h else None
        if old_len is None and new_len is None:
            continue
        old_cost = (-old[0] if neg else old[0]) if old_len is not None else None
        new_cost = (-new[0] if neg else new[0]) if new_len is not None else None
        for (x, w), mult in edges.items():
            inbox = single if single is not None else out[x % workers]
            group = (x, d)
            acc = inbox.get(group)
            if acc is None:
                acc = inbox[group] = {}
            if old_len is not None:
                if kind == "sum":
                    c2 = w + old_cost
                elif kind == "hop":
                    c2 = 1 + old_cost
                elif kind == "min":
                    c2 = w if w < old_cost else old_cost
                else:
                    c2 = fp(w, old_cost)
                key = ((-c2 if neg else c2), old_len, s)
                acc[key] = acc.get(key, 0) - mult
            if new_len is not None:
                if kind == "sum":
                    c2 = w + new_cost
                elif kind == "hop":
                    c2 = 1 + new_cost
                elif kind == "min":
                    c2 = w if w < new_cost else new_cost
                else:
                    c2 = fp(w, new_cost)
                key = ((-c2 if neg else c2), new_len, s)
                acc[key] = acc.get(key, 0) + mult


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
