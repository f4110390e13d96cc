"""The synchronous-rounds engine, kept as a reference for `step_epoch`.

Each epoch folds its change in rounds until nothing moves.  A rule change
at (y, d) offers its one-hop extension to the group (x, d) of every
neighbour x and tells that group that y's previous rule is gone; an added
edge offers its extensions and a retracted edge notifies the groups that
routed over it.  A group whose winner came through a notifying neighbour
is reselected from its neighbours' rules; any other group keeps the better
of its winner and the best offer.  Derivations stop at p_length >= horizon,
which also bounds the rounds.

It works on the same `RuleStore` and `GraphStore` as the engine, with one
worker and without the engine's inlined arithmetic, so tests can compare
the two batch for batch.  It is not atomic: a failing event leaves the
state half-changed.
"""

from __future__ import annotations

from deltapath import routing_core as rc
from deltapath.errors import NonConvergenceError
from deltapath.graph_model import AddNode, RemoveNode


def step_rounds(store, graph, events):
    """Step one epoch to the fixpoint by rounds; returns the sorted batch."""
    strategy = store.strategy
    raw, touched = [], set()
    for ev in events:
        raw.extend(graph.ingest_event(ev, strategy.link_cost))
        if isinstance(ev, (AddNode, RemoveNode)):
            touched.add(ev.id)
    delta_g = graph.apply_deltas(raw)
    store.horizon = max(store.horizon, len(graph.nodes))

    # group -> [best offered key or None, neighbours whose rule is gone]
    pending: dict = {}
    for n in touched:
        offer = rc._tautology_key(strategy, n) if n in graph.nodes else None
        pending[(n, n)] = [offer, {n}]
    for rec in delta_g:
        if rec.delta < 0:
            for d, key in store._by_src.get(rec.dst, {}).items():
                if key[2] == rec.src:
                    _notify(pending, (rec.dst, d), rec.src)
        else:
            for d, key in store._by_src.get(rec.src, {}).items():
                _offer(pending, (rec.dst, d), _extend(store, key, rec.src, rec.w))

    journal: dict = {}
    rounds = 0
    while pending:
        rounds += 1
        if rounds > 2 * store.horizon + 4:
            raise NonConvergenceError(f"no fixpoint after {rounds - 1} rounds")
        changes = _fold(store, graph, pending, journal)
        pending = {}
        for (s, d), old, new in changes:
            for x, w in graph.out_edges(s):
                if old is not None:
                    _notify(pending, (x, d), s)
                if new is not None:
                    _offer(pending, (x, d), _extend(store, new, s, w))
    store.epoch += 1

    neg = strategy.maximize
    batch = []
    for (s, d), old in journal.items():
        new = store._est.get((s, d))
        for key, delta in ((old, -1), (new, 1)):
            if key is not None and old != new:
                cost = -key[0] if neg else key[0]
                batch.append(rc.ForwardingRule(s, d, key[2], cost, key[1], delta))
    batch.sort()
    return batch


def _extend(store, key, via, w):
    """`key` (the rule of `via`) extended over an edge of weight w, or None
    when the horizon cuts it."""
    if key is None or key[1] + 1 >= store.horizon:
        return None
    neg = store.strategy.maximize
    cost = store.strategy.path_cost(w, -key[0] if neg else key[0])
    return (-cost if neg else cost, key[1] + 1, via)


def _offer(pending, group, key):
    if key is None:
        return
    entry = pending.setdefault(group, [None, set()])
    if entry[0] is None or key < entry[0]:
        entry[0] = key


def _notify(pending, group, via):
    pending.setdefault(group, [None, set()])[1].add(via)


def _fold(store, graph, pending, journal):
    est, rows = store._est, store._by_src
    changes = []
    for group, (offer, gone) in pending.items():
        old = est.get(group)
        if old is not None and old[2] in gone:
            best = _reselect(store, graph, group)
        elif offer is not None and (old is None or offer < old):
            best = offer
        else:
            continue
        if best == old:
            continue
        journal.setdefault(group, old)
        s, d = group
        if best is None:
            del est[group]
            del rows[s][d]
            if not rows[s]:
                del rows[s]
        else:
            est[group] = best
            rows.setdefault(s, {})[d] = best
        changes.append((group, old, best))
    return changes


def _reselect(store, graph, group):
    x, d = group
    best = None
    if x == d and x in graph.nodes:
        best = rc._tautology_key(store.strategy, x)
    for y, w in graph.out_edges(x):
        cand = _extend(store, store._est.get((y, d)), y, w)
        if cand is not None and (best is None or cand < best):
            best = cand
    return best
