"""The synchronous-rounds engine, kept as a reference for `step_epoch`.

Each epoch folds its change in rounds until nothing moves.  A rule change
at (y, d) offers its one-hop extension to the group (x, d) of every
neighbour x and tells that group that y's previous rule is gone; an added
edge offers its extensions and a retracted edge notifies the groups that
routed over it.  A group whose winner came through a notifying neighbour
is reselected from its neighbours' rules; any other group keeps the better
of its winner and the best offer.  Derivations stop at p_length >= the
node count (the horizon), which also bounds the rounds.

It works on the same `RuleStore` and `GraphStore` as the engine, without
the engine's inlined arithmetic, so tests can compare the two batch for
batch.  Like the engine, it applies each event to the graph before
ingesting the next.  It is not atomic: a failing event leaves the state
half-changed.
"""

from __future__ import annotations

from deltapath import routing_core as rc
from deltapath.errors import NonConvergenceError
from deltapath.graph_model import AddNode, RemoveNode


def step_rounds(store, graph, events):
    """Step one epoch to the fixpoint by rounds; returns the sorted batch."""
    strategy = store.strategy
    net, touched = {}, set()
    for ev in events:
        for rec in graph.apply_deltas(graph.ingest_event(ev, strategy.link_cost)):
            key = (rec.src, rec.dst, rec.w)
            net[key] = net.get(key, 0) + rec.delta
        if isinstance(ev, (AddNode, RemoveNode)):
            touched.add(ev.id)
    horizon = len(graph.nodes)
    rows: dict = {}  # this epoch's index of the established rules by src
    for (s, d), key in store._est.items():
        rows.setdefault(s, {})[d] = key

    # group -> [best offered key or None, neighbours whose rule is gone]
    pending: dict = {}
    for n in touched:
        offer = rc._tautology_key(strategy, n) if n in graph.nodes else None
        pending[(n, n)] = [offer, {n}]
    for (y, x, w), delta in sorted(net.items()):
        if delta < 0:
            for d, key in rows.get(x, {}).items():
                if key[2] == y:
                    _notify(pending, (x, d), y)
        elif delta > 0:
            for d, key in rows.get(y, {}).items():
                _offer(pending, (x, d), _extend(store, horizon, key, y, w))

    journal: dict = {}
    rounds = 0
    while pending:
        rounds += 1
        if rounds > 2 * horizon + 4:
            raise NonConvergenceError(f"no fixpoint after {rounds - 1} rounds")
        changes = _fold(store, graph, horizon, pending, journal)
        pending = {}
        for (s, d), old, new in changes:
            for x, w in graph.out_edges(s):
                if old is not None:
                    _notify(pending, (x, d), s)
                if new is not None:
                    _offer(pending, (x, d), _extend(store, horizon, new, s, w))
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


def _extend(store, horizon, key, via, w):
    """`key` (the rule of `via`) extended over an edge of weight w, or None
    when the horizon cuts it."""
    if key is None or key[1] + 1 >= horizon:
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


def _fold(store, graph, horizon, pending, journal):
    est = store._est
    changes = []
    for group, (offer, gone) in pending.items():
        old = est.get(group)
        if old is not None and old[2] in gone:
            best = _reselect(store, graph, horizon, group)
        elif offer is not None and (old is None or offer < old):
            best = offer
        else:
            continue
        if best == old:
            continue
        journal.setdefault(group, old)
        if best is None:
            del est[group]
        else:
            est[group] = best
        changes.append((group, old, best))
    return changes


def _reselect(store, graph, horizon, group):
    x, d = group
    best = None
    if x == d and x in graph.nodes:
        best = rc._tautology_key(store.strategy, x)
    for y, w in graph.out_edges(x):
        cand = _extend(store, horizon, store._est.get((y, d)), y, w)
        if cand is not None and (best is None or cand < best):
            best = cand
    return best
