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
batch.  Like the engine, it gives each born node the next slot, makes
every row as long as the slots when an epoch takes one, copies a row
before its first write in an epoch, so a row is never changed once its
epoch ends, and it drops a row that loses its last rule.
`solve_rounds` runs the same rounds from an empty store over any graph.
Like the engine, it applies each event to the graph before ingesting
the next.  It is not atomic: a failing event leaves the state
half-changed.  `candidates` builds the whole join that the rounds fold,
for tests that count or inspect a group's candidates.
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
        for a, b, w, delta, _p in graph.apply_deltas(graph.ingest_event(ev, strategy.link_cost)):
            # a link delta is a delta to its edge each way
            for edge in ((a, b, w), (b, a, w)):
                net[edge] = net.get(edge, 0) + delta
        if isinstance(ev, (AddNode, RemoveNode)):
            touched.add(ev.id)
    if rc._take_slots(store, graph.nodes):
        pad = len(store.ids)
        for d, row in store._est.items():
            store._est[d] = rc._grown(row, pad)
    horizon = len(graph.nodes)
    rows: dict = {}  # this epoch's index of the established rules by src
    for d, row in store._est.items():
        for s, key in _rules(store, row):
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

    journal = _settle(store, graph, pending)
    store.epoch += 1
    store._rules = _count(store)

    neg = strategy.maximize
    batch = []
    for (s, d), old in journal.items():
        new = _rule(store, s, d)
        for key, delta in ((old, -1), (new, 1)):
            if key is not None and old != new:
                cost = -key[0] if neg else key[0]
                batch.append(rc.ForwardingRule(s, d, key[2], cost, key[1], delta))
    batch.sort()
    return batch


def solve_rounds(graph, strategy):
    """The fixpoint of `graph` as the rounds reach it from an empty store,
    every node's tautology offered in the first round."""
    store = rc.RuleStore(strategy)
    rc._take_slots(store, graph.nodes)
    pending = {
        (n, n): [rc._tautology_key(strategy, n), set()] for n in graph.nodes
    }
    _settle(store, graph, pending)
    store._rules = _count(store)
    return store


def _count(store):
    return sum(len(nxt) - nxt.count(-1) for _c, _l, nxt in store._est.values())


def _rules(store, row):
    """(src, key) for each rule of the row, in slot order."""
    ids = store.ids
    return [(ids[i], rc._key(row, i, ids)) for i in rc._live(row[2])]


def _settle(store, graph, pending):
    """Fold rounds from `pending` until nothing moves; returns the journal
    of each changed group's first old rule."""
    horizon = len(graph.nodes)
    journal: dict = {}
    owned: set = set()  # rows copied this epoch
    rounds = 0
    while pending:
        rounds += 1
        if rounds > 2 * horizon + 4:
            raise NonConvergenceError(f"no fixpoint after {rounds - 1} rounds")
        changes = _fold(store, graph, horizon, pending, journal, owned)
        pending = {}
        for (s, d), old, new in changes:
            for x, w in graph.out_edges(s):
                if old is not None:
                    _notify(pending, (x, d), s)
                if new is not None:
                    _offer(pending, (x, d), _extend(store, horizon, new, s, w))
    return journal


def candidates(store, graph):
    """The candidate multiset of every group, as the engine's keys: one
    tautology per node plus the join of the established rules with the
    graph (for every edge s -> x, the rule of (s, d) extended to (x, d)),
    cut at the horizon.  Maps (src, dst) to {key: multiplicity}, where
    parallel edges and equal derivations add up."""
    horizon = len(graph.nodes)
    out = {(n, n): {rc._tautology_key(store.strategy, n): 1} for n in graph.nodes}
    for d, row in store._est.items():
        for s, key in _rules(store, row):
            for (x, w), mult in graph.out_edges(s).items():
                derived = _extend(store, horizon, key, s, w)
                if derived is not None:
                    group = out.setdefault((x, d), {})
                    group[derived] = group.get(derived, 0) + mult
    return out


def _rule(store, s, d):
    """The key of (s, d), or None."""
    row = store._est.get(d)
    return None if row is None else rc._key(row, store.slot[s], store.ids)


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


def _fold(store, graph, horizon, pending, journal, owned):
    est = store._est
    changes = []
    for group, (offer, gone) in pending.items():
        s, d = group
        old = _rule(store, s, d)
        if old is not None and old[2] in gone:
            best = _reselect(store, graph, horizon, group)
        elif offer is not None and (old is None or offer < old):
            best = offer
        else:
            continue
        if best == old:
            continue
        journal.setdefault(group, old)
        n = len(store.ids)
        if d not in owned:
            owned.add(d)
            est[d] = rc._grown(est[d], n) if d in est else rc._empty_row(store._code, n)
        # a row dropped earlier in the epoch comes back empty
        row = est.setdefault(d, rc._empty_row(store._code, n))
        i = store.slot[s]
        cost, length, nxt = row
        cost[i], length[i], nxt[i] = (
            rc._NO_RULE if best is None else (best[0], best[1], store.slot[best[2]]))
        if nxt.count(-1) == n:
            del est[d]
        changes.append((group, old, best))
    return changes


def _reselect(store, graph, horizon, group):
    x, d = group
    best = None
    if x == d and x in graph.nodes:
        best = rc._tautology_key(store.strategy, x)
    for y, w in graph.out_edges(x):
        cand = _extend(store, horizon, _rule(store, y, d), y, w)
        if cand is not None and (best is None or cand < best):
            best = cand
    return best
