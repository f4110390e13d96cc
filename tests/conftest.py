"""Shared fixtures and graph builders for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from deltapath import oracle, routing_core
from deltapath.errors import TooLargeError
from deltapath.graph_model import (
    AddLink,
    GraphStore,
    LinkProperties,
    NodeId,
    NodeRecord,
    RemoveLink,
    Topology,
    UpdateWeight,
    build_graph,
)
from deltapath.strategy import Strategy, builtin


def props(capacity=10.0, utilization=0.0, delay=1.0) -> LinkProperties:
    return LinkProperties(capacity=capacity, utilization=utilization, delay=delay)


def topology(n_nodes, links) -> Topology:
    """links: iterable of (a, b) or (a, b, LinkProperties)."""
    topo = Topology(nodes=[NodeRecord(i) for i in range(n_nodes)])
    for link in links:
        if len(link) == 2:
            topo.links.append((link[0], link[1], props()))
        else:
            topo.links.append(tuple(link))
    return topo


def utilization_topology(n_nodes, weighted_links) -> Topology:
    """weighted_links: (a, b, w) with w used as the utilization, so the
    sd_utilization strategy sees exactly these integer weights."""
    return topology(
        n_nodes,
        [(a, b, props(utilization=float(w))) for a, b, w in weighted_links],
    )


def triangle() -> Topology:
    """The recurring example: A-B (w=1), B-C (w=1), A-C (w=3) as nodes 0-2."""
    return utilization_topology(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])


def random_connected_topology(rng: random.Random, n: int, avg_degree: float = None) -> Topology:
    """Random connected graph: a random spanning tree plus extra edges up to
    the target average degree, integer utilizations in [1, 100]."""
    if avg_degree is None:
        avg_degree = rng.uniform(2.0, 6.0)
    topo = Topology(nodes=[NodeRecord(i) for i in range(n)])
    pairs = set()

    def add_edge(a, b):
        pairs.add((min(a, b), max(a, b)))
        topo.links.append((a, b, props(utilization=float(rng.randint(1, 100)))))

    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        add_edge(order[i], order[rng.randrange(i)])
    target = max(n - 1, int(n * avg_degree / 2))
    attempts = 0
    while len(pairs) < target and attempts < 20 * target:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and (min(a, b), max(a, b)) not in pairs:
            add_edge(a, b)
    return topo


def cost_and_length(result: oracle.OracleResult) -> tuple[np.ndarray, np.ndarray]:
    """An oracle solve's (N, N) optimal costs (+-inf where unreachable) and
    tie-broken lengths, in `result.ids` order."""
    return result._cost, result._length


def pairs(result: oracle.OracleResult):
    """All reachable ordered pairs of a solve, self pairs included, as
    (s, t, cost, length, next), row-major in `ids` order."""
    cost, length = cost_and_length(result)
    ids, nxt = result.ids, result.next_matrix
    reach = cost > -math.inf if result.maximize else cost < math.inf
    for i, j in zip(*np.nonzero(reach)):
        yield ids[i], ids[j], float(cost[i, j]), int(length[i, j]), ids[nxt[i, j]]


def witnesses(result: oracle.OracleResult, graph: GraphStore, s: NodeId, t: NodeId,
              tie_break: bool = True) -> frozenset:
    """Next hops on some optimal path from s to t, re-derived from the
    solve's cost matrix over s's edges in the graph; with `tie_break`,
    restricted to paths that are also tie-break minimal (fewest hops)."""
    if s == t:
        return frozenset({s})
    if not result.reachable(s, t):
        return frozenset()
    cost, length = cost_and_length(result)
    i, j = result.index[s], result.index[t]
    found = set()
    for (x, w), _mult in graph.out_edges(s).items():
        k = result.index[x]
        via = min(w, cost[k, j]) if result.maximize else w + cost[k, j]
        if via == cost[i, j] and (not tie_break or length[k, j] + 1 == length[i, j]):
            found.add(x)
    return frozenset(found)


def _enumerate_widths(graph: GraphStore, ids) -> np.ndarray:
    """Max over all simple paths of the min edge width, per ordered pair
    of `ids`."""
    index = {node: i for i, node in enumerate(ids)}
    out_edges: dict[int, dict[int, float]] = {}
    for (src, dst, w), _mult in graph.edge_items():
        out = out_edges.setdefault(index[src], {})
        out[index[dst]] = max(out.get(index[dst], -math.inf), float(w))
    n = len(ids)
    best = np.full((n, n), -np.inf)
    np.fill_diagonal(best, np.inf)

    def dfs(origin, node, width, visited):
        for nxt, w in out_edges.get(node, {}).items():
            if nxt in visited:
                continue
            nw = min(width, w)
            if nw > best[origin, nxt]:
                best[origin, nxt] = nw
            visited.add(nxt)
            dfs(origin, nxt, nw, visited)
            visited.remove(nxt)

    for s in range(n):
        dfs(s, s, math.inf, {s})
    return best


def widest_paths_bruteforce(graph: GraphStore, strategy: Strategy) -> oracle.OracleResult:
    """Exhaustive widest-path reference for small graphs: `oracle.solve`,
    its widths certified by simple-path enumeration, tie-break
    replicating the selection order (max width, then fewest hops, then
    smallest next id)."""
    if len(graph.nodes) > 14:
        raise TooLargeError(f"{len(graph.nodes)} nodes; brute force capped at 14")
    result = oracle.solve(graph, strategy)
    if not np.array_equal(_enumerate_widths(graph, result.ids), cost_and_length(result)[0]):
        raise AssertionError("width enumeration disagrees with value iteration")
    return result


def row_rules(store, row) -> dict:
    """The rules of one of the store's rows as {src: key}, each key the
    engine's (signed cost, p_length, next id)."""
    ids = store.ids
    return {ids[i]: routing_core._key(row, i, ids) for i in routing_core._live(row[2])}


def rules_by_id(store) -> dict:
    """A store's rules as {dst: {src: key}}, read through its slots: two
    stores whose slots differ (nodes born in another order, a removed
    node's slot still held) compare by node id."""
    return {d: row_rules(store, row) for d, row in store._est.items()}


def key_at(store, d: NodeId, s: NodeId):
    """The key of the rule of (s, d), (signed cost, p_length, next id), or
    None where there is none."""
    row = store._est.get(d)
    return None if row is None else routing_core._key(row, store.slot[s], store.ids)


def set_key(store, d: NodeId, s: NodeId, key) -> None:
    """Give (s, d) the rule `key`, (signed cost, p_length, next id), or no
    rule where None, in a copy of d's row (a new row of no rules where d
    has none), so that rows shared with a snapshot stay as they were.  The
    cost column becomes a list where its `array` cannot hold the cost."""
    n = len(store.ids)
    row = store._est.get(d)
    row = routing_core._empty_row(store._code, n) if row is None else routing_core._grown(row, n)
    if key is None:
        key = routing_core._NO_RULE
    else:
        if type(key[0]) is not {"d": float, "q": int}.get(store._code):
            row = (list(row[0]), *row[1:])
        key = (key[0], key[1], store.slot[key[2]])
    i = store.slot[s]
    cost, length, nxt = row
    cost[i], length[i], nxt[i] = key
    store._est[d] = row


def slotted_store(graph: GraphStore, strategy: Strategy) -> routing_core.RuleStore:
    """An empty store with a slot for each of the graph's nodes, in sorted
    id order, as `initialize` gives them."""
    store = routing_core.RuleStore(strategy)
    routing_core._take_slots(store, graph.nodes)
    return store


def rule_store(rules: dict) -> routing_core.RuleStore:
    """An sd_utilization store holding `rules`, {(s, t): ForwardingRule}:
    a slot for every source and destination named, in sorted id order,
    and one row per destination, in the order in which each first
    appears."""
    store = routing_core.RuleStore(builtin("sd_utilization"))
    routing_core._take_slots(store, {x for pair in rules for x in pair})
    for (s, t), rule in rules.items():
        set_key(store, t, s, (rule.p_cost, rule.p_length, rule.next))
    store._rules = len(rules)
    return store


def all_fixpoint(graph: GraphStore, strategy: Strategy):
    """The store `routing_core._all_fixpoint` fills, or None where it
    declines."""
    store = slotted_store(graph, strategy)
    rules = routing_core._all_fixpoint(store, graph, np.arange(len(store.ids)))
    if rules is None:
        return None
    store._rules = rules
    return store


def search_tree(graph: GraphStore, strategy: Strategy, *args, **kwargs) -> dict:
    """`routing_core.search`'s rules as {node: key}, over slots of the
    graph's nodes."""
    store = slotted_store(graph, strategy)
    row = routing_core.search(store, graph, *args, **kwargs)
    return row_rules(store, row)


@st.composite
def loose_topologies(draw):
    """Small graphs with parallel links (equal or different weights),
    isolated nodes and any number of components."""
    n = draw(st.integers(1, 8))
    links = []
    if n > 1:
        for a, b, u in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
            max_size=12,
        )):
            if a != b:
                links.append((a, b, props(utilization=float(u))))
    return topology(n, links)


@st.composite
def real_weight_topologies(draw):
    """Like `loose_topologies` (parallel links, isolated nodes, any number
    of components), with real and absorbing weights (1e-17 beside 1.0 or
    1/3, 1e9 for a saturated link), widths that tie (a repeated capacity
    and utilization) or are 0 (a saturated link), and node ids that are
    negative or not contiguous."""
    ids = draw(st.lists(st.integers(-20, 40), min_size=1, max_size=8, unique=True))
    utilization = st.sampled_from([1e-17, 0.1, 1 / 3, 1.0, 2.0, 100.0])
    capacity = st.sampled_from([1 / 3, 10.0, 1e17])
    links = []
    if len(ids) > 1:
        ends = st.sampled_from(ids)
        for a, b, u, c in draw(st.lists(
            st.tuples(ends, ends, utilization, capacity), max_size=16,
        )):
            if a != b:
                links.append((a, b, props(capacity=c, utilization=u)))
    return Topology(nodes=[NodeRecord(i) for i in ids], links=links)


def random_events(rng: random.Random, graph: GraphStore, count: int) -> list:
    """A stream of add/remove/update link events valid against the evolving
    graph (the caller applies each event before the next is drawn)."""
    events = []
    nodes = sorted(graph.nodes)
    live = {}
    for (a, b, w), _m in graph.edge_items():
        if a < b:
            live[(a, b)] = w
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4 and len(live) > 1:
            a, b = rng.choice(sorted(live))
            del live[(a, b)]
            events.append(RemoveLink(a, b))
        elif roll < 0.6 and live:
            a, b = rng.choice(sorted(live))
            events.append(UpdateWeight(a, b, float(rng.randint(1, 100))))
        else:
            for _ in range(50):
                a, b = rng.randrange(len(nodes)), rng.randrange(len(nodes))
                a, b = nodes[a], nodes[b]
                if a != b and (min(a, b), max(a, b)) not in live:
                    break
            else:
                continue
            ev = AddLink(min(a, b), max(a, b),
                         props(utilization=float(rng.randint(1, 100))))
            live[(ev.a, ev.b)] = None
            events.append(ev)
    return events


def affected_pairs(
    graph_before: GraphStore, graph_after: GraphStore, strategy: Strategy
) -> set[tuple[NodeId, NodeId]]:
    """Ordered pairs whose established rule differs between the two graphs.

    A pair counts as affected when its reachability, optimal cost,
    tie-broken length, or tie-broken next hop changes.  Length is part of
    the comparison because it is part of a rule's identity: a changed
    suffix can shift a pair's hop count without moving its cost or next.
    """
    before = oracle.solve(graph_before, strategy)
    after = oracle.solve(graph_after, strategy)
    if before.ids == after.ids:
        (cost0, length0), (cost1, length1) = map(cost_and_length, (before, after))
        same = (
            (cost0 == cost1)
            & (length0 == length1)
            & (before.next_matrix == after.next_matrix)
        )
        # inf == inf holds, so unreachable-on-both compares equal
        return {
            (before.ids[i], before.ids[j]) for i, j in zip(*np.nonzero(~same))
        }
    changed = set()
    for s in set(before.ids) | set(after.ids):
        for t in set(before.ids) | set(after.ids):
            if before.triple(s, t) != after.triple(s, t):
                changed.add((s, t))
    return changed


@pytest.fixture
def sd_strategy():
    return builtin("sd_utilization")


@pytest.fixture
def hop_strategy():
    return builtin("hop_count")


@pytest.fixture
def triangle_graph(sd_strategy):
    return build_graph(triangle(), sd_strategy.link_cost)
