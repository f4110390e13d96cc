"""Incremental maintenance of all-pairs forwarding rules.

Every node has a slot: a dense index given in sorted id order at set-up,
the next free one to a node born later.  A removed node keeps its slot,
so a node that comes back takes the same one, and no slot is given back:
the rows grow by one entry per distinct id ever born.  The store's slots
are the one node index (`_take_slots`): the set-up solve, its fallback
and every NOT or backup `search` write rows over them, so they must
cover the graph, as `initialize` and `step_epoch` keep them.  State is
one row per live destination d (`Row`): three columns indexed by slot,
holding for each node x that routes toward d the signed cost, the
p_length and the next hop's slot of the established rule of the group
(x, d).  Every other node's entry holds the empty rule, the same value
in every row (`_NO_RULE`), so two rows are equal exactly when their
rules are.  The cost column is an `array` where every cost the strategy
can form fits one type (`cost_typecode`: floats, or hop_count's ints),
and a list otherwise; the length and next columns are arrays of C ints.
Every row is as long as the list of slots, and holds at least d's own
rule.  A rule is selected by its key (signed cost, p_length, next id),
compared cost first: the length and the next's id are read only where
two costs tie.  A group's
candidates are not stored: they are the join of the established rules
with the graph (for every edge x -> y, y's rule toward d extended by one
hop) plus the tautology (d, d) while d is a node, cut at p_length >= the
node count: best paths are simple, so the cut loses none of them.  At a
fixpoint every group holds the minimum of its candidates.  `_best_offer`
computes that minimum for one group, for the repair and the integrity
check.

Rows are copy-on-write per epoch: the first write to a row in an epoch
replaces it with a copy, one buffer copy per column, and journals the
old row object (`_row`), so a row is never changed once its epoch ends;
a re-solved row (below) replaces the old one whole and journals it the
same way (`_replace_row`).  A shallow copy of the table of
rows is then a true snapshot, a failed epoch is undone by putting the old
rows back, and the emitted batch is the diff of each journaled row over
the slots written.  An epoch that gives a born node a new slot copies
every row once, one entry longer.

Every built-in strategy strictly worsens the key when it extends a path
(cost never improves, length grows), so the fixpoint is unique (Sobrinho,
IEEE/ACM ToN 2002) and an epoch's emitted batch, a diff of two fixpoints,
does not depend on how the fixpoint was reached.

Under every built-in path cost the first fixpoint is solved for every
destination at once (`_all_fixpoint`), over one layout of the graph: the
links are read into arrays once, the lightest or widest of parallel
links is kept, and the directed edges are sorted by (degree of x, x, u),
so that the nodes of each degree form a class, a dense (nodes x degree)
table of their neighbours (`_layout`).  Each set-up kernel makes one
reduction along the degree axis per class.  One step depends on the
strategy: the matrix of every group's cost, with the test for an edge to
be tight for it (to carry a best path).  Additive costs over unequal
weights, int or float, take the matrix from Bellman's relaxation, swept
in numpy for a block of destinations together: in float32 where every
weight is integral and twice their total is at most 2**24, so that every
sum it forms is an integer float32 holds exactly, and in float64
otherwise.  shortest_widest takes its widths from Kruskal's maximum
spanning forest (Hu, Operations Research 1961).  A BFS over the tight
edges, run for a block of destinations together as bits, 64
destinations to a word, gives each group's length: each level ORs the
nodes it reaches into bit planes of its number, unpacked once a plane
when the search ends.  One minimum over each node's edges of the key
L * n + rank by id, in the narrowest integer type that holds every key
for the depth found, gives its next: the tight neighbour one hop closer
with the smallest id.  An additive cost
whose weights are all equal (hop_count's are all 1) needs neither matrix
nor test: a group's cost follows from its length, and the BFS runs over
every edge.  Each block's rows are copied from these arrays, a typed
column in one `frombytes`, so set-up makes no Python object per pair
(`_fill_rows`).  A custom path cost, and the few inputs that solve would key differently,
are set up by one `search` per destination, which repairs its tree from
empty (phase 2 below): a best-first search that pops nodes from a heap
in key order, each group once, with the minimum of its neighbours' keys
extended by one hop, the fixpoint equation.  NOT and backup policies run
the same `search` over a masked adjacency, stopped once the policy's
source settles.

The oracle and set-up both relax additive costs by Bellman's sweeps, but
share no code: the oracle sweeps an edge list toward each block of
targets, set-up the degree classes of its layout (`_relaxed_costs`).
Both make the addition w + C[u, d] that the repair makes, so the oracle
checks every cost exactly, fractional ones included.  Independent of
both stay the repair from empty of a custom path cost that
`path_cost_kind` does not know (the heap-search differentials, int
weights other than 1 included), the golden digests, the rounds
reference, and every repaired epoch after set-up.

The repair and every NOT or backup search read a node's edges as
[(slot of y, w, y)] from one cache that the graph holds (`_Near`), so
that their loops make no slot lookup per edge.  The graph drops the
lists of both ends of every link it writes, whoever writes it, so no
epoch, rollback or query keeps the cache valid by hand.

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
each added node's tautology, and settles nodes in key order.  Under
shortest_widest a node that improves can make a child worse,
so a settled node's child whose rule gets worse goes through phase 1's
decision, and a heap entry whose neighbour key has changed since it was
pushed is skipped.  A custom path cost that can improve a path by
extending it raises NonConvergenceError, and the epoch is rolled back.

A large epoch is re-solved instead: one that changes at least
`_RESOLVE_LINKS` links and `_RESOLVE_SHARE` of the live links, a
re-weighted link counting twice.  Its repair would redo nearly every
tree, pair by pair through the heap, so every live destination is solved
afresh as set-up solves it (`_all_fixpoint`, over the store's slots: a
dead slot has no edges and no row reaches it), a re-solved row is kept
only where it differs from the old one, and the batch is built from the
slots that differ.  Both reach the unique fixpoint, so the batch is the
one the repair would emit.  A custom path cost, and the inputs set-up's
solve declines, are repaired whatever the epoch's size.

An epoch applies its events to the graph one at a time, each against the
graph as the earlier ones left it, and then repairs or re-solves the
rules once, for the net edge change.
"""

from __future__ import annotations

import heapq
import io
import math
from array import array
from collections.abc import ItemsView, Iterable, Mapping
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import ne
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from .errors import DeltaPathError, IntegrityError, NonConvergenceError
from .graph_model import EdgeRecord, GraphStore, NodeId, TopologyEvent
from .strategy import Strategy, cost_typecode, path_cost_kind


class ForwardingRule(NamedTuple):
    """One per-hop routing entry; delta carries +-1 in emitted changes."""

    src: NodeId
    dst: NodeId
    next: NodeId
    p_cost: float
    p_length: int
    delta: int = 1


RuleDeltaBatch = list  # of ForwardingRule with delta in {-1, +1}

# One destination's rules as the tuple (cost, length, next) of three
# columns over the slots: at slot i the signed cost, the p_length and the
# next hop's slot of the rule of the node ids[i], or `_NO_RULE` where it
# has none.  The cost column is an `array` of the store's `cost_typecode`,
# or a list; the others are arrays of C ints.  A plain tuple: the repair
# unpacks rows in its inner loops, where a named tuple unpacks at half
# the speed and is slower to make.
Row = tuple

# the (cost, length, next) of an entry with no rule, in every column
_NO_RULE = (0, -1, -1)
# the row of a destination that has none: every slot reads as missing
_NO_ROW = ([], array("i"), array("i"))


def _empty_row(code: str | None, n: int) -> Row:
    """A row of n slots with no rule, its cost column of typecode `code`
    (a list where None)."""
    cost = [0] * n if code is None else array(code, [0]) * n
    return cost, array("i", [-1]) * n, array("i", [-1]) * n


def _grown(row: Row, n: int) -> Row:
    """A copy of `row` as long as n slots, the new entries empty."""
    cost, length, nxt = row
    cost, length, nxt = cost[:], length[:], nxt[:]
    more = n - len(nxt)
    if more:
        cost.extend(repeat(0, more))
        length.extend(repeat(-1, more))
        nxt.extend(repeat(-1, more))
    return cost, length, nxt


def _live(nxt: array) -> list[int]:
    """The slots of a next column that hold a rule, in slot order."""
    return np.flatnonzero(np.frombuffer(nxt, dtype=np.intc) >= 0).tolist()


def _key(row: Row, i: int, ids: list) -> tuple | None:
    """The selection key (signed cost, p_length, next id) of slot i of
    `row`, or None where it holds no rule."""
    cost, length, nxt = row
    j = nxt[i]
    return None if j < 0 else (cost[i], length[i], ids[j])


class _Near(dict):
    """Each node's edges over `graph`, as the list [(slot of y, w, y)] of
    its `out_edges` keys (y, w), made on first use and kept: the repair's
    loops read a node's edges with one call and no slot lookup per edge.
    The graph holds one (`GraphStore.edge_cache`, read through `_near_of`)
    and drops the lists of the nodes whose edges it writes."""

    __slots__ = ("graph", "slot")

    def __init__(self, graph: GraphStore, slot: dict):
        super().__init__()
        self.graph, self.slot = graph, slot

    def __missing__(self, x):
        slot = self.slot
        edges = self[x] = [(slot[y], w, y) for y, w in self.graph.out_edges(x)]
        return edges


def _near_of(store: RuleStore, graph: GraphStore) -> _Near:
    """The graph's edge cache over the store's slots: the one the graph
    holds, or a new one it then holds, where it holds none or one over
    another slot map."""
    near = graph.edge_cache
    if near is None or near.slot is not store.slot:
        near = graph.edge_cache = _Near(graph, store.slot)
    return near


class _RowItems(ItemsView):
    """The view's (pair, rule) items, made one row at a time: one pass
    over each row's columns, in the order of the view's iteration."""

    __slots__ = ()

    def __iter__(self):
        store = self._mapping._store
        ids, neg = store.ids, store._neg
        rule = ForwardingRule._make
        for d, (cost, length, nxt) in store._est.items():
            for i in _live(nxt):
                s, c = ids[i], cost[i]
                yield (s, d), rule((s, d, ids[nxt[i]], -c if neg else c, length[i], 1))


class EstablishedView(Mapping):
    """Read-only (src, dst) -> ForwardingRule view over a RuleStore: the
    pair (s, d) reads the row of d at the slot of s.

    Stable between epochs; reads while an epoch is being stepped are
    undefined.  The store holds no (src, dst) tuples, so iteration makes
    each pair afresh, row by row, in slot order, and `items()` makes the
    rules of each row in one pass over its columns.
    """

    __slots__ = ("_store",)

    def __init__(self, store: RuleStore):
        self._store = store

    def __getitem__(self, pair) -> ForwardingRule:
        store = self._store
        s, d = pair
        cost, length, nxt = store._est[d]
        i = store.slot[s]
        j = nxt[i]
        if j < 0:
            raise KeyError(pair)
        c = cost[i]
        return ForwardingRule(s, d, store.ids[j], -c if store._neg else c, length[i], 1)

    def row(self, d: NodeId) -> tuple[Row, dict, list, bool]:
        """The row of d (one with no slots if d has none), the slot of each
        node, the node of each slot, and whether the row's costs are
        negated: what `path_retrieval.walk` follows."""
        store = self._store
        return store._est.get(d, _NO_ROW), store.slot, store.ids, store._neg

    def rows(self) -> tuple[Iterable, list, bool]:
        """Each destination's `Row` as (d, row) in view order, the node of
        each slot, and whether the rows' costs are negated: the pairs of
        the view row by row, in the columns the store holds."""
        store = self._store
        return store._est.items(), store.ids, store._neg

    def items(self) -> ItemsView:
        return _RowItems(self)

    def __iter__(self):
        ids = self._store.ids
        return chain.from_iterable(
            zip(map(ids.__getitem__, _live(row[2])), repeat(d))
            for d, row in self._store._est.items()
        )

    def __len__(self) -> int:
        return self._store.rule_count()


@dataclass
class EpochStats:
    """What one `step_epoch` did: destinations whose repair had work,
    destinations solved afresh by a large epoch's re-solve, rules dropped
    for recomputation, heap entries popped and those skipped as stale,
    groups whose rule changed, the rules established after it, and the
    `perf_counter_ns` spent ingesting events, invalidating, recomputing
    (a re-solve counts here) and diffing."""

    destinations_repaired: int = 0
    destinations_resolved: int = 0
    groups_invalidated: int = 0
    heap_pops: int = 0
    stale_pops: int = 0
    groups_changed: int = 0
    rules: int = 0
    ingest_ns: int = 0
    invalidate_ns: int = 0
    recompute_ns: int = 0
    diff_ns: int = 0


class RuleStore:
    """The established best rule per (src, dst) group, as one `Row` per
    live destination: slot `slot[x]` of `_est[d]` holds the rule of (x,
    d), or the empty rule, and `ids[i]` is the node of slot i.  Each
    row's cost column is an `array` of typecode `_code` (`cost_typecode`),
    or a list where that is None.  Rows are shared with snapshots and
    never changed once their epoch ends (`_row`).  The rule count is kept
    from each epoch's batch."""

    __slots__ = ("strategy", "epoch", "last_stats", "slot", "ids", "_est", "_neg",
                 "_fp_kind", "_code", "_rules")

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        self.epoch = -1
        self.last_stats: EpochStats | None = None
        self.slot: dict[NodeId, int] = {}
        self.ids: list[NodeId] = []
        self._neg = strategy.maximize
        self._fp_kind = path_cost_kind(strategy)
        self._code = cost_typecode(strategy)
        self._est: dict[NodeId, Row] = {}
        self._rules = 0

    # --- views

    def established_rules(self) -> EstablishedView:
        return EstablishedView(self)

    def rule_count(self) -> int:
        return self._rules

    # --- maintenance

    def check_integrity(self, graph: GraphStore) -> None:
        """Check the fixpoint equation on the graph: `slot` and `ids` are
        inverse, as many slots as ids and `slot[ids[i]] == i`; every node
        has a slot; every row's columns are as long as the slots, its next
        slots lie among them, its entries without a rule hold the empty
        rule in every column, and its rules name live nodes; and every
        ordered pair of nodes holds a rule exactly when it has an offer
        (`_best_offer`), the smallest one.  Reads each destination's row
        once.  Raises IntegrityError naming the first row or group that
        breaks it."""
        nodes, slot, ids = graph.nodes, self.slot, self.ids
        n = len(ids)
        if len(slot) != n:
            raise IntegrityError(f"{len(slot)} nodes have a slot but {n} slots hold a node")
        for i, v in enumerate(ids):
            if slot.get(v) != i:
                held = f"whose slot is {slot[v]}" if v in slot else "which has no slot"
                raise IntegrityError(f"slot {i} holds {v}, {held}")
        for x in nodes:
            if x not in slot:
                raise IntegrityError(f"node {x} has no slot")
        for d, row in self._est.items():
            if d not in nodes:
                raise IntegrityError(f"the row of {d} names a removed node")
            if any(len(col) != n for col in row):
                raise IntegrityError(f"a column of the row of {d} is not as long as the slots")
            cost, length, nxt = row
            if any(j >= n for j in nxt):
                raise IntegrityError(f"the row of {d} names a next past the slots")
            for i in compress(count(), map((-1).__ge__, nxt)):
                if (cost[i], length[i], nxt[i]) != _NO_RULE:
                    raise IntegrityError(
                        f"({ids[i]}, {d}) has no rule but is not the empty rule")
            for s in map(ids.__getitem__, _live(nxt)):
                if s not in nodes:
                    raise IntegrityError(f"({s}, {d}) names a removed node")
        near = _Near(graph, slot).__getitem__
        nothing = _empty_row(self._code, n)
        for d in nodes:
            row = self._est.get(d, nothing)
            for x in nodes:
                top = _best_offer(self, row, near, x, d)[0]
                key = _key(row, slot[x], ids)
                if key == top:
                    continue
                if top is None:
                    raise IntegrityError(f"established {(x, d)} has no candidates")
                if key is None:
                    raise IntegrityError(f"{(x, d)} has candidates but no rule")
                raise IntegrityError(f"stale selection for {(x, d)}")


def _tautology_key(strategy: Strategy, node: NodeId) -> tuple:
    cost = strategy.tautology_cost
    return (-cost if strategy.maximize else cost, 0, node)


def initialize(topology: GraphStore, strategy: Strategy) -> RuleStore:
    """Build the established rules of a topology snapshot: the fixpoint
    that `step_epoch` then maintains.

    The store gives its slots once, in sorted id order, and every row is
    solved over them.  The built-in path costs are solved for every
    destination at once (`_all_fixpoint`); a custom path cost, and the few
    inputs that solve would key differently, take one `search` per
    destination, and the rule count is read from the rows.  Both give the
    same keys, float for float and int for int.  Raises
    InvalidWeightError naming the first weight, in `links()` order,
    outside the strategy's domain.
    """
    if not topology.nodes:
        raise DeltaPathError("cannot initialize on an empty topology")
    store = RuleStore(strategy)
    _take_slots(store, topology.nodes)
    rules = _all_fixpoint(store, topology, _slots_of(store, topology.nodes))
    if rules is None:
        for d in store.ids:
            store._est[d] = search(store, topology, d)
        rules = sum(len(nxt) - nxt.count(-1) for _c, _l, nxt in store._est.values())
    store._rules = rules
    store.epoch = 0
    return store


def _take_slots(store: RuleStore, nodes) -> bool:
    """Give each of `nodes` that has no slot the next one, in id order;
    whether any did."""
    new = sorted(v for v in nodes if v not in store.slot)
    store.slot.update(zip(new, count(len(store.ids))))
    store.ids += new
    return bool(new)


def _slots_of(store: RuleStore, nodes) -> np.ndarray:
    """The slots of `nodes`, ascending."""
    return np.sort(np.fromiter(map(store.slot.__getitem__, nodes), np.intp, len(nodes)))


# an epoch that changes at least this many links, and this share of the
# live links, re-solves every live destination as set-up does
# (`_all_fixpoint`) in place of the repair; a re-weighted link counts
# twice, as the edge it retracts and the one it adds.  Chosen from the
# crossover of the two, measured on fat-trees k=4 to 16 and jellyfish
# n=64 and n=200 (CHANGES.md): past 1600 live links the share decides,
# and below that the count, which covers the re-solve's fixed cost
_RESOLVE_LINKS = 16
_RESOLVE_SHARE = 0.01
# set-up's (nodes x destinations) matrices stay near this many elements
# whatever the graph's size: a block of destinations solved together is as
# many of the BFS's 64-destination words as fit, at least one and at most
# every node
_BLOCK_ELEMENTS = 1 << 18
# a kernel's (edges x destinations) temporaries stay near this many
# elements, 512 KiB of float64 or 256 KiB of float32 costs, so that they
# stay in a core's L2 cache: it takes each degree class in runs of rows
# that fit, at least one (`_layout`)
_RUN_ELEMENTS = 1 << 16


class _Layout(NamedTuple):
    """The directed edges (u, x, w) of the links that count, sorted by
    (degree of x, x, u).  `nodes` holds the nodes with edges in that
    order, and `near` each edge's u as its place in `nodes`.  The nodes of
    one degree k are a class: their edges form a dense (nodes x k) table,
    row i holding the k neighbours of the class's i-th node.  `runs`
    gives each class as `(rows, edges, k)`, slices of `nodes` and of the
    edges, cut into runs of whole rows where a class's (edges x
    destinations) array would pass `_RUN_ELEMENTS`, so that a kernel makes
    one reduction along the degree axis per run, over temporaries that
    stay in cache.  A run is one row where a single row passes it.
    `classes` gives each class whole, for the BFS's levels, whose arrays
    hold 64 destinations to an element.  The block of destinations, and
    with it every (nodes x destinations) matrix, is bounded apart, by
    `_BLOCK_ELEMENTS`."""

    nodes: np.ndarray
    us: np.ndarray
    ws: np.ndarray
    near: np.ndarray
    runs: list
    classes: list


def _layout(n, a, b, weight, width) -> _Layout:
    """The layout of the links (a, b, weight) between slots, each taken
    both ways, for blocks of `width` destinations."""
    xs, us, ws = np.r_[a, b], np.r_[b, a], np.r_[weight, weight]
    degree = np.bincount(xs, minlength=n)
    order = np.lexsort((us, xs, degree[xs]))
    us, ws = us[order], ws[order]
    nodes = np.argsort(degree, kind="stable")[n - np.count_nonzero(degree):]
    place = np.empty(n, dtype=np.intp)
    place[nodes] = np.arange(len(nodes))
    # the first edge of each of `nodes`, and one past the last
    offset = np.r_[0, np.cumsum(degree[nodes])].tolist()
    runs, classes = [], []
    end = 0
    for k, count in zip(*map(np.ndarray.tolist, np.unique(degree[nodes], return_counts=True))):
        step = max(1, _RUN_ELEMENTS // (k * width))
        for lo in range(end, end + count, step):
            hi = min(lo + step, end + count)
            runs.append((slice(lo, hi), slice(offset[lo], offset[hi]), k))
        classes.append((slice(end, end + count), slice(offset[end], offset[end + count]), k))
        end += count
    return _Layout(nodes, us, ws, place[us], runs, classes)


def _all_fixpoint(store: RuleStore, topology: GraphStore, dests: np.ndarray,
                  journal: dict | None = None) -> int | None:
    """Write the rows of the destinations at the slots `dests`, nodes of
    the topology, with every rule of a built-in path cost, solved for all
    of them at once, and return the number of rules they hold; or decline,
    None, where the repair must decide.  The store's slots cover the
    topology's nodes, in any order, and may hold removed nodes: such a
    dead slot has no edges, so no row reaches it.  Without a `journal`
    (set-up, into an empty store) each row is written as solved; with one
    (an epoch's re-solve, into the live store) it replaces the old row
    only where they differ, journaled (`_replace_row`), so that a failure
    in a later block leaves `_restore` the old rows to put back.

    The links are read once, as arrays.  Every weight is first checked
    against the strategy's domain, whatever the path cost: the first one
    outside it, in `links()` order, raises InvalidWeightError.  An edge
    (u, x, w) lets x route through u; of parallel links the one that
    counts is the lightest under "sum" and the widest under "min", picked
    by one `lexsort`.  The edges that count are laid out by the degree of
    x (`_layout`), so that each set-up kernel makes one reduction along
    the degree axis per class, or per run of a large one.  The
    destinations are solved a block at a time: as many 64-destination
    words as keep the block's (nodes x destinations) matrices within
    `_BLOCK_ELEMENTS`, at least one and at most every node.  A run is as
    many rows as keep its (edges x destinations) temporaries within
    `_RUN_ELEMENTS`, at least one.  Per strategy there is one step: a matrix C
    of each node's best cost toward each destination, and the test for an
    edge to be tight, that is to carry a best path (C[x, d] is what u's
    cost extended by w gives).

    - "sum" with every weight equal to w: a path's cost depends only on
      its hop count, so the BFS runs over every edge, with no test, and C
      is the cost of L hops: L * w for int weights, exact as the repair's
      sums are, and for float ones read from the repair's fold
      w + (w + ... (w + 0)).  Nothing relaxes.
    - "sum" otherwise: Bellman's relaxation toward each block of
      destinations (`_relaxed_costs`) forms every cost as w + C[u, d], the
      addition the repair makes, so the costs are the same floats.  Tight:
      w + C[u, d] == C[x, d].  A sweep lowers C[x, d] only strictly, and
      with weights >= 0 a walk back through x offers no less than x
      holds, so every finite cost is the weight of a simple path, at most
      the links' total, and every sum w + C[u, d] at most twice that, the
      weights' total with each link counted both ways.  Where every
      weight is integral and that is at most 2**24, the weights and C are
      float32, which holds every such sum exactly: both widths make the
      same additions and comparisons, so the same sweeps, tight edges and
      costs, and C goes back to float64 before its rows are filled.  Int
      costs take the same path, exact below 2**53 by the guard, and C
      comes back as int.
    - "min": the widest width between two nodes is the smallest weight on
      their path in a maximum spanning tree (Hu, "The maximum capacity
      route problem", Operations Research 1961), so Kruskal over the links
      in descending width fills C (`_widest_widths`), once per call.  Tight:
      min(w, C[u, d]) == C[x, d].  Keys hold -C, and a width of 0 is keyed
      -0.0, as the repair keys it.

    A BFS over the tight edges then gives the fewest hops L and each x's
    next, the u of smallest id over a tight edge with L[u, d] + 1 ==
    L[x, d]: the key the heap would settle (`_tight_bfs`, which ranks the
    slots by id with one `argsort`).  Each block copies its rows' columns
    from these arrays (`_fill_rows`); where every weight is equal, C is
    read from L.

    Declined, so that `initialize` repairs from empty and an epoch
    repairs its trees: a custom path cost;
    under "sum" a nonzero tautology cost, weights whose total is not
    finite (an infinite weight, or path costs that could overflow), a
    negative weight (a cycle over its link and back would never let the
    relaxation end), or an int tautology cost over weights that are not
    all int or whose total (each link counted both ways) is 2**53 or more;
    under "min" a tautology cost other than the float inf,
    a weight that is not a float (the repair keeps an int width int) or
    has its sign bit set.  Only the links that count are looked at.
    """
    strategy = store.strategy
    links = topology.links()
    m = len(links)
    ends_a, ends_b, given = zip(*links) if m else ((), (), ())
    given = np.fromiter(given, object, m)
    with np.errstate(invalid="ignore"):  # a nan is outside every domain
        outside = ~strategy.weight_domain.contains(given)
    if outside.any():
        strategy.validate_weight(given[outside.argmax()])
    kind = store._fp_kind
    widest = kind == "min"
    taut = strategy.tautology_cost
    integral = type(taut) is int and not widest
    if kind is None or not (integral or type(taut) is float):
        return None
    if taut != (math.inf if widest else 0):
        return None
    ids, index = store.ids, store.slot
    n = len(ids)
    own = _tautology_key(strategy, None)[0]
    if not m:
        # each row holds its destination's own rule alone
        k = len(dests)
        length = np.full((k, n), -1, dtype=np.intc)
        length[np.arange(k), dests] = 0
        cost = np.zeros((k, n), dtype=object)
        cost[np.arange(k), dests] = own
        return _fill_rows(store, dests, cost, length, np.zeros_like(length), journal)
    a = np.fromiter(map(index.__getitem__, ends_a), np.intp, m)
    b = np.fromiter(map(index.__getitem__, ends_b), np.intp, m)
    weight = given.astype(float)
    # by ends, then the lightest ("sum") or widest ("min") first
    order = np.lexsort((-weight if widest else weight, b, a))
    a, b = a[order], b[order]
    first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    order = order[first]
    a, b, weight, given = a[first], b[first], weight[order], given[order]
    if widest:
        refused = set(map(type, given)) != {float} or np.signbit(weight).any()
    else:
        refused = (
            # twice the weights' total with each link counted both ways
            not np.isfinite(4 * weight.sum())
            or (weight < 0).any()
            or integral and not (set(map(type, given)) == {int} and 2 * sum(given) < 2**53)
        )
    if refused:
        return None
    size = min(len(dests), 64 * max(1, _BLOCK_ELEMENTS // (64 * n)))
    uniform = not widest and (weight == weight[0]).all()
    # every sum the relaxation forms is then an integer float32 holds
    narrow = (not (widest or uniform) and (np.floor(weight) == weight).all()
              and 2 * weight.sum() <= 2**24)
    edges = _layout(n, a, b, weight.astype(np.float32) if narrow else weight, size)
    if widest:
        width = _widest_widths(n, a, b, weight)
    elif uniform and not integral:
        # the cost of L hops, folded hop by hop as the repair adds w + c
        by_hops = np.full(n, weight[0])
        by_hops[0] = 0
        np.add.accumulate(by_hops, out=by_hops)
    # where the slots are not in id order: the slot at each place in it,
    # and each slot's place
    by_id = np.argsort(np.array(ids))
    rank = None
    if (by_id != np.arange(n)).any():
        rank = np.empty(n, dtype=np.intp)
        rank[by_id] = np.arange(n)
    rules = 0
    for lo in range(0, len(dests), size):
        block = dests[lo:lo + size]
        # (nodes x destinations)
        if widest:
            cost = width[:, block]
        elif uniform:
            cost = None
        else:
            cost = _relaxed_costs(n, edges, block)
        tight = None if uniform else _tight(cost, edges, widest)
        length, nxt = _tight_bfs(tight, n, block, edges, rank, by_id)
        # (destinations x nodes) from here on: a row per destination
        length = np.ascontiguousarray(length.T)
        nxt = np.ascontiguousarray(nxt.T)
        if uniform:
            # an unreached group's is emptied; int costs are exact, L * w
            cost = length.astype(np.int64) * given[0] if integral else by_hops[length]
        elif widest:
            cost = -width[block]  # the width matrix is symmetric
        else:
            cost = np.ascontiguousarray(cost.T, dtype=np.float64)
            if integral:
                # an unreached group's inf has no int64; it is emptied anyway
                cost[~np.isfinite(cost)] = 0
                cost = cost.astype(np.int64)
        cost[np.arange(len(block)), block] = own
        rules += _fill_rows(store, block, cost, length, nxt, journal)
    return rules


# the numpy type of each `array` typecode a cost column takes
_DTYPES = {"d": np.float64, "q": np.int64}


def _fill_rows(store, dests, cost, length, nxt, journal=None) -> int:
    """Write the rows of one block's destinations from its (destinations
    x nodes) arrays, C-contiguous: the signed cost C, the length L (-1
    where unreached) and the next's slot.  d's own entry is its tautology
    (C[d, d] holds its cost, L 0, next d) and each unreached one the empty
    rule; `cost` and `nxt` are changed to hold them.  Each row's columns
    are one row of each array: an `array` column is copied in one
    `frombytes`, a list column (where the store's costs have no typecode)
    read by `tolist`.  With a `journal` each row goes through
    `_replace_row`, otherwise into the store as it is.  Returns the
    number of rules."""
    ids, code = store.ids, store._code
    k = len(dests)
    unreached = length < 0
    cost[unreached] = _NO_RULE[0]
    nxt[unreached] = _NO_RULE[2]
    nxt[np.arange(k), dests] = dests
    if code is None:
        costs = cost.tolist()
    else:
        costs = _columns(code, np.ascontiguousarray(cost, dtype=_DTYPES[code]))
    lengths = _columns("i", np.ascontiguousarray(length, dtype=np.intc))
    nexts = _columns("i", np.ascontiguousarray(nxt, dtype=np.intc))
    est = store._est
    for i, row in zip(dests.tolist(), zip(costs, lengths, nexts)):
        if journal is None:
            est[ids[i]] = row
        else:
            _replace_row(store, ids[i], row, journal)
    return int(np.count_nonzero(length > 0)) + k


def _replace_row(store, d, new, journal) -> None:
    """Put the re-solved row `new`, as long as the slots, in place of d's
    row, and journal the old one, as `_row` does, with the list of the
    slots whose entries differ in place of a set of the slots written:
    the batch is built from them alone.  A row equal to the old one is
    dropped, and the old row kept unjournaled; a row with fewer slots, or
    none, is always replaced."""
    old = store._est.get(d)
    n = len(new[2])
    if old is None:
        was = _empty_row(store._code, n)
    else:
        was = old if len(old[2]) == n else _grown(old, n)
    changed = _changed_slots(was, new)
    if changed or was is not old:
        journal[d] = (old, changed)
        store._est[d] = new


def _changed_slots(a: Row, b: Row) -> list[int]:
    """The slots whose entries differ between two rows as long as each
    other, in slot order.  An `array` column is compared over its buffer,
    a list column element by element, as the batch compares its costs."""
    (ac, al, an), (bc, bl, bn) = a, b
    differ = np.frombuffer(al, dtype=np.intc) != np.frombuffer(bl, dtype=np.intc)
    differ |= np.frombuffer(an, dtype=np.intc) != np.frombuffer(bn, dtype=np.intc)
    if isinstance(ac, array):
        dtype = _DTYPES[ac.typecode]
        differ |= np.frombuffer(ac, dtype=dtype) != np.frombuffer(bc, dtype=dtype)
    else:
        differ |= np.fromiter(map(ne, ac, bc), dtype=bool, count=len(ac))
    return np.flatnonzero(differ).tolist()


def _columns(code, matrix):
    """Each row of the C-contiguous 2-D `matrix` as an `array` of typecode
    `code`, copied in one `frombytes`."""
    flat = memoryview(matrix).cast("B")
    step = matrix.shape[1] * matrix.itemsize
    for lo in range(0, len(flat), step):
        column = array(code)
        column.frombytes(flat[lo:lo + step])
        yield column


def _relaxed_costs(n, edges, dests):
    """The least costs toward `dests`, as an (n x destinations) array of
    the weights' float type (`edges.ws`), +inf where unreached, by
    Bellman's relaxation ("On a routing problem", Quarterly of Applied
    Mathematics 1958).

    Each sweep sets C[x, d] = min(C[x, d], min over x's edges (u, x, w) of
    w + C[u, d]) for the nodes with a neighbour whose cost fell in the
    sweep before, and the loop ends when a sweep changes nothing.  A sweep
    takes the layout's runs in turn (`_layout`: the rows of one degree
    class whose (edges x destinations) temporaries fit `_RUN_ELEMENTS`),
    each in one gather of the neighbours' costs, (rows x degree x
    destinations), and one minimum along the degree axis.  A run writes
    its costs before the next one gathers, so later runs read the costs
    that earlier runs lowered in the same sweep, and more runs carry a
    cost further in each sweep.  The (n x destinations) matrix is one
    block's (`_BLOCK_ELEMENTS`).  Every cost is formed by the repair's
    addition w + C[u, d], and the fixpoint, the largest below the start,
    does not depend on the order of the sweep: the same floats.

    Each run's nodes, neighbour table and weights are sliced once per
    call.  A sweep takes a run's rows whole where every one is live, and
    compresses them to the live ones otherwise; it stores the minimum of
    the new and the old costs for every row it took, so that a row whose
    costs did not fall is written back unchanged, and records which rows
    fell in the same pass."""
    k = len(dests)
    cost = np.full((n, k), np.inf, dtype=edges.ws.dtype)
    cost[dests, np.arange(k)] = 0
    runs = [(edges.nodes[rows], edges.us[run].reshape(-1, degree),
             edges.ws[run].reshape(-1, degree, 1)) for rows, run, degree in edges.runs]
    fell = np.zeros(n, dtype=bool)
    fell[dests] = True
    while fell.any():
        swept, fell = fell, np.zeros(n, dtype=bool)
        for at, near, w in runs:
            live = swept[near].any(axis=1)
            if not live.all():
                if not live.any():
                    continue
                at, near, w = at[live], near[live], w[live]
            offer = np.take(cost, near, axis=0)
            offer += w
            new = offer.min(axis=1)
            old = cost[at]
            # a node is in one run alone, so this sets its flag for the sweep
            fell[at] = (new < old).any(axis=1)
            cost[at] = np.minimum(new, old, out=new)
    return cost


def _tight(cost, edges, widest):
    """Which edges (u, x, w) carry a best path toward each destination of
    the (nodes x destinations) cost matrix: w + C[u, d] == C[x, d], or
    min(w, C[u, d]) == C[x, d] for widths, as bits (`_bits`), one row of
    words per edge."""
    k = cost.shape[1]
    words = -(-k // 64)
    tight = np.empty((len(edges.us), words), dtype=np.uint64)
    for rows, run, degree in edges.runs:
        offer = cost[edges.us[run]]
        w = edges.ws[run, None]
        if widest:
            np.minimum(offer, w, out=offer)
        else:
            offer += w
        own = cost[edges.nodes[rows]]
        tight[run] = _bits((offer.reshape(-1, degree, k) == own[:, None]).reshape(-1, k), words)
    return tight


def _widest_widths(n, us, xs, weights):
    """The (n x n) widest widths of undirected edges (u, x): +inf on the
    diagonal, -inf between components.  Kruskal takes the edges in
    descending width; an edge that merges two components is the narrowest
    link of every widest path across them, so it sets their whole block."""
    width = np.full((n, n), -np.inf)
    np.fill_diagonal(width, np.inf)
    root = list(range(n))
    members: list[list[int]] = [[i] for i in range(n)]
    order = np.argsort(-weights).tolist()
    us, xs, ws = us.tolist(), xs.tolist(), weights.tolist()
    for e in order:
        a, b = root[us[e]], root[xs[e]]
        if a == b:
            continue
        if len(members[a]) < len(members[b]):
            a, b = b, a
        big, small = members[a], members[b]
        rows, cols = np.array(big), np.array(small)
        width[rows[:, None], cols] = ws[e]
        width[cols[:, None], rows] = ws[e]
        for v in small:
            root[v] = a
        big += small
        members[b] = []
    return width


def _bits(flags, words):
    """Pack (rows x columns) bools 64 columns to a uint64 word, `words`
    words a row, the bits past the last column clear."""
    rows, cols = flags.shape
    if cols % 8:
        # whole bytes a row, so that one flat packbits serves
        whole = np.zeros((rows, cols + -cols % 8), dtype=bool)
        whole[:, :cols] = flags
        flags = whole
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, :flags.shape[1] // 8] = np.packbits(flags, bitorder="little").reshape(rows, -1)
    return packed.view(np.uint64)


def _flags(words, k):
    """The first `k` bits of each row of uint64 `words` (`_bits`), as a
    (rows x k) array of 0 and 1, uint8."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=k, bitorder="little")


def _tight_bfs(tight, n, dests, edges, rank, by_id):
    """Over the tight edges (`_tight`'s bits), or over every edge where
    `tight` is None: each node's fewest hops toward each of `dests` (-1 if
    unreached) and, where that is positive, the slot of its next with one
    hop fewer and the smallest id, as (nodes x destinations) arrays, the
    hops of the integer type the next's keys took.  `rank` gives each
    slot's place in id order and `by_id` the slot at each place; `rank`
    is None where the slots are in id order.

    The frontier and the nodes not yet seen are bits like the tight
    edges, 64 destinations to a uint64 word (`_bits`).  A level gathers
    the frontier's words over every edge's u and ORs them along the degree
    axis of each class of the layout.  It ORs the nodes it reaches into
    the bit planes of its number, plane j holding bit j of each node's
    fewest hops, so that the hops are unpacked once per plane when the
    search ends, and once for the nodes never reached.

    A reached node's fewest hops L are one more than the least among its
    tight neighbours', so one minimum of the key L[u] * n + rank[u] along
    the degree axis of each run names its next, by rank, which `by_id`
    maps back to a slot.  A reached node's tight neighbours are reached,
    and over every edge all its neighbours are; an edge that is not tight
    reads `levels * n` more, past every tight one, where `levels`, one
    past the deepest level, bounds every L.  Every key then lies in
    [-n, levels * n) plus that offset, and the least one less x's own
    (L[x] - 1) * n below (levels + 2) * n plus it, an unreached x's too
    (its next is emptied), so the keys take the narrowest integer type
    that holds that.  Over every edge there is no offset: a fat-tree k=48
    (2880 nodes, 4 levels) keys in 16 bits."""
    k = len(dests)
    words = -(-k // 64)
    nodes, near = edges.nodes, edges.near
    # in the order of `nodes`, which holds every node with an edge
    source = nodes[:, None] == dests
    frontier = _bits(source, words)
    unseen = ~frontier
    hit = np.empty((len(near), words), dtype=np.uint64)
    reached = np.empty_like(frontier)
    planes = []
    levels = 0
    while True:
        levels += 1
        np.take(frontier, near, axis=0, out=hit)
        if tight is not None:
            hit &= tight
        for rows, run, degree in edges.classes:
            np.bitwise_or.reduce(hit[run].reshape(-1, degree, words), axis=1,
                                 out=reached[rows])
        reached &= unseen
        if not reached.any():
            break
        unseen ^= reached
        # plane j holds bit j of each reached node's level: level 2**j opens it
        if levels >> len(planes):
            planes.append(np.zeros_like(reached))
        for j, plane in enumerate(planes):
            if levels >> j & 1:
                plane |= reached
        frontier, reached = reached, frontier
    far = 0 if tight is None else levels * n
    bound = (levels + 2) * n + far
    key = np.int16 if bound <= 2**15 else np.int32 if bound <= 2**31 else np.int64
    length = np.zeros((len(nodes), k), dtype=key)
    for j, plane in enumerate(planes):
        length += np.left_shift(_flags(plane, k), j, dtype=key)
    length -= _flags(unseen, k)
    # the next: the least key over x's edges
    keyed = length * n
    keyed += (nodes if rank is None else rank[nodes]).astype(key)[:, None]
    first = np.empty_like(length)
    for rows, run, degree in edges.runs:
        code = np.take(keyed, near[run], axis=0)
        if tight is not None:
            code += np.multiply(_flags(~tight[run], k), far, dtype=key)
        np.minimum.reduce(code.reshape(-1, degree, k), axis=1, out=first[rows])
    # the rank left of x's key past its L[x] - 1 hops (what an unreached
    # node reads is emptied)
    first -= (length - 1) * n
    if rank is not None:
        first = by_id.take(first, mode="wrap")
    hops = np.full((n, k), -1, dtype=key)
    hops[nodes] = length
    hops[dests, np.arange(k)] = 0
    nxt = np.zeros((n, k), dtype=np.int32)
    nxt[nodes] = first
    return hops, nxt


def search(
    store: RuleStore,
    graph: GraphStore,
    dst: NodeId,
    skip_nodes: frozenset[NodeId] = frozenset(),
    skip_links: frozenset[tuple[NodeId, NodeId]] = frozenset(),
    until: NodeId | None = None,
) -> Row:
    """Every node's rule toward `dst` on the graph without `skip_nodes` and
    without the links `skip_links` (both directions, all parallel copies),
    as a `Row` over the slots of `store` (one with no slots where `dst` is
    not routed to).  The slots must cover the graph's nodes, as
    `initialize` and `step_epoch` keep them; the store's rows are not read
    or written.

    `_repair` of an empty tree under the store's strategy, over the
    graph's edge cache (`_near_of`), filtered only next to a masked node
    and at the ends of a masked link.  Under a built-in path cost it stops
    once `until` settles, whose rule and path are then in the row.  A
    custom path cost that can improve a path by extending it raises
    NonConvergenceError.
    """
    if dst not in graph.nodes or dst in skip_nodes:
        return _NO_ROW
    near = _near_of(store, graph).__getitem__
    if skip_nodes or skip_links:
        cut = set(skip_links) | {(b, a) for a, b in skip_links}
        close = {a for a, _b in cut}
        for n in skip_nodes:
            close.update(x for x, _w in graph.out_edges(n))
        masked = {
            u: [(j, w, x) for j, w, x in near(u) if x not in skip_nodes and (u, x) not in cut]
            for u in close
        }
        full = near

        def near(u):
            edges = masked.get(u)
            return full(u) if edges is None else edges

    tree = RuleStore(store.strategy)  # the store's slots, none of its rows
    tree.slot, tree.ids = store.slot, store.ids
    _repair(tree, near, dst, (), True, (), {}, EpochStats(), until)
    return tree._est[dst]


def _check_monotone(tree, near, fp, neg):
    """Raise unless extending each settled node's signed cost, in `tree`,
    over each of its edges gives a cost no smaller than the one
    extended."""
    for u, signed in tree.items():
        cost = -signed if neg else signed
        for _j, w, x in near(u):
            if x not in tree:
                continue  # not settled by this repair
            c = fp(w, cost)
            if (-c if neg else c) < signed:
                raise NonConvergenceError(
                    f"extending the rule of {u} over edge ({x}, {u}) improves "
                    f"it; strategy is not convergent"
                )


def step_epoch(
    store: RuleStore, graph: GraphStore, events: list[TopologyEvent]
) -> RuleDeltaBatch:
    """Process one epoch's event batch to fixpoint; returns the net change
    to the established view, sorted, with delta -1 for retired rules and
    +1 for their replacements.  What the epoch did is left in
    `store.last_stats`.

    A large epoch re-solves its live destinations instead of repairing
    their trees (`_RESOLVE_LINKS`, `_RESOLVE_SHARE`); `destinations_resolved`
    counts them.

    If an event, the edge update, the repair or re-solve, or building the
    batch fails, the graph and the store are left as they were (`epoch`,
    `last_stats`, the rule count and the slots included) and the error
    propagates: a re-solved row is journaled as a repaired one is, so
    `_restore` puts the old rows back either way.
    """
    strategy = store.strategy
    stats = EpochStats()
    t0 = perf_counter_ns()
    nodes = dict(graph.nodes)
    slots = len(store.ids)
    # d -> (its row before the epoch, the slots written: a set, or a list from `_replace_row`)
    journal: dict[NodeId, tuple[Row | None, set | list]] = {}
    applied: list[list[EdgeRecord]] = []
    try:
        net: dict[tuple[NodeId, NodeId, float], int] = {}
        # each event resolves against the graph as the earlier ones left it
        for ev in events:
            done = graph.apply_deltas(graph.ingest_event(ev, strategy.link_cost))
            applied.append(done)
            for a, b, w, delta, _p in done:
                if delta > 0:
                    strategy.validate_weight(w)
                net[(a, b, w)] = net.get((a, b, w), 0) + delta
        # a link's change is the same change to its edge each way
        delta_g = sorted(
            (edge, d) for (a, b, w), d in net.items() if d for edge in ((a, b, w), (b, a, w))
        )
        # a node removed and re-added in the epoch is in neither set
        removed = nodes.keys() - graph.nodes.keys()
        born = graph.nodes.keys() - nodes.keys()
        grew = _take_slots(store, born)
        t1 = t2 = perf_counter_ns()
        # each changed link is in `delta_g` both ways
        changed = len(delta_g) // 2
        if (changed >= max(_RESOLVE_LINKS, _RESOLVE_SHARE * len(graph.links()))
                and store._fp_kind is not None
                and _all_fixpoint(store, graph, _slots_of(store, graph.nodes), journal) is not None):
            # a large epoch: every live destination was solved afresh
            for n in removed:
                _retire(store, n, journal)
            stats.destinations_resolved = len(graph.nodes)
            dropped = {}
        else:
            if grew:
                for d in list(store._est):
                    _row(store, d, journal)  # as long as the new slots
            dropped = _invalidate(store, graph, removed, delta_g, journal)
            t2 = perf_counter_ns()
            added = [edge for edge, delta in delta_g if delta > 0]
            # an added edge can improve a route toward any destination
            offers = _edge_offers(store, added) if added else {}
            near = _near_of(store, graph).__getitem__
            for d in {d for d, xs in dropped.items() if xs} | born | offers.keys():
                _repair(store, near, d, dropped.get(d, ()), d in born, offers.get(d, ()),
                        journal, stats)
        t3 = perf_counter_ns()
        neg = store._neg
        ids = store.ids
        n = len(ids)
        nothing = _empty_row(store._code, n)
        batch: RuleDeltaBatch = []
        rule = ForwardingRule._make
        changed = rules = 0
        for d, (old_row, written) in journal.items():
            if old_row is None:
                old_row = nothing
            elif len(old_row[2]) < n:
                old_row = _grown(old_row, n)
            oc, ol, on = old_row
            nc, nl, nn = store._est.get(d, nothing)
            for i in written:
                was, now = on[i], nn[i]
                c, e, h, k = oc[i], nc[i], ol[i], nl[i]
                # an empty entry holds the same in every column
                if was == now and c == e and h == k:
                    continue
                changed += 1
                s = ids[i]
                if was >= 0:
                    rules -= 1
                    batch.append(rule((s, d, ids[was], -c if neg else c, h, -1)))
                if now >= 0:
                    rules += 1
                    batch.append(rule((s, d, ids[now], -e if neg else e, k, 1)))
        batch.sort()
        t4 = perf_counter_ns()
        stats.groups_changed = changed
        stats.rules = store._rules + rules
        stats.groups_invalidated += sum(len(xs) for xs in dropped.values())
        stats.ingest_ns = t1 - t0
        stats.invalidate_ns = t2 - t1
        stats.recompute_ns = t3 - t2
        stats.diff_ns = t4 - t3
    except BaseException:
        _restore(store, journal, slots)
        for done in reversed(applied):
            graph.undo_deltas(done)
        graph.nodes.clear()
        graph.nodes.update(nodes)
        raise
    # committed only once the batch exists
    store.epoch += 1
    store._rules = stats.rules
    store.last_stats = stats
    return batch


# --- repair ------------------------------------------------------------------


def _row(store, d, journal) -> tuple[Row, set]:
    """The row of d to write, and the set of slots written to it this
    epoch.  The first call for d in an epoch replaces the row with a copy
    as long as the slots (a new row with no rule if d has none) and
    journals the old row object with that set, so a row is never changed
    once its epoch ends."""
    est = store._est
    entry = journal.get(d)
    if entry is None:
        old = est.get(d)
        entry = journal[d] = (old, set())
        n = len(store.ids)
        est[d] = _empty_row(store._code, n) if old is None else _grown(old, n)
    return est[d], entry[1]


def _restore(store, journal, slots) -> None:
    """Put back every journaled row, drop the rows the epoch made, and
    take back the slots past the first `slots`."""
    est = store._est
    for d, (old, _written) in journal.items():
        if old is None:
            est.pop(d, None)
        else:
            est[d] = old
    for v in store.ids[slots:]:
        del store.slot[v]
    del store.ids[slots:]


def _retire(store, n, journal) -> None:
    """Drop the row of the removed node n, if it has one, journaled with
    every slot it holds a rule at."""
    if n in store._est:
        row, written = _row(store, n, journal)
        written.update(_live(row[2]))
        del store._est[n]


def _invalidate(store, graph, removed, delta_g, journal) -> dict[NodeId, list]:
    """Phase 1: retire the groups of the removed nodes and of the nodes
    toward them, then, per destination, drop the rules that lost their
    cost over a retracted edge.  Returns destination -> nodes dropped."""
    est, slot = store._est, store.slot
    empty = _NO_RULE
    for n in removed:
        i = slot[n]
        _retire(store, n, journal)
        for d in list(est):
            if est[d][2][i] >= 0:
                (cost, length, nxt), written = _row(store, d, journal)
                cost[i], length[i], nxt[i] = empty
                written.add(i)
    roots: dict[NodeId, list] = {}
    for (y, x, _w), delta in delta_g:
        if delta < 0 and x in graph.nodes:
            i, j = slot[x], slot[y]
            for d, (cost, length, nxt) in est.items():
                if nxt[i] == j:
                    roots.setdefault(d, []).append((cost[i], length[i], x))
    near = _near_of(store, graph).__getitem__
    return {d: _drop_affected(store, near, d, heap, journal) for d, heap in roots.items()}


def _drop_affected(store, near, d, suspects, journal) -> list[NodeId]:
    """Decide, in the order of their (signed cost, length, node), which
    `suspects` lose their cost and length toward d.  A node keeps them
    while some neighbour that keeps its rule extends to the same cost and
    length (a tight neighbour): then only its next moves, to the tight
    neighbour of smallest id, and no rule routing through it changes.  A
    node without one is dropped and its children (z is a child of x when
    z's next is x) become suspects.  Keys grow along every path, so a
    node's tight neighbours, one hop shorter, are decided before it
    (Ramalingam and Reps, J. Algorithms 1996)."""
    row, written = _row(store, d, journal)
    rc, rl, rn = row
    slot = store.slot
    strategy = store.strategy
    neg = store._neg
    fp = strategy.path_cost
    kind = store._fp_kind
    heapq.heapify(suspects)
    decided: set[NodeId] = set()
    dropped: list[NodeId] = []
    while suspects:
        cost, length, x = heapq.heappop(suspects)
        if x in decided:
            continue
        decided.add(x)
        nxt = x if x == d and _tautology_key(strategy, d)[:2] == (cost, length) else None
        length -= 1
        # an empty entry's length is -1, which only a tautology's suspect
        # would look for
        for j, w, y in near(x) if length >= 0 else ():
            if rl[j] != length or (nxt is not None and y >= nxt):
                continue
            cy = rc[j]
            if kind == "sum":
                c = w + cy
            elif kind == "min":
                c = -w if w < -cy else cy
            else:
                c = fp(w, -cy if neg else cy)
                if neg:
                    c = -c
            if c == cost:
                nxt = y
        i = slot[x]
        written.add(i)
        if nxt is not None:
            rn[i] = slot[nxt]
            continue
        rc[i], rl[i], rn[i] = _NO_RULE
        dropped.append(x)
        for k, _w, z in near(x):
            if rn[k] == i:
                heapq.heappush(suspects, (rc[k], rl[k], z))
    return dropped


def _beats(key, row, i, ids) -> bool:
    """Whether `key`, a (signed cost, p_length, next id), is smaller than
    the rule at slot i of `row`, or i holds none: the costs decide, and
    the lengths and next ids only where they tie."""
    j = row[2][i]
    if j < 0:
        return True
    c = row[0][i]
    return key[0] < c or key[0] == c and (key[1], key[2]) < (row[1][i], ids[j])


def _best_offer(store, row, near, x, d) -> tuple:
    """The smallest key x can take toward d from the rules of d's row as
    they stand: the tautology when x is d, or a neighbour's rule extended
    by one hop.  Returns (key, neighbour, neighbour's entry as (cost,
    length, next slot)); the neighbour is None for the tautology, and all
    three are None when x has no offer."""
    neg = store._neg
    fp = store.strategy.path_cost
    kind = store._fp_kind
    rc, rl, rn = row
    top = _tautology_key(store.strategy, x) if x == d else None
    via = vkey = None
    for j, w, y in near(x):
        k = rn[j]
        if k < 0:
            continue
        cy = rc[j]
        if kind == "sum":
            c = w + cy
        elif kind == "min":
            c = -w if w < -cy else cy
        else:
            c = fp(w, -cy if neg else cy)
            if neg:
                c = -c
        cand = (c, rl[j] + 1, y)
        if top is None or cand < top:
            top, via, vkey = cand, y, (cy, cand[1] - 1, k)
    return top, via, vkey


def _edge_offers(store, added) -> dict[NodeId, list]:
    """The offers of the added edges (y, x, w) toward each destination:
    y's rule extended over the edge where it beats x's, as `_repair`'s heap
    entries (key, x, y, y's entry as (cost, length, next slot)).
    Destinations without one are left out.  The test of `_beats` is
    written out, and y's length read only where the costs tie: this loop
    runs for every destination, and a call or a read each made a restore
    about 15 % slower."""
    slot, ids = store.slot, store.ids
    neg = store._neg
    kind = store._fp_kind
    fp = store.strategy.path_cost
    edges = [(slot[y], slot[x], y, x, w) for y, x, w in added]
    offers: dict[NodeId, list] = {}
    for d, row in store._est.items():
        rc, rl, rn = row
        for j, i, y, x, w in edges:
            k = rn[j]
            if k < 0:
                continue
            cy = rc[j]
            if kind == "sum":
                c = w + cy
            elif kind == "min":
                c = -w if w < -cy else cy
            else:
                c = fp(w, -cy if neg else cy)
                if neg:
                    c = -c
            h = rn[i]
            if h >= 0:
                ci = rc[i]
                if c > ci or c == ci and (rl[j] + 1, y) >= (rl[i], ids[h]):
                    continue
            length = rl[j]
            offers.setdefault(d, []).append(((c, length + 1, y), x, y, (cy, length, k)))
    return offers


def _repair(store, near, d, dropped, born, offers, journal, stats, until=None) -> None:
    """Phase 2 for one destination over the edges `near` (`_Near`): seed a heap
    with the dropped nodes' and a new node's best offers (`_best_offer`)
    and the added edges' `offers` (`_edge_offers`), then settle nodes in
    key order.  From an empty tree a settled rule is final, and so is its
    path, which settled before it; a built-in path cost stops once `until`
    settles.

    A heap entry remembers the entry (cost, length, next slot) of the
    neighbour it extends and is skipped (and its node reseeded) when that
    entry has changed since.  A node that kept its rule and settles with a
    new key offers it to its neighbours; a child whose rule now extends to
    a worse key goes through phase 1's decision (`_drop_affected`), and
    every node dropped there is reseeded.  A key is compared with a rule
    by `_beats`.
    """
    slot, ids = store.slot, store.ids
    # read only until the heap has work
    row = store._est.get(d) or _empty_row(store._code, len(ids))
    neg = store._neg
    kind = store._fp_kind
    fp = store.strategy.path_cost
    if kind is None:
        until = None  # `_check_monotone` must see every settled edge
    heap: list[tuple] = []
    best: dict[NodeId, tuple] = {}  # smallest key pending per node
    settled: set[NodeId] = set()
    heappop, heappush = heapq.heappop, heapq.heappush

    def offer(cand, x, via, vkey):
        b = best.get(x)
        if b is None or cand < b:
            best[x] = cand
            heappush(heap, (cand, x, via, vkey))

    def seed(x):
        top, via, vkey = _best_offer(store, row, near, x, d)
        if top is not None and _beats(top, row, slot[x], ids):
            offer(top, x, via, vkey)

    if born:
        seed(d)
    for x in dropped:
        seed(x)
    for entry in offers:
        offer(*entry)
    if not heap:
        return
    row, written = _row(store, d, journal)
    rc, rl, rn = row
    stats.destinations_repaired += 1
    pops = stale = 0
    while heap:
        key, x, via, vkey = heappop(heap)
        pops += 1
        if x in settled:
            continue
        if best.get(x) == key:
            del best[x]
        if via is not None:
            v = slot[via]
            if rc[v] != vkey[0] or rl[v] != vkey[1] or rn[v] != vkey[2]:
                stale += 1
                seed(x)
                continue
        i = slot[x]
        if not _beats(key, row, i, ids):
            continue
        settled.add(x)
        written.add(i)
        signed, length, nid = key
        j = slot[nid]
        rc[i], rl[i], rn[i] = signed, length, j
        if x == until:
            break
        mine = (signed, length, j)
        cost = -signed if neg else signed
        length += 1
        for k, w, z in near(x):
            if z in settled:
                continue
            if kind == "sum":
                c = w + cost
            elif kind == "min":
                c = w if w < cost else cost
            else:
                c = fp(w, cost)
            if neg:
                c = -c
            nz = rn[k]
            # not `_beats` but its test written out: most of an epoch's
            # compares are made here, and a call each made link failures
            # and restores 7-11 % slower
            if nz >= 0:
                cz = rc[k]
                if c > cz or c == cz and (length, x) >= (rl[k], ids[nz]):
                    if nz == i and (c != cz or length != rl[k]):
                        # z's rule extended x's old key, which is gone
                        redo = _drop_affected(store, near, d, [(cz, rl[k], z)], journal)
                        stats.groups_invalidated += len(redo)
                        for u in redo:
                            seed(u)
                    continue
            cand = (c, length, x)
            b = best.get(z)
            if b is None or cand < b:
                best[z] = cand
                heappush(heap, (cand, z, x, mine))
    stats.heap_pops += pops
    stats.stale_pops += stale
    if kind is None:
        _check_monotone({u: rc[slot[u]] for u in settled}, near, fp, neg)


# --- serialization -----------------------------------------------------------


def rules_to_csv(epoch: int, batch: RuleDeltaBatch) -> str:
    """Render an emitted change batch as CSV lines
    `epoch,src,dst,next,p_cost,p_length,delta`."""
    buf = io.StringIO()
    for r in batch:
        buf.write(f"{epoch},{r.src},{r.dst},{r.next},{r.p_cost!r},{r.p_length},{r.delta}\n")
    return buf.getvalue()
