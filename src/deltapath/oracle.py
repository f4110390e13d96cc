"""The from-scratch reference solver used for equivalence testing.

Nothing here shares code with the incremental engine.  Every built-in
strategy is solved by Bellman's synchronous relaxation toward each target
(Bellman, "On a routing problem", Quarterly of Applied Mathematics 1958):
D[s, t] is the best over the edges s -> x of w extended by D[x, t], that
is w + D[x, t] for additive strategies and min(w, D[x, t]) for widest
ones.  That is the extension the engine's repair makes, in the same
order, so every cost is the engine's own float and every tie is exact,
real weights included.  That holds at any size for float weights, which
are summed as the engine sums them.  Weights of another type (hop_count's
ints) are held exactly only while their total, which bounds every path
sum and every width, stays below 2**53; past that, `solve` raises
TooLargeError rather than check inexactly.
The fewest hops come from the same relaxation over the edges that carry a
best path, and each next hop from one minimum over each source's edges.
`solve` is the one entry point, and `compare_view` checks a view against
it exactly.  The only deliberately shared piece of semantics is the
selection tie-break, which replicates the engine's key tuple (signed
cost, p_length, next), whose plain order is the selection order (see
`strategy`): primary key per the strategy, then fewer hops, then
smallest next-hop id.

Time: a relaxation ends one sweep after the last change, so it sweeps at
most one more time than the most hops of a best path: at most N times, as
on a ring of N nodes whose best paths all go the long way round.  Each
sweep reads only the edges whose far end changed in the sweep before.

Memory: a solve holds a few (N, N) matrices: the costs as float64, the
fewest hops as float32, exact below 2**24 hops, and the next hops as
int32.  Every kernel works on (targets x directed edges) arrays over one
block of targets at a time, each near `_BLOCK_ELEMENTS` elements (or of 8
targets, past 8192 edges), so its working memory is O(N^2 +
_BLOCK_ELEMENTS + 8 * edges) whatever the weights.
`compare_view` reads the view one row at a time, so it adds an (N, N)
mask of the pairs the view lacks plus the oracle's columns for one row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidWeightError, TooLargeError
from .graph_model import GraphStore, NodeId
from .routing_core import _NO_RULE
from .strategy import Strategy

# targets solved together, so that each (targets x edges) array stays near
# this many elements (512 KiB of float64) whatever the graph's size; larger
# blocks were no faster on fat-tree k=16 and raised the peak
_BLOCK_ELEMENTS = 1 << 16


class OracleResult:
    """Per ordered pair: optimal cost, tie-broken length and tie-broken
    next hop."""

    def __init__(self, ids, cost, length, nxt, maximize):
        self.ids: tuple[NodeId, ...] = tuple(ids)
        self.index = {n: i for i, n in enumerate(self.ids)}
        self.maximize = maximize
        self._cost = cost
        self._length = length
        self._next = nxt

    @property
    def next_matrix(self):
        """(N, N) tie-broken next hops as indices into `ids`; -1 if none."""
        return self._next

    def reachable(self, s: NodeId, t: NodeId) -> bool:
        if s not in self.index or t not in self.index:
            return False
        c = self._cost[self.index[s], self.index[t]]
        return c > -math.inf if self.maximize else c < math.inf

    def cost_of(self, s: NodeId, t: NodeId) -> float:
        return float(self._cost[self.index[s], self.index[t]])

    def length_of(self, s: NodeId, t: NodeId) -> int:
        return int(self._length[self.index[s], self.index[t]])

    def next_of(self, s: NodeId, t: NodeId) -> NodeId | None:
        n = self._next[self.index[s], self.index[t]]
        return None if n < 0 else self.ids[n]

    def triple(self, s: NodeId, t: NodeId):
        """(cost, length, next) when reachable, else None."""
        if not self.reachable(s, t):
            return None
        i, j = self.index[s], self.index[t]
        return (
            float(self._cost[i, j]),
            int(self._length[i, j]),
            self.ids[self._next[i, j]],
        )


class _Edges(NamedTuple):
    """One directed edge per ordered pair, sorted by (source, target): each
    source's edges are one run, the run of `heads[k]` starting at
    `starts[k]`, so a ufunc's `reduceat` over `starts` reduces per source."""

    srcs: np.ndarray
    dsts: np.ndarray
    ws: np.ndarray
    heads: np.ndarray
    starts: np.ndarray


def _collect_edges(graph: GraphStore, widest: bool):
    """Sorted node ids, and the edges with each pair's reduced weight (min
    for additive routing, max for widest)."""
    ids = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(ids)}
    wmin: dict[tuple[int, int], float] = {}
    for (src, dst, w), _mult in graph.edge_items():
        key = (index[src], index[dst])
        cur = wmin.get(key)
        if cur is None or (w > cur if widest else w < cur):
            wmin[key] = float(w)
    m = len(wmin)
    srcs = np.fromiter((i for i, _j in wmin), np.int64, m)
    dsts = np.fromiter((j for _i, j in wmin), np.int64, m)
    ws = np.fromiter(wmin.values(), np.float64, m)
    order = np.lexsort((dsts, srcs))
    srcs, dsts, ws = srcs[order], dsts[order], ws[order]
    heads, starts = np.unique(srcs, return_index=True)
    return ids, _Edges(srcs, dsts, ws, heads, starts)


def _blocks(n: int, m: int):
    """Target columns [lo, hi) in blocks of about `_BLOCK_ELEMENTS // m`,
    and of at least 8: each sweep of `_relax` reads every edge to find the
    active ones, and 8 targets share that read (hop_count fat-tree k=32 on
    a 2-vCPU VM: 1.45 s a solve with 2 targets a block, 1.04 s with 8)."""
    size = max(8, _BLOCK_ELEMENTS // max(m, 1))
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _relax(block, edges: _Edges, offer, better, seeds) -> None:
    """Bellman's synchronous relaxation toward one block of targets, in
    place: block[j, x] is x's value toward the block's j-th target, and
    each sweep improves every column block[:, s] by `better` (a ufunc)
    with the best over the edges s -> x of `offer(k, block[:, x])`, k
    being those edges' indices, until a sweep changes no column.  A sweep
    offers only over the edges whose far end changed in the sweep before
    (the first, over the edges into the `seeds` columns): a far end that
    did not change offers what it offered before, which its sources
    already hold."""
    srcs, dsts = edges.srcs, edges.dsts
    changed = np.zeros(block.shape[1], dtype=bool)
    changed[seeds] = True
    first = np.ones(srcs.size, dtype=bool)
    while (k := changed.take(dsts).nonzero()[0]).size:
        s = srcs.take(k)
        # the first of each source's run of edges
        np.not_equal(s[1:], s[:-1], out=first[1:k.size])
        starts = first[:k.size].nonzero()[0]
        heads = s.take(starts)
        old = block.take(heads, axis=1)
        new = better(old, better.reduceat(offer(k, block.take(dsts.take(k), axis=1)), starts, axis=1))
        block[:, heads] = new
        changed[:] = False
        changed[heads] = (new != old).any(axis=0)


def _solve(ids, edges: _Edges, maximize: bool) -> OracleResult:
    """Costs, fewest hops and tie-broken next hops toward one block of
    targets at a time.

    The costs relax from each target's own cost (0, or the width inf).  An
    edge s -> x is tight toward t when it carries a best path: its offer
    equals D[s, t], exactly, and t is reachable.  The fewest hops relax
    from 0 at the target over the tight edges, and s's next is the
    smallest x over a tight edge one hop closer."""
    n = len(ids)
    cost = np.empty((n, n))
    length = np.empty((n, n), dtype=np.float32)
    nxt = np.empty((n, n), dtype=np.int32)
    srcs, dsts, ws, heads, starts = edges
    if maximize:
        extend, better, unreached, own = np.minimum, np.maximum, -math.inf, math.inf
    else:
        extend, better, unreached, own = np.add, np.minimum, math.inf, 0.0

    def offer(k, far):
        return extend(ws.take(k), far)
    for lo, hi in _blocks(n, srcs.size):
        targets, rows = np.arange(lo, hi), np.arange(hi - lo)
        block = np.full((hi - lo, n), unreached)
        block[rows, targets] = own
        _relax(block, edges, offer, better, targets)
        base = block.take(srcs, axis=1)
        tight = offer(np.arange(srcs.size), block.take(dsts, axis=1)) == base
        tight &= base != unreached
        del base
        cost[:, lo:hi] = block.T
        # 1 over a tight edge, inf over the others
        step = np.where(tight, np.float32(1), np.float32(math.inf))
        hops = np.full((hi - lo, n), np.inf, dtype=np.float32)
        hops[rows, targets] = 0.0
        _relax(hops, edges, lambda k, far: far + step.take(k, axis=1), np.minimum, targets)
        tight &= hops.take(dsts, axis=1) + 1 == hops.take(srcs, axis=1)
        best = np.minimum.reduceat(np.where(tight, dsts, n), starts, axis=1)
        best[best == n] = -1
        length[:, lo:hi] = hops.T
        nxt[:, lo:hi] = -1
        nxt[heads, lo:hi] = best.T
        nxt[targets, targets] = targets
    return OracleResult(ids, cost, length, nxt, maximize)


def solve(graph: GraphStore, strategy: Strategy) -> OracleResult:
    """All-pairs optima for the strategy's built-in path cost (the sum when
    minimizing, the bottleneck width when maximizing), with the engine's
    key-tuple tie-break applied, exact for float weights and for weights
    of another type (ints) whose total is below 2**53.

    Raises InvalidWeightError on an additive weight that is not positive,
    and TooLargeError on a non-float weight when the weights' total,
    which bounds every path sum and every width, is 2**53 or more:
    float64 no longer holds such values exactly."""
    ids, edges = _collect_edges(graph, widest=strategy.maximize)
    if not strategy.maximize and edges.ws.size and edges.ws.min() <= 0:
        raise InvalidWeightError(f"non-positive weight {edges.ws.min()}")
    weights = [w for _a, _b, w in graph.links()]
    if sum(weights) >= 2**53 and not all(isinstance(w, float) for w in weights):
        raise TooLargeError("weights total 2**53 or more, past exact floats")
    return _solve(ids, edges, strategy.maximize)


def _mismatch(result: OracleResult, s, t, p_cost, p_length, nxt):
    """Why the view's rule for (s, t), of cost `p_cost`, length `p_length`
    and next hop `nxt`, fails against the oracle, or None."""
    tri = result.triple(s, t)
    if tri is None:
        return "engine reaches an oracle-unreachable pair"
    cost, length, want = tri
    if p_cost != cost:
        return f"cost {p_cost} vs oracle {cost}"
    if p_length != length:
        return f"length {p_length} vs oracle {length}"
    if nxt != want:
        return f"next {nxt} vs oracle {want}"
    return None


def compare_view(result: OracleResult, view) -> list[tuple]:
    """Mismatches between an established-rule view and an oracle result.

    Returns a list of (s, t, reason) tuples; empty means equivalence.  The
    oracle's costs are the engine's own floats, so every cost, length and
    next compares exactly.  The view's mismatches come first, in view
    order, then the oracle-reachable pairs the view lacks, in `ids` order.

    The view is read one row at a time through its `rows()`, each row as
    three columns over the view's slots: the signed cost, the length and
    the next's slot, a negative next where a slot holds no rule.  For each
    destination the oracle's answer is laid out as the same three
    columns, and each column is compared with the row's in one numpy
    comparison, the store's empty rule (`routing_core._NO_RULE`) where the
    oracle does not reach.
    Only the slots where a column differs go through `_mismatch`, which
    names the reason.
    """
    rows, slots, negated = view.rows()
    index = result.index
    cost, length, nxt = result._cost, result._length, result._next
    missing = cost > -math.inf if result.maximize else cost < math.inf
    # the oracle's index of each slot's node, 0 where the oracle lacks it
    at = np.fromiter((index.get(x, -1) for x in slots), np.intp, len(slots))
    known = at >= 0
    # the view's slot of each oracle node, -1 where the view has none
    place = np.full(len(result.ids) + 1, -1, dtype=np.intp)
    place[at[known]] = np.flatnonzero(known)
    at[~known] = 0
    covered, lacked, bad = [], [], []
    no_cost, no_length, no_next = _NO_RULE
    for d, (row_cost, row_length, row_next) in rows:
        j = index.get(d)
        if j is None:
            reach = np.zeros(len(slots), dtype=bool)
            c = length_j = next_j = 0
        else:
            covered.append(j)
            reach = missing[at, j] & known
            c, length_j, next_j = cost[at, j], length[at, j], place[nxt[at, j]]
        nexts = _column(row_next)
        has = nexts >= 0
        differ = nexts != np.where(reach, next_j, no_next)
        differ |= _column(row_length) != np.where(reach, length_j, no_length)
        differ |= _column(row_cost) != np.where(reach, -c if negated else c, no_cost)
        for k in np.flatnonzero(differ).tolist():
            s = slots[k]
            if not has[k]:
                if reach[k]:
                    lacked.append((index[s], j))
                continue
            p_cost = -row_cost[k] if negated else row_cost[k]
            reason = _mismatch(result, s, d, p_cost, row_length[k], slots[row_next[k]])
            if reason is not None:
                bad.append((s, d, reason))
    missing[np.ix_(at[known], covered)] = False
    for i, j in lacked:
        missing[i, j] = True
    ids = result.ids
    for i, j in zip(*(a.tolist() for a in np.nonzero(missing))):
        bad.append((ids[i], ids[j], "oracle-reachable pair missing from engine"))
    return bad


def _column(values):
    """A row's column as a numpy array: the buffer of an `array`, or the
    objects of a list."""
    if isinstance(values, list):
        return np.fromiter(values, object, len(values))
    return np.asarray(values)
